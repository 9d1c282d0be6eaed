// Fixed-bucket histograms.
//
// Figure 1 of the paper buckets write requests by request size
// (4 KB, 8 KB, 16 KB, ..., >=128 KB); SizeHistogram mirrors that bucketing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pod {

/// Request-size histogram with the paper's Figure-1 bucket edges:
/// 4, 8, 16, 32, 64, and >=128 (KB). Values smaller than 4 KB fold into the
/// first bucket; values above the last edge fold into the final bucket.
class SizeHistogram {
 public:
  SizeHistogram();
  /// Explicit edges in bytes, ascending; a final overflow bucket is added.
  explicit SizeHistogram(std::vector<std::uint64_t> edges_bytes);

  void add(std::uint64_t size_bytes, std::uint64_t weight = 1);

  std::size_t num_buckets() const { return counts_.size(); }
  std::uint64_t count(std::size_t bucket) const;
  std::uint64_t total() const { return total_; }
  /// Human label for a bucket, e.g. "4KB", ">=128KB".
  std::string label(std::size_t bucket) const;
  std::size_t bucket_for(std::uint64_t size_bytes) const;

 private:
  std::vector<std::uint64_t> edges_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace pod
