#include "common/histogram.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/types.hpp"

namespace pod {

SizeHistogram::SizeHistogram()
    : SizeHistogram(std::vector<std::uint64_t>{4 * kKiB, 8 * kKiB, 16 * kKiB,
                                               32 * kKiB, 64 * kKiB,
                                               128 * kKiB}) {}

SizeHistogram::SizeHistogram(std::vector<std::uint64_t> edges_bytes)
    : edges_(std::move(edges_bytes)) {
  POD_CHECK(!edges_.empty());
  POD_CHECK(std::is_sorted(edges_.begin(), edges_.end()));
  counts_.assign(edges_.size(), 0);
}

std::size_t SizeHistogram::bucket_for(std::uint64_t size_bytes) const {
  for (std::size_t i = 0; i + 1 < edges_.size(); ++i) {
    if (size_bytes <= edges_[i]) return i;
  }
  return edges_.size() - 1;
}

void SizeHistogram::add(std::uint64_t size_bytes, std::uint64_t weight) {
  counts_[bucket_for(size_bytes)] += weight;
  total_ += weight;
}

std::uint64_t SizeHistogram::count(std::size_t bucket) const {
  POD_CHECK(bucket < counts_.size());
  return counts_[bucket];
}

std::string SizeHistogram::label(std::size_t bucket) const {
  POD_CHECK(bucket < counts_.size());
  const auto kb = edges_[bucket] / kKiB;
  if (bucket + 1 == counts_.size()) return ">=" + std::to_string(kb) + "KB";
  return std::to_string(kb) + "KB";
}

}  // namespace pod
