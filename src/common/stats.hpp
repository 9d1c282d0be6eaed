// Online statistics and latency recording.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace pod {

/// Welford online mean/variance with min/max tracking.
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);
  void reset();

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Records individual latency samples (nanoseconds) and reports mean and
/// percentiles. It stores all samples; trace replays are bounded (< few M
/// requests) so this is cheap and exact.
class LatencyRecorder {
 public:
  void add(Duration d);
  void merge(const LatencyRecorder& other);
  void reset();

  std::uint64_t count() const { return stats_.count(); }
  double mean_ns() const { return stats_.mean(); }
  double mean_ms() const { return stats_.mean() / kMillisecond; }
  double max_ms() const { return stats_.max() / kMillisecond; }
  /// Exact percentile (q in [0,1]). Thread-safe for concurrent readers:
  /// selects on a per-call copy instead of lazily sorting samples_ in place
  /// (a const-qualified mutation that raced when parallel-replay aggregation
  /// asked for percentiles of one recorder from two threads).
  double percentile_ns(double q) const;
  double percentile_ms(double q) const { return percentile_ns(q) / kMillisecond; }

  const OnlineStats& stats() const { return stats_; }

 private:
  OnlineStats stats_;
  std::vector<double> samples_;
};

/// Simple exponentially-weighted moving average, used by the iCache access
/// monitor to smooth hit-rate signals.
class Ewma {
 public:
  explicit Ewma(double alpha) : alpha_(alpha) {}

  void add(double x);
  double value() const { return value_; }
  bool empty() const { return !seeded_; }
  void reset();

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

}  // namespace pod
