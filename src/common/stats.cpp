#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace pod {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

void OnlineStats::reset() { *this = OnlineStats{}; }

double OnlineStats::variance() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void LatencyRecorder::add(Duration d) {
  stats_.add(static_cast<double>(d));
  samples_.push_back(static_cast<double>(d));
}

void LatencyRecorder::merge(const LatencyRecorder& other) {
  stats_.merge(other.stats_);
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
}

void LatencyRecorder::reset() {
  stats_.reset();
  samples_.clear();
}

double LatencyRecorder::percentile_ns(double q) const {
  POD_CHECK(q >= 0.0 && q <= 1.0);
  if (samples_.empty()) return 0.0;
  // Select on a copy so concurrent readers never write shared state (see
  // header). nth_element partitions around the low order statistic; the
  // high one (for interpolation) is then the minimum of the tail.
  std::vector<double> work(samples_);
  const double idx = q * static_cast<double>(work.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const double frac = idx - static_cast<double>(lo);
  const auto lo_it = work.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(work.begin(), lo_it, work.end());
  const double lo_v = *lo_it;
  const double hi_v = (frac > 0.0 && lo + 1 < work.size())
                          ? *std::min_element(lo_it + 1, work.end())
                          : lo_v;
  return lo_v * (1.0 - frac) + hi_v * frac;
}

void Ewma::add(double x) {
  if (!seeded_) {
    value_ = x;
    seeded_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
}

void Ewma::reset() {
  value_ = 0.0;
  seeded_ = false;
}

}  // namespace pod
