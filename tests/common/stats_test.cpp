#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

namespace pod {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeEqualsCombined) {
  OnlineStats a, b, all;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.37;
    if (i % 2 == 0) a.add(x);
    else b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(OnlineStats, ResetClears) {
  OnlineStats s;
  s.add(1.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(LatencyRecorder, MeanAndCount) {
  LatencyRecorder r;
  r.add(ms(1));
  r.add(ms(2));
  r.add(ms(3));
  EXPECT_EQ(r.count(), 3u);
  EXPECT_DOUBLE_EQ(r.mean_ms(), 2.0);
  EXPECT_DOUBLE_EQ(r.max_ms(), 3.0);
}

TEST(LatencyRecorder, PercentilesExact) {
  LatencyRecorder r;
  for (int i = 1; i <= 100; ++i) r.add(ms(i));
  EXPECT_NEAR(r.percentile_ms(0.0), 1.0, 1e-9);
  EXPECT_NEAR(r.percentile_ms(1.0), 100.0, 1e-9);
  EXPECT_NEAR(r.percentile_ms(0.5), 50.5, 1e-9);
  EXPECT_NEAR(r.percentile_ms(0.99), 99.01, 0.1);
}

TEST(LatencyRecorder, PercentileOfEmptyIsZero) {
  LatencyRecorder r;
  EXPECT_DOUBLE_EQ(r.percentile_ns(0.5), 0.0);
  EXPECT_DOUBLE_EQ(r.mean_ns(), 0.0);
}

TEST(LatencyRecorder, PercentileAfterMoreAdds) {
  LatencyRecorder r;
  r.add(ms(10));
  EXPECT_DOUBLE_EQ(r.percentile_ms(0.5), 10.0);
  r.add(ms(20));  // re-sorting must happen after the new sample
  EXPECT_DOUBLE_EQ(r.percentile_ms(1.0), 20.0);
}

TEST(LatencyRecorder, ConcurrentPercentileReadsAreSafe) {
  // percentile_ns() works on a per-call copy, so concurrent readers of one
  // shared recorder (ParallelRunner aggregation) must race neither with
  // each other nor corrupt the sample order. Run under TSan for teeth.
  LatencyRecorder r;
  for (int i = 1; i <= 10'000; ++i) r.add(ms(i % 250 + 1));
  std::vector<std::thread> readers;
  std::atomic<int> mismatches{0};
  const double expected_p50 = r.percentile_ms(0.5);
  const double expected_p99 = r.percentile_ms(0.99);
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&] {
      for (int iter = 0; iter < 50; ++iter) {
        if (r.percentile_ms(0.5) != expected_p50 ||
            r.percentile_ms(0.99) != expected_p99)
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(LatencyRecorder, MergeCombinesSamples) {
  LatencyRecorder a, b;
  a.add(ms(1));
  b.add(ms(3));
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean_ms(), 2.0);
}

TEST(LatencyRecorder, ResetClears) {
  LatencyRecorder r;
  r.add(ms(1));
  r.reset();
  EXPECT_EQ(r.count(), 0u);
  EXPECT_DOUBLE_EQ(r.percentile_ms(0.5), 0.0);
}

TEST(Ewma, FirstSampleSeeds) {
  Ewma e(0.5);
  EXPECT_TRUE(e.empty());
  e.add(10.0);
  EXPECT_FALSE(e.empty());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, SmoothsTowardNewValues) {
  Ewma e(0.5);
  e.add(0.0);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 7.5);
}

TEST(Ewma, ResetEmpties) {
  Ewma e(0.3);
  e.add(1.0);
  e.reset();
  EXPECT_TRUE(e.empty());
  EXPECT_DOUBLE_EQ(e.value(), 0.0);
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(us(1.0), 1000);
  EXPECT_EQ(ms(1.0), 1'000'000);
  EXPECT_EQ(sec(1.0), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_ms(ms(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_us(us(32)), 32.0);
  EXPECT_DOUBLE_EQ(to_sec(sec(3)), 3.0);
}

TEST(TimeHelpers, BytesBlocksRoundTrip) {
  EXPECT_EQ(bytes_to_blocks(0), 0u);
  EXPECT_EQ(bytes_to_blocks(1), 1u);
  EXPECT_EQ(bytes_to_blocks(kBlockSize), 1u);
  EXPECT_EQ(bytes_to_blocks(kBlockSize + 1), 2u);
  EXPECT_EQ(blocks_to_bytes(3), 3 * kBlockSize);
}

}  // namespace
}  // namespace pod
