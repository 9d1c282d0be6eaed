#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include "common/types.hpp"

namespace pod {
namespace {

TEST(SizeHistogram, DefaultPaperBuckets) {
  SizeHistogram h;
  EXPECT_EQ(h.num_buckets(), 6u);
  EXPECT_EQ(h.label(0), "4KB");
  EXPECT_EQ(h.label(4), "64KB");
  EXPECT_EQ(h.label(5), ">=128KB");
}

TEST(SizeHistogram, BucketAssignment) {
  SizeHistogram h;
  EXPECT_EQ(h.bucket_for(1), 0u);            // sub-4KB folds into first
  EXPECT_EQ(h.bucket_for(4 * kKiB), 0u);     // inclusive upper edge
  EXPECT_EQ(h.bucket_for(5 * kKiB), 1u);
  EXPECT_EQ(h.bucket_for(8 * kKiB), 1u);
  EXPECT_EQ(h.bucket_for(64 * kKiB), 4u);
  EXPECT_EQ(h.bucket_for(128 * kKiB), 5u);
  EXPECT_EQ(h.bucket_for(1 * kMiB), 5u);     // overflow folds into last
}

TEST(SizeHistogram, AddCounts) {
  SizeHistogram h;
  h.add(4 * kKiB);
  h.add(4 * kKiB);
  h.add(16 * kKiB, 3);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(2), 3u);
  EXPECT_EQ(h.count(1), 0u);
}

TEST(SizeHistogram, CustomEdges) {
  SizeHistogram h({8 * kKiB, 32 * kKiB});
  EXPECT_EQ(h.num_buckets(), 2u);
  EXPECT_EQ(h.bucket_for(8 * kKiB), 0u);
  EXPECT_EQ(h.bucket_for(9 * kKiB), 1u);
  EXPECT_EQ(h.label(0), "8KB");
  EXPECT_EQ(h.label(1), ">=32KB");
}

}  // namespace
}  // namespace pod
