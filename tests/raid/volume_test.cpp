#include "raid/volume.hpp"

#include <gtest/gtest.h>

#include "raid/raid0.hpp"

namespace pod {
namespace {

TEST(MergeFragments, EmptyInput) {
  EXPECT_TRUE(merge_fragments({}).empty());
}

TEST(MergeFragments, AdjacentSameDiskMerge) {
  auto out = merge_fragments({{0, 10, 2}, {0, 12, 3}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].block, 10u);
  EXPECT_EQ(out[0].nblocks, 5u);
}

TEST(MergeFragments, GapPreventsMerge) {
  auto out = merge_fragments({{0, 10, 2}, {0, 13, 3}});
  EXPECT_EQ(out.size(), 2u);
}

TEST(MergeFragments, DifferentDisksNeverMerge) {
  auto out = merge_fragments({{0, 10, 2}, {1, 12, 3}});
  EXPECT_EQ(out.size(), 2u);
}

TEST(MergeFragments, UnsortedInputIsSortedFirst) {
  auto out = merge_fragments({{0, 12, 3}, {0, 10, 2}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].block, 10u);
  EXPECT_EQ(out[0].nblocks, 5u);
}

TEST(MergeFragments, ChainOfThreeMerges) {
  auto out = merge_fragments({{2, 0, 4}, {2, 4, 4}, {2, 8, 4}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].nblocks, 12u);
}

TEST(MergeFragments, MixedDisksSortedByDiskThenBlock) {
  auto out = merge_fragments({{1, 0, 1}, {0, 5, 1}, {0, 0, 1}});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].disk, 0u);
  EXPECT_EQ(out[0].block, 0u);
  EXPECT_EQ(out[1].disk, 0u);
  EXPECT_EQ(out[1].block, 5u);
  EXPECT_EQ(out[2].disk, 1u);
}

TEST(Volume, ConvenienceWrappers) {
  Simulator sim;
  ArrayConfig cfg;
  cfg.num_disks = 2;
  cfg.stripe_unit_blocks = 8;
  cfg.disk_geometry.total_blocks = 1 << 12;
  Raid0 vol(sim, cfg);
  int completed = 0;
  vol.submit(VolumeIo{OpType::kRead, 0, 4, [&](IoStatus) { ++completed; }});
  vol.submit(VolumeIo{OpType::kWrite, 100, 4, [&](IoStatus) { ++completed; }});
  sim.run();
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(vol.disk(0).stats().reads + vol.disk(1).stats().reads, 1u);
  EXPECT_EQ(vol.disk(0).stats().writes + vol.disk(1).stats().writes, 1u);
}

TEST(Volume, NullDoneCallbackAccepted) {
  Simulator sim;
  ArrayConfig cfg;
  cfg.num_disks = 2;
  cfg.stripe_unit_blocks = 8;
  cfg.disk_geometry.total_blocks = 1 << 12;
  Raid0 vol(sim, cfg);
  // Fire-and-forget background style.
  vol.submit(VolumeIo{OpType::kWrite, 0, 8, {}});
  sim.run();
  EXPECT_GT(vol.disk(0).stats().writes + vol.disk(1).stats().writes, 0u);
}

TEST(Volume, QueueLengthDrainsToZero) {
  Simulator sim;
  ArrayConfig cfg;
  cfg.num_disks = 2;
  cfg.stripe_unit_blocks = 8;
  cfg.disk_geometry.total_blocks = 1 << 12;
  Raid0 vol(sim, cfg);
  for (int i = 0; i < 6; ++i)
    vol.submit(VolumeIo{OpType::kWrite, static_cast<Pba>(i) * 64, 4, {}});
  EXPECT_GT(vol.total_queue_length(), 0u);
  sim.run();
  EXPECT_EQ(vol.total_queue_length(), 0u);
}

}  // namespace
}  // namespace pod
