#include "raid/raid0.hpp"

#include <gtest/gtest.h>

namespace pod {
namespace {

ArrayConfig small_array(std::size_t disks = 4) {
  ArrayConfig cfg;
  cfg.num_disks = disks;
  cfg.stripe_unit_blocks = 16;
  cfg.disk_geometry.total_blocks = 1 << 18;
  return cfg;
}

TEST(Raid0, CapacityIsSumOfDisks) {
  Simulator sim;
  Raid0 r(sim, small_array());
  EXPECT_EQ(r.capacity_blocks(), 4u * (1 << 18));
  EXPECT_EQ(r.num_disks(), 4u);
}

TEST(Raid0, MappingRotatesAcrossDisks) {
  Simulator sim;
  Raid0 r(sim, small_array());
  // Stripe unit 16: blocks 0-15 on disk 0, 16-31 on disk 1, ...
  EXPECT_EQ(r.map_block(0).disk, 0u);
  EXPECT_EQ(r.map_block(15).disk, 0u);
  EXPECT_EQ(r.map_block(16).disk, 1u);
  EXPECT_EQ(r.map_block(63).disk, 3u);
  EXPECT_EQ(r.map_block(64).disk, 0u);
  EXPECT_EQ(r.map_block(64).block, 16u);  // second row
}

TEST(Raid0, MappingWithinUnitIsContiguous) {
  Simulator sim;
  Raid0 r(sim, small_array());
  const auto f0 = r.map_block(32);
  const auto f1 = r.map_block(33);
  EXPECT_EQ(f0.disk, f1.disk);
  EXPECT_EQ(f0.block + 1, f1.block);
}

TEST(Raid0, SmallWriteTouchesOneDisk) {
  Simulator sim;
  Raid0 r(sim, small_array());
  bool done = false;
  r.submit(VolumeIo{OpType::kWrite, 4, 4, [&](IoStatus) { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  int active = 0;
  for (std::size_t d = 0; d < r.num_disks(); ++d)
    if (r.disk(d).stats().writes > 0) ++active;
  EXPECT_EQ(active, 1);
}

TEST(Raid0, LargeIoFansOutAcrossDisks) {
  Simulator sim;
  Raid0 r(sim, small_array());
  bool done = false;
  // Exactly one full row.
  r.submit(VolumeIo{OpType::kRead, 0, 64, [&](IoStatus) { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  for (std::size_t d = 0; d < r.num_disks(); ++d) {
    EXPECT_EQ(r.disk(d).stats().reads, 1u);
    EXPECT_EQ(r.disk(d).stats().blocks_read, 16u);
  }
}

TEST(Raid0, MultiRowFragmentsMergePerDisk) {
  Simulator sim;
  Raid0 r(sim, small_array());
  bool done = false;
  // Two full rows.
  r.submit(VolumeIo{OpType::kRead, 0, 128, [&](IoStatus) { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  // Rows are adjacent on each disk: one merged 32-block read per disk.
  for (std::size_t d = 0; d < r.num_disks(); ++d) {
    EXPECT_EQ(r.disk(d).stats().reads, 1u);
    EXPECT_EQ(r.disk(d).stats().blocks_read, 32u);
  }
}

TEST(Raid0, CompletionAfterAllFragments) {
  Simulator sim;
  Raid0 r(sim, small_array());
  SimTime completion = 0;
  r.submit(VolumeIo{OpType::kWrite, 0, 64,
                    [&](IoStatus) { completion = sim.now(); }});
  sim.run();
  EXPECT_EQ(completion, sim.now());  // the write was the last event
  EXPECT_GT(completion, 0);
}

TEST(Raid0, UnalignedRangeSplitsCorrectly) {
  Simulator sim;
  Raid0 r(sim, small_array());
  bool done = false;
  // Start mid-unit on disk 0, spill into disk 1.
  r.submit(VolumeIo{OpType::kWrite, 10, 12, [&](IoStatus) { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(r.disk(0).stats().blocks_written, 6u);   // blocks 10-15
  EXPECT_EQ(r.disk(1).stats().blocks_written, 6u);   // blocks 16-21
}

TEST(Raid0, ParallelismBeatsSingleDisk) {
  // One 64-block I/O across 4 disks must finish faster than the same bytes
  // on a single-disk "array".
  Simulator sim4;
  Raid0 four(sim4, small_array(4));
  four.submit(VolumeIo{OpType::kRead, 0, 64, [](IoStatus) {}});
  sim4.run();

  Simulator sim1;
  ArrayConfig one_cfg = small_array(1);
  Raid0 one(sim1, one_cfg);
  one.submit(VolumeIo{OpType::kRead, 0, 64, [](IoStatus) {}});
  sim1.run();

  EXPECT_LT(sim4.now(), sim1.now());
}

TEST(Raid0, QueueLengthAggregates) {
  Simulator sim;
  Raid0 r(sim, small_array());
  r.submit(VolumeIo{OpType::kWrite, 0, 64, [](IoStatus) {}});
  EXPECT_EQ(r.total_queue_length(), 4u);
  sim.run();
  EXPECT_EQ(r.total_queue_length(), 0u);
}

TEST(Raid0DeathTest, OutOfCapacityRejected) {
  Simulator sim;
  Raid0 r(sim, small_array());
  EXPECT_DEATH(r.submit(VolumeIo{OpType::kRead, r.capacity_blocks(), 1,
                                 [](IoStatus) {}}),
               "POD_CHECK");
}

}  // namespace
}  // namespace pod
