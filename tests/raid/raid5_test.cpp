#include "raid/raid5.hpp"

#include <gtest/gtest.h>

#include "raid/raid0.hpp"

#include <set>

namespace pod {
namespace {

ArrayConfig small_array(std::size_t disks = 4) {
  ArrayConfig cfg;
  cfg.num_disks = disks;
  cfg.stripe_unit_blocks = 16;
  cfg.disk_geometry.total_blocks = 1 << 18;
  return cfg;
}

TEST(Raid5, CapacityLosesOneDisk) {
  Simulator sim;
  Raid5 r(sim, small_array(4));
  // rows * unit * (N-1)
  const std::uint64_t rows = (1 << 18) / 16;
  EXPECT_EQ(r.capacity_blocks(), rows * 16 * 3);
}

TEST(Raid5, ParityRotatesLeftSymmetric) {
  Simulator sim;
  Raid5 r(sim, small_array(4));
  EXPECT_EQ(r.parity_disk(0), 3u);
  EXPECT_EQ(r.parity_disk(1), 2u);
  EXPECT_EQ(r.parity_disk(2), 1u);
  EXPECT_EQ(r.parity_disk(3), 0u);
  EXPECT_EQ(r.parity_disk(4), 3u);
}

TEST(Raid5, DataMappingSkipsParityDisk) {
  Simulator sim;
  Raid5 r(sim, small_array(4));
  // Row 0: parity on disk 3; data columns on disks 0,1,2.
  EXPECT_EQ(r.map_block(0).disk, 0u);
  EXPECT_EQ(r.map_block(16).disk, 1u);
  EXPECT_EQ(r.map_block(32).disk, 2u);
  // Row 1 (blocks 48..95): parity on disk 2; data on 0,1,3.
  EXPECT_EQ(r.map_block(48).disk, 0u);
  EXPECT_EQ(r.map_block(64).disk, 1u);
  EXPECT_EQ(r.map_block(80).disk, 3u);
}

TEST(Raid5, EveryBlockMapsUniquely) {
  Simulator sim;
  Raid5 r(sim, small_array(4));
  std::set<std::pair<std::size_t, std::uint64_t>> seen;
  for (Pba b = 0; b < 48 * 8; ++b) {
    const auto f = r.map_block(b);
    EXPECT_TRUE(seen.emplace(f.disk, f.block).second) << "block " << b;
  }
}

TEST(Raid5, SmallWriteIsReadModifyWrite) {
  Simulator sim;
  Raid5 r(sim, small_array(4));
  const auto plan = r.plan_write(0, 1);
  EXPECT_EQ(plan.rmw_rows, 1u);
  EXPECT_EQ(plan.full_stripes, 0u);
  // Pre-read old data + old parity; write new data + new parity.
  ASSERT_EQ(plan.pre_reads.size(), 2u);
  ASSERT_EQ(plan.writes.size(), 2u);
  EXPECT_EQ(plan.pre_reads[0].nblocks, 1u);
  EXPECT_EQ(plan.pre_reads[1].nblocks, 1u);
}

TEST(Raid5, SmallWriteCostsFourDiskOps) {
  Simulator sim;
  Raid5 r(sim, small_array(4));
  bool done = false;
  r.submit(VolumeIo{OpType::kWrite, 5, 1, [&](IoStatus) { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  std::uint64_t total_ops = 0;
  for (std::size_t d = 0; d < r.num_disks(); ++d)
    total_ops += r.disk(d).stats().reads + r.disk(d).stats().writes;
  EXPECT_EQ(total_ops, 4u);
  EXPECT_EQ(r.rmw_writes(), 1u);
}

TEST(Raid5, FullStripeWriteAvoidsPreReads) {
  Simulator sim;
  Raid5 r(sim, small_array(4));
  const auto plan = r.plan_write(0, 48);  // one full row of data
  EXPECT_EQ(plan.full_stripes, 1u);
  EXPECT_EQ(plan.rmw_rows, 0u);
  EXPECT_TRUE(plan.pre_reads.empty());
  // 3 data fragments + 1 parity unit.
  std::uint64_t written = 0;
  for (const auto& w : plan.writes) written += w.nblocks;
  EXPECT_EQ(written, 64u);
}

TEST(Raid5, MixedWriteSplitsRows) {
  Simulator sim;
  Raid5 r(sim, small_array(4));
  // 60 blocks starting at 24: partial row 0 (24..47) + partial row 1.
  const auto plan = r.plan_write(24, 60);
  EXPECT_EQ(plan.rmw_rows, 2u);
  EXPECT_EQ(plan.full_stripes, 0u);
}

TEST(Raid5, FullPlusPartial) {
  Simulator sim;
  Raid5 r(sim, small_array(4));
  const auto plan = r.plan_write(0, 49);  // full row 0 + 1 block of row 1
  EXPECT_EQ(plan.full_stripes, 1u);
  EXPECT_EQ(plan.rmw_rows, 1u);
}

TEST(Raid5, ParityRangeCoversWrittenOffsets) {
  Simulator sim;
  Raid5 r(sim, small_array(4));
  // Write blocks 2..5 of column 0 (unit offset 2..5): parity fragment must
  // cover offsets 2..5 on the parity disk.
  const auto plan = r.plan_write(2, 4);
  bool found_parity = false;
  for (const auto& w : plan.writes) {
    if (w.disk == 3) {  // row 0 parity
      EXPECT_EQ(w.block, 2u);
      EXPECT_EQ(w.nblocks, 4u);
      found_parity = true;
    }
  }
  EXPECT_TRUE(found_parity);
}

TEST(Raid5, ReadTouchesOnlyDataDisks) {
  Simulator sim;
  Raid5 r(sim, small_array(4));
  bool done = false;
  // Full row 0 of data.
  r.submit(VolumeIo{OpType::kRead, 0, 48, [&](IoStatus) { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(r.disk(3).stats().reads, 0u);  // parity disk untouched
  for (std::size_t d = 0; d < 3; ++d) EXPECT_EQ(r.disk(d).stats().reads, 1u);
}

TEST(Raid5, WriteCompletionAfterBothPhases) {
  Simulator sim;
  Raid5 r(sim, small_array(4));
  SimTime completion = 0;
  r.submit(VolumeIo{OpType::kWrite, 1, 2,
                    [&](IoStatus) { completion = sim.now(); }});
  sim.run();
  EXPECT_EQ(completion, sim.now());
  // RMW: pre-read phase then write phase, so at least two disk service
  // times must have elapsed.
  EXPECT_GT(completion, ms(1));
}

TEST(Raid5, SmallWritesCostMoreThanRaid0) {
  // The RAID5 small-write penalty: same workload, same disks, ~2x the ops.
  Simulator s5;
  Raid5 r5(s5, small_array(4));
  for (int i = 0; i < 10; ++i)
    r5.submit(VolumeIo{OpType::kWrite, static_cast<Pba>(i) * 1000, 1,
                       [](IoStatus) {}});
  s5.run();

  Simulator s0;
  Raid0 r0_equiv(s0, small_array(4));
  for (int i = 0; i < 10; ++i)
    r0_equiv.submit(VolumeIo{OpType::kWrite, static_cast<Pba>(i) * 1000, 1,
                             [](IoStatus) {}});
  s0.run();

  std::uint64_t ops5 = 0, ops0 = 0;
  for (std::size_t d = 0; d < 4; ++d) {
    ops5 += r5.disk(d).stats().reads + r5.disk(d).stats().writes;
    ops0 += r0_equiv.disk(d).stats().reads + r0_equiv.disk(d).stats().writes;
  }
  EXPECT_EQ(ops0, 10u);
  EXPECT_EQ(ops5, 40u);
  EXPECT_GT(s5.now(), s0.now());
}

TEST(Raid5DeathTest, NeedsAtLeastThreeDisks) {
  Simulator sim;
  EXPECT_DEATH(Raid5(sim, small_array(2)), "POD_CHECK");
}

}  // namespace
}  // namespace pod
