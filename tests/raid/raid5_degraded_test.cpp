// Degraded-mode and rebuild behaviour of the RAID-5 volume.
#include <gtest/gtest.h>

#include "raid/raid5.hpp"

namespace pod {
namespace {

ArrayConfig small_array(std::size_t disks = 4) {
  ArrayConfig cfg;
  cfg.num_disks = disks;
  cfg.stripe_unit_blocks = 16;
  cfg.disk_geometry.total_blocks = 1 << 14;
  return cfg;
}

TEST(Raid5Degraded, StartsHealthy) {
  Simulator sim;
  Raid5 r(sim, small_array());
  EXPECT_FALSE(r.degraded());
}

TEST(Raid5Degraded, FailMarksDegraded) {
  Simulator sim;
  Raid5 r(sim, small_array());
  r.fail_disk(1);
  EXPECT_TRUE(r.degraded());
  EXPECT_EQ(r.failed_disk(), 1u);
}

TEST(Raid5DegradedDeathTest, SecondFailureAborts) {
  Simulator sim;
  Raid5 r(sim, small_array());
  r.fail_disk(1);
  EXPECT_DEATH(r.fail_disk(2), "single failure");
}

TEST(Raid5Degraded, ReadOnSurvivingDiskUnaffected) {
  Simulator sim;
  Raid5 r(sim, small_array());
  r.fail_disk(3);  // row 0 parity disk; blocks 0..15 live on disk 0
  bool done = false;
  r.submit(VolumeIo{OpType::kRead, 0, 8, [&](IoStatus) { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(r.disk(0).stats().reads, 1u);
  EXPECT_EQ(r.disk(1).stats().reads, 0u);
  EXPECT_EQ(r.reconstruction_reads(), 0u);
}

TEST(Raid5Degraded, ReadOnFailedDiskReconstructs) {
  Simulator sim;
  Raid5 r(sim, small_array());
  r.fail_disk(0);  // blocks 0..15 (row 0, col 0) are lost
  bool done = false;
  r.submit(VolumeIo{OpType::kRead, 0, 8, [&](IoStatus) { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  // Reconstruction reads the same range from every surviving member.
  EXPECT_EQ(r.disk(0).stats().reads, 0u);
  for (std::size_t d = 1; d < 4; ++d)
    EXPECT_EQ(r.disk(d).stats().blocks_read, 8u) << "disk " << d;
  EXPECT_EQ(r.reconstruction_reads(), 1u);
}

TEST(Raid5Degraded, ReconstructionConsumesMoreDiskResources) {
  // A single degraded read may finish almost as fast as a healthy one (the
  // surviving members are read in parallel), but it occupies 3x the disk
  // bandwidth — which is what degrades a loaded array.
  Simulator healthy_sim;
  Raid5 healthy(healthy_sim, small_array());
  healthy.submit(VolumeIo{OpType::kRead, 0, 8, [](IoStatus) {}});
  healthy_sim.run();

  Simulator degraded_sim;
  Raid5 degraded(degraded_sim, small_array());
  degraded.fail_disk(0);
  degraded.submit(VolumeIo{OpType::kRead, 0, 8, [](IoStatus) {}});
  degraded_sim.run();

  auto totals = [](const Raid5& r) {
    std::uint64_t blocks = 0;
    Duration busy = 0;
    for (std::size_t d = 0; d < r.num_disks(); ++d) {
      blocks += r.disk(d).stats().blocks_read;
      busy += r.disk(d).stats().busy_time;
    }
    return std::pair{blocks, busy};
  };
  const auto [healthy_blocks, healthy_busy] = totals(healthy);
  const auto [degraded_blocks, degraded_busy] = totals(degraded);
  EXPECT_EQ(healthy_blocks, 8u);
  EXPECT_EQ(degraded_blocks, 24u);
  EXPECT_GT(degraded_busy, healthy_busy);
}

TEST(Raid5Degraded, WriteToLostParityColumnSkipsParity) {
  Simulator sim;
  Raid5 r(sim, small_array());
  r.fail_disk(3);  // row 0 parity
  bool done = false;
  r.submit(VolumeIo{OpType::kWrite, 0, 4, [&](IoStatus) { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  // Just the data write: no pre-reads, no parity ops.
  std::uint64_t total_ops = 0;
  for (std::size_t d = 0; d < 4; ++d)
    total_ops += r.disk(d).stats().reads + r.disk(d).stats().writes;
  EXPECT_EQ(total_ops, 1u);
}

TEST(Raid5Degraded, WriteToLostDataColumnReconstructWrites) {
  Simulator sim;
  Raid5 r(sim, small_array());
  r.fail_disk(0);  // row 0 data column 0 lost
  bool done = false;
  // Targets the lost column.
  r.submit(VolumeIo{OpType::kWrite, 0, 4, [&](IoStatus) { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  // Pre-reads from the surviving data columns (1, 2), parity write on 3,
  // and NO ops on the failed disk.
  EXPECT_EQ(r.disk(0).stats().reads + r.disk(0).stats().writes, 0u);
  EXPECT_EQ(r.disk(1).stats().reads, 1u);
  EXPECT_EQ(r.disk(2).stats().reads, 1u);
  EXPECT_EQ(r.disk(3).stats().writes, 1u);
}

TEST(Raid5Degraded, WriteElsewhereInDegradedRowIsNormalRmw) {
  Simulator sim;
  Raid5 r(sim, small_array());
  r.fail_disk(0);
  bool done = false;
  // Row 0 column 1 (disk 1).
  r.submit(VolumeIo{OpType::kWrite, 16, 4, [&](IoStatus) { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(r.disk(0).stats().reads + r.disk(0).stats().writes, 0u);
  EXPECT_EQ(r.disk(1).stats().reads, 1u);   // old data
  EXPECT_EQ(r.disk(1).stats().writes, 1u);  // new data
  EXPECT_EQ(r.disk(3).stats().reads, 1u);   // old parity
  EXPECT_EQ(r.disk(3).stats().writes, 1u);  // new parity
}

TEST(Raid5Degraded, DegradedFullStripeSkipsFailedMember) {
  Simulator sim;
  Raid5 r(sim, small_array());
  r.fail_disk(1);
  bool done = false;
  // Full row 0.
  r.submit(VolumeIo{OpType::kWrite, 0, 48, [&](IoStatus) { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(r.disk(1).stats().writes, 0u);
  EXPECT_GT(r.disk(0).stats().writes, 0u);
  EXPECT_GT(r.disk(3).stats().writes, 0u);  // parity still written
}

TEST(Raid5Degraded, RebuildSweepsRows) {
  Simulator sim;
  Raid5 r(sim, small_array());
  r.fail_disk(2);
  bool done = false;
  const std::uint64_t issued = r.rebuild_rows(0, 8, [&](IoStatus) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(issued, 8u);
  // 8 rows x 16 blocks rebuilt onto the failed member.
  EXPECT_EQ(r.disk(2).stats().blocks_written, 8u * 16u);
  for (std::size_t d = 0; d < 4; ++d) {
    if (d == 2) continue;
    EXPECT_EQ(r.disk(d).stats().blocks_read, 8u * 16u) << "disk " << d;
  }
}

TEST(Raid5Degraded, RebuildClampsToVolumeEnd) {
  Simulator sim;
  Raid5 r(sim, small_array());
  r.fail_disk(0);
  const std::uint64_t rows = r.total_rows();
  bool done = false;
  EXPECT_EQ(r.rebuild_rows(rows - 2, 100, [&](IoStatus) { done = true; }), 2u);
  sim.run();
  EXPECT_TRUE(done);
  // Past-the-end request completes immediately with zero rows.
  bool done2 = false;
  EXPECT_EQ(r.rebuild_rows(rows, 4, [&](IoStatus) { done2 = true; }), 0u);
  EXPECT_TRUE(done2);
}

TEST(Raid5Degraded, CompleteRebuildRestoresHealthy) {
  Simulator sim;
  Raid5 r(sim, small_array());
  r.fail_disk(0);
  r.rebuild_rows(0, r.total_rows(), nullptr);
  sim.run();
  r.complete_rebuild();
  EXPECT_FALSE(r.degraded());
  // Reads of the recovered column are direct again.
  r.submit(VolumeIo{OpType::kRead, 0, 4, [](IoStatus) {}});
  sim.run();
  EXPECT_GT(r.disk(0).stats().reads, 0u);
}

}  // namespace
}  // namespace pod
