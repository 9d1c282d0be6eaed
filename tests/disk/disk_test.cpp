#include "disk/disk.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pod {
namespace {

HddModel small_model() {
  HddGeometry g;
  g.total_blocks = 1 << 20;  // 4 GiB
  return HddModel(g, HddTiming{});
}

TEST(Disk, CompletesSingleOp) {
  Simulator sim;
  Disk disk(sim, small_model());
  bool done = false;
  disk.submit(OpType::kRead, 1000, 1, [&](IoStatus) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_GT(sim.now(), 0);
  EXPECT_EQ(disk.stats().reads, 1u);
  EXPECT_EQ(disk.stats().blocks_read, 1u);
}

TEST(Disk, ServiceTimeIsPositiveAndBounded) {
  Simulator sim;
  Disk disk(sim, small_model());
  disk.submit(OpType::kRead, disk.total_blocks() / 2, 1);
  sim.run();
  // One random 4KB op: bounded by full seek + rotation + overhead.
  EXPECT_LT(sim.now(), ms(40));
  EXPECT_GT(sim.now(), us(100));
}

TEST(Disk, QueueSerializesOps) {
  Simulator sim;
  Disk disk(sim, small_model());
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    disk.submit(OpType::kRead, static_cast<std::uint64_t>(i) * 100000, 1,
                [&](IoStatus) { completions.push_back(sim.now()); });
  }
  EXPECT_EQ(disk.queue_length(), 4u);
  sim.run();
  ASSERT_EQ(completions.size(), 4u);
  for (std::size_t i = 1; i < completions.size(); ++i)
    EXPECT_GT(completions[i], completions[i - 1]);
}

TEST(Disk, SequentialOpsFasterThanRandom) {
  // Sequential stream of 16 ops vs randomly scattered 16 ops.
  Simulator seq_sim;
  Disk seq_disk(seq_sim, small_model());
  for (int i = 0; i < 16; ++i) {
    seq_disk.submit(OpType::kRead, 5000 + static_cast<std::uint64_t>(i) * 8, 8);
  }
  seq_sim.run();

  Simulator rnd_sim;
  Disk rnd_disk(rnd_sim, small_model());
  for (int i = 0; i < 16; ++i) {
    rnd_disk.submit(OpType::kRead,
                    (static_cast<std::uint64_t>(i) * 7919 * 131) % (1 << 19), 8);
  }
  rnd_sim.run();

  EXPECT_LT(seq_sim.now() * 3, rnd_sim.now());
  EXPECT_GT(seq_disk.stats().sequential_hits, 10u);
}

TEST(Disk, StatsTrackReadsAndWrites) {
  Simulator sim;
  Disk disk(sim, small_model());
  disk.submit(OpType::kRead, 10, 4);
  disk.submit(OpType::kWrite, 100, 2);
  sim.run();
  EXPECT_EQ(disk.stats().reads, 1u);
  EXPECT_EQ(disk.stats().writes, 1u);
  EXPECT_EQ(disk.stats().blocks_read, 4u);
  EXPECT_EQ(disk.stats().blocks_written, 2u);
  EXPECT_EQ(disk.stats().op_latency.count(), 2u);
  EXPECT_GT(disk.stats().busy_time, 0);
}

TEST(Disk, CompletionCanSubmitMoreWork) {
  Simulator sim;
  Disk disk(sim, small_model());
  int completed = 0;
  disk.submit(OpType::kRead, 0, 1, [&](IoStatus) {
    ++completed;
    disk.submit(OpType::kRead, 8, 1, [&](IoStatus) { ++completed; });
  });
  sim.run();
  EXPECT_EQ(completed, 2);
}

TEST(Disk, QueueDepthObserved) {
  Simulator sim;
  Disk disk(sim, small_model());
  for (int i = 0; i < 8; ++i) {
    disk.submit(OpType::kRead, static_cast<std::uint64_t>(i) * 1024, 1);
  }
  sim.run();
  // Depth samples: 0,1,2,...,7 at enqueue times.
  EXPECT_EQ(disk.stats().queue_depth.count(), 8u);
  EXPECT_DOUBLE_EQ(disk.stats().queue_depth.max(), 7.0);
}

TEST(DiskDeathTest, RejectsOutOfRangeOp) {
  Simulator sim;
  Disk disk(sim, small_model());
  EXPECT_DEATH(disk.submit(OpType::kRead, disk.total_blocks(), 1), "POD_CHECK");
}

}  // namespace
}  // namespace pod
