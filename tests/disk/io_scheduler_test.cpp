#include "disk/io_scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "io_scheduler_reference.hpp"

namespace pod {
namespace {

std::uint64_t cyl_of(std::uint64_t block) {
  return block / 100;  // 100 blocks per cylinder
}

/// Builds an op at `block` in a fresh queue slot, as Disk::submit does.
std::uint32_t push_at(DiskQueue& q, std::uint64_t block) {
  const std::uint32_t slot = q.push();
  q.op(slot).block = block;
  q.op(slot).cylinder = cyl_of(block);
  return slot;
}

/// Pops the next op and frees its slot; returns the op's block.
std::uint64_t pop_block(DiskQueue& q, std::uint64_t head_cylinder) {
  const std::uint32_t slot = q.pop(head_cylinder);
  const std::uint64_t block = q.op(slot).block;
  q.release(slot);
  return block;
}

TEST(Fcfs, PopsInArrivalOrder) {
  DiskQueue q(SchedulerKind::kFcfs);
  push_at(q, 500);
  push_at(q, 100);
  push_at(q, 300);
  EXPECT_EQ(pop_block(q, 0), 500u);
  EXPECT_EQ(pop_block(q, 0), 100u);
  EXPECT_EQ(pop_block(q, 0), 300u);
  EXPECT_TRUE(q.empty());
}

TEST(Sstf, PicksNearestCylinder) {
  DiskQueue q(SchedulerKind::kSstf);
  push_at(q, 900);  // cyl 9
  push_at(q, 100);  // cyl 1
  push_at(q, 350);  // cyl 3
  // Head at cylinder 2 -> nearest is cyl 1 (distance 1), then 3, then 9.
  EXPECT_EQ(pop_block(q, 2), 100u);
  EXPECT_EQ(pop_block(q, 1), 350u);
  EXPECT_EQ(pop_block(q, 3), 900u);
}

TEST(Sstf, TieGoesToFirstQueued) {
  DiskQueue q(SchedulerKind::kSstf);
  push_at(q, 300);  // cyl 3
  push_at(q, 500);  // cyl 5 (same distance from head 4)
  EXPECT_EQ(pop_block(q, 4), 300u);
}

TEST(Scan, ServicesUpwardThenReverses) {
  DiskQueue q(SchedulerKind::kScan);
  push_at(q, 600);  // cyl 6
  push_at(q, 200);  // cyl 2
  push_at(q, 800);  // cyl 8
  // Head at cyl 5, sweeping up: 6, 8, then reverse to 2.
  EXPECT_EQ(pop_block(q, 5), 600u);
  EXPECT_EQ(pop_block(q, 6), 800u);
  EXPECT_EQ(pop_block(q, 8), 200u);
}

TEST(Scan, EqualCylinderServedInSweep) {
  DiskQueue q(SchedulerKind::kScan);
  push_at(q, 500);
  EXPECT_EQ(pop_block(q, 5), 500u);  // same cylinder counts as eligible
}

TEST(Scheduler, SizeTracksContents) {
  for (auto kind : {SchedulerKind::kFcfs, SchedulerKind::kSstf,
                    SchedulerKind::kScan}) {
    DiskQueue q(kind);
    EXPECT_TRUE(q.empty());
    push_at(q, 1);
    push_at(q, 2);
    EXPECT_EQ(q.size(), 2u);
    (void)pop_block(q, 0);
    EXPECT_EQ(q.size(), 1u);
    (void)pop_block(q, 0);
    EXPECT_TRUE(q.empty());
  }
}

TEST(Scheduler, OpPayloadPreserved) {
  DiskQueue q(SchedulerKind::kFcfs);
  int fired = 0;
  const std::uint32_t in = q.push();
  DiskOp& op = q.op(in);
  op.type = OpType::kWrite;
  op.block = 7;
  op.nblocks = 3;
  op.done = [&fired](IoStatus) { ++fired; };
  const std::uint32_t slot = q.pop(0);
  DiskOp& out = q.op(slot);
  EXPECT_EQ(out.type, OpType::kWrite);
  EXPECT_EQ(out.nblocks, 3u);
  IoDoneFn done = std::move(out.done);
  q.release(slot);
  done(IoStatus::kOk);
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, ToStringNames) {
  EXPECT_STREQ(to_string(SchedulerKind::kFcfs), "fcfs");
  EXPECT_STREQ(to_string(SchedulerKind::kSstf), "sstf");
  EXPECT_STREQ(to_string(SchedulerKind::kScan), "scan");
}

TEST(Scheduler, FreedSlotsAreReused) {
  DiskQueue q(SchedulerKind::kFcfs);
  const std::uint32_t a = push_at(q, 10);
  const std::uint32_t b = push_at(q, 20);
  EXPECT_NE(a, b);
  EXPECT_EQ(pop_block(q, 0), 10u);
  // The freed slot is the next one handed out, at the tail of the order.
  EXPECT_EQ(push_at(q, 30), a);
  EXPECT_EQ(pop_block(q, 0), 20u);
  EXPECT_EQ(pop_block(q, 0), 30u);
  EXPECT_TRUE(q.empty());
}

// Seeded differential test: the one-queue pick rule must pop exactly the
// op each reference container pops, over random interleavings of pushes
// and pops and random head positions. Blocks come from a narrow range so
// equal cylinders (ties) are common; nblocks carries each op's arrival id.
TEST(SchedulerDiff, PickRuleMatchesReferenceContainers) {
  for (auto kind : {SchedulerKind::kFcfs, SchedulerKind::kSstf,
                    SchedulerKind::kScan}) {
    SCOPED_TRACE(to_string(kind));
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      Rng rng(seed * 7919);
      DiskQueue q(kind);
      auto oracle = reference::make_scheduler(kind, cyl_of);
      const std::uint64_t max_block = 100 * (1 + rng.uniform(0, 40));
      std::uint64_t next_id = 1;
      std::uint64_t pops = 0;
      for (int step = 0; step < 4000; ++step) {
        const bool push = oracle->empty() || rng.chance(0.52);
        if (push) {
          const std::uint64_t block = rng.uniform(0, max_block);
          const std::uint32_t slot = push_at(q, block);
          q.op(slot).nblocks = next_id;
          DiskOp ref;
          ref.block = block;
          ref.nblocks = next_id++;
          oracle->push(std::move(ref));
        } else {
          // The head sits anywhere, including past every queued op.
          const std::uint64_t head =
              rng.uniform(0, cyl_of(max_block) + 2);
          const DiskOp want = oracle->pop(head);
          const std::uint32_t slot = q.pop(head);
          ASSERT_EQ(q.op(slot).nblocks, want.nblocks)
              << "seed " << seed << " pop " << pops;
          EXPECT_EQ(q.op(slot).block, want.block);
          q.release(slot);
          ++pops;
        }
        ASSERT_EQ(q.size(), oracle->size());
      }
      EXPECT_GT(pops, 1000u);
    }
  }
}

}  // namespace
}  // namespace pod
