#include "trace/trace_stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/packed_pba.hpp"

namespace pod {
namespace {

void add_write(Trace& t, SimTime at, Lba lba,
               const std::vector<std::uint64_t>& ids) {
  IoRequest r;
  r.arrival = at;
  r.type = OpType::kWrite;
  r.lba = lba;
  r.nblocks = static_cast<std::uint32_t>(ids.size());
  std::vector<Fingerprint> fps;
  fps.reserve(ids.size());
  for (std::uint64_t id : ids) fps.push_back(Fingerprint::of_content_id(id));
  t.append(r, fps);
}

void add_read(Trace& t, SimTime at, Lba lba, std::uint32_t n) {
  IoRequest r;
  r.arrival = at;
  r.type = OpType::kRead;
  r.lba = lba;
  r.nblocks = n;
  t.append(r);
}

TEST(Characterize, BasicCounts) {
  Trace t;
  add_write(t, 0, 0, {1, 2});
  add_read(t, 1, 0, 2);
  add_write(t, 2, 10, {3});
  const auto c = scan_trace(t, StatsWindow::kAll).characteristics;
  EXPECT_EQ(c.total_requests, 3u);
  EXPECT_EQ(c.write_requests, 2u);
  EXPECT_EQ(c.read_requests, 1u);
  EXPECT_NEAR(c.write_ratio, 2.0 / 3.0, 1e-9);
  // Sizes: 8KB + 8KB + 4KB over 3 requests.
  EXPECT_NEAR(c.avg_request_kb, 20.0 / 3.0, 1e-9);
  EXPECT_NEAR(c.avg_write_kb, 6.0, 1e-9);
  EXPECT_NEAR(c.avg_read_kb, 8.0, 1e-9);
  EXPECT_EQ(c.footprint_blocks, 3u);  // LBAs 0,1,10
}

TEST(Characterize, MeasuredWindowSkipsWarmup) {
  Trace t;
  add_write(t, 0, 0, {1});
  add_write(t, 1, 5, {2});
  t.warmup_count = 1;
  const auto c = scan_trace(t).characteristics;
  EXPECT_EQ(c.total_requests, 1u);
  EXPECT_EQ(c.footprint_blocks, 1u);
}

TEST(Characterize, EmptyTrace) {
  Trace t;
  const auto c = scan_trace(t, StatsWindow::kAll).characteristics;
  EXPECT_EQ(c.total_requests, 0u);
  EXPECT_DOUBLE_EQ(c.write_ratio, 0.0);
  EXPECT_DOUBLE_EQ(c.avg_request_kb, 0.0);
}

TEST(RedundancyBySize, DetectsFullAndPartial) {
  Trace t;
  add_write(t, 0, 0, {1, 2});    // first: unique
  add_write(t, 1, 10, {1, 2});   // fully redundant
  add_write(t, 2, 20, {1, 99});  // partially redundant
  add_write(t, 3, 30, {7, 8});   // unique
  const auto r = scan_trace(t, StatsWindow::kAll).by_size;
  EXPECT_EQ(r.total.total(), 4u);
  EXPECT_EQ(r.fully_redundant.total(), 1u);
  EXPECT_EQ(r.partially_redundant.total(), 1u);
}

TEST(RedundancyBySize, BucketsBySize) {
  Trace t;
  add_write(t, 0, 0, {1});            // 4 KB
  add_write(t, 1, 10, {1});           // 4 KB, redundant
  add_write(t, 2, 20, {2, 3, 4, 5});  // 16 KB unique
  const auto r = scan_trace(t, StatsWindow::kAll).by_size;
  EXPECT_EQ(r.total.count(0), 2u);            // the 4 KB bucket
  EXPECT_EQ(r.total.count(2), 1u);            // the 16 KB bucket
  EXPECT_EQ(r.fully_redundant.count(0), 1u);
  EXPECT_EQ(r.fully_redundant.count(2), 0u);
}

TEST(RedundancyBySize, WarmupPrimesContent) {
  Trace t;
  add_write(t, 0, 0, {1});
  add_write(t, 1, 10, {1});
  t.warmup_count = 1;
  // With priming, the single measured request is redundant.
  const auto r = scan_trace(t).by_size;
  EXPECT_EQ(r.total.total(), 1u);
  EXPECT_EQ(r.fully_redundant.total(), 1u);
}

TEST(RedundancyBreakdown, SameVsDifferentLba) {
  Trace t;
  add_write(t, 0, 0, {1});    // unique (lba 0 = content 1)
  add_write(t, 1, 0, {1});    // same LBA, same content -> I/O redundancy
  add_write(t, 2, 50, {1});   // different LBA, same content -> capacity
  add_write(t, 3, 60, {9});   // unique
  const auto b = scan_trace(t, StatsWindow::kAll).breakdown;
  EXPECT_EQ(b.write_blocks, 4u);
  EXPECT_EQ(b.same_lba_redundant_blocks, 1u);
  EXPECT_EQ(b.diff_lba_redundant_blocks, 1u);
  EXPECT_DOUBLE_EQ(b.io_redundancy_pct(), 50.0);
  EXPECT_DOUBLE_EQ(b.capacity_redundancy_pct(), 25.0);
}

TEST(RedundancyBreakdown, IoAlwaysAtLeastCapacity) {
  // Property: I/O redundancy >= capacity redundancy by construction.
  Trace t;
  for (int i = 0; i < 50; ++i) {
    add_write(t, i, static_cast<Lba>(i % 7) * 4,
              {static_cast<std::uint64_t>(i % 5)});
  }
  const auto b = scan_trace(t, StatsWindow::kAll).breakdown;
  EXPECT_GE(b.io_redundancy_pct(), b.capacity_redundancy_pct());
}

TEST(RedundancyBreakdown, OverwriteChangesCurrent) {
  Trace t;
  add_write(t, 0, 0, {1});
  add_write(t, 1, 0, {2});  // overwrites lba 0 with new content
  add_write(t, 2, 0, {1});  // content 1 seen before, but lba 0 now holds 2:
                            // counts as diff-lba (capacity) redundancy
  const auto b = scan_trace(t, StatsWindow::kAll).breakdown;
  EXPECT_EQ(b.same_lba_redundant_blocks, 0u);
  EXPECT_EQ(b.diff_lba_redundant_blocks, 1u);
}

TEST(RedundancyBreakdown, EmptyIsZero) {
  Trace t;
  const auto b = scan_trace(t, StatsWindow::kAll).breakdown;
  EXPECT_DOUBLE_EQ(b.io_redundancy_pct(), 0.0);
  EXPECT_DOUBLE_EQ(b.capacity_redundancy_pct(), 0.0);
}

// Figure 1 asks whether a chunk's content was written before its request,
// Figure 2 whether it was written before its block: a fresh chunk written
// twice in one request is redundant for Figure 2 only.
TEST(ScanTrace, SameChunkTwiceInOneRequest) {
  Trace t;
  add_write(t, 0, 0, {5, 5});
  const TraceScan s = scan_trace(t, StatsWindow::kAll);
  EXPECT_EQ(s.by_size.fully_redundant.total(), 0u);
  EXPECT_EQ(s.by_size.partially_redundant.total(), 0u);
  EXPECT_EQ(s.breakdown.write_blocks, 2u);
  EXPECT_EQ(s.breakdown.same_lba_redundant_blocks, 0u);
  EXPECT_EQ(s.breakdown.diff_lba_redundant_blocks, 1u);
}

// The scan keeps dense per-LBA state; a block past what it can index is
// refused with the LBA named, never truncated into range.
TEST(ScanTrace, RefusesLbaPastDenseRange) {
  Trace t;
  add_write(t, 0, 0, {1});
  const Lba lba = kPackedPbaLimit - 1;  // its second block is out of range
  add_read(t, 1, lba, 2);
  try {
    (void)scan_trace(t, StatsWindow::kAll);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(lba)),
              std::string::npos)
        << e.what();
  }
  Trace far;
  add_write(far, 0, Lba{1} << 40, {1});
  EXPECT_THROW((void)scan_trace(far, StatsWindow::kAll), std::invalid_argument);
}

}  // namespace
}  // namespace pod
