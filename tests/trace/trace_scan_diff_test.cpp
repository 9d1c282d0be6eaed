// Seeded differential test: scan_trace against the three reference passes
// (trace_stats_reference.hpp) on random traces, every field, both windows.
//
// The traces mix what the single pass has to get right:
//   * a warm-up prefix of random length (zero included) with reads
//     interleaved, so priming (content and LBA state, not Table II's
//     footprint) is exercised;
//   * rewrites of a request's content to the same LBAs, across the
//     warm-up boundary too (Figure 2's same-location redundancy);
//   * the same chunk twice inside one request, fresh content included
//     (Figure 1 counts content seen before the *request*, Figure 2 content
//     seen before the *block*);
//   * partial redundancy (old and fresh content in one request) and LBAs
//     that are dense in some traces and sparse in others.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/trace_stats.hpp"
#include "trace_stats_reference.hpp"

namespace pod {
namespace {

Trace random_trace(std::uint64_t seed) {
  Rng rng(seed);
  Trace t;
  const std::size_t n = rng.uniform(1, 300);
  // Dense traces rewrite a few hundred LBAs; sparse ones spread requests
  // over 16M blocks, so most LBAs are touched once.
  const std::uint64_t lba_space = rng.chance(0.5) ? rng.uniform(16, 512)
                                                  : std::uint64_t{1} << 24;
  const std::uint64_t pool = rng.uniform(1, 64);  // recurring content ids
  std::uint64_t fresh = 1'000'000;                // never-repeated content
  std::vector<IoRequest> writes;                  // for same-LBA rewrites
  std::vector<std::vector<Fingerprint>> write_fps;
  for (std::size_t i = 0; i < n; ++i) {
    IoRequest r;
    r.id = i;
    r.arrival = static_cast<SimTime>(i);
    r.nblocks = static_cast<std::uint32_t>(rng.uniform(1, 16));
    r.lba = rng.uniform(0, lba_space - 1);
    if (rng.chance(0.3)) {
      r.type = OpType::kRead;
      t.append(r);
      continue;
    }
    r.type = OpType::kWrite;
    std::vector<Fingerprint> fps;
    if (!writes.empty() && rng.chance(0.2)) {
      // Rewrite an earlier request's content to its own LBAs.
      const std::size_t k = rng.uniform(0, writes.size() - 1);
      r.lba = writes[k].lba;
      r.nblocks = writes[k].nblocks;
      fps = write_fps[k];
    } else {
      for (std::uint32_t b = 0; b < r.nblocks; ++b) {
        if (b > 0 && rng.chance(0.15)) {
          fps.push_back(fps[rng.uniform(0, b - 1)]);  // repeat within request
        } else if (rng.chance(0.5)) {
          fps.push_back(Fingerprint::of_content_id(rng.uniform(1, pool)));
        } else {
          fps.push_back(Fingerprint::of_content_id(fresh++));
        }
      }
    }
    t.append(r, fps);
    writes.push_back(r);
    write_fps.push_back(std::move(fps));
  }
  t.warmup_count = rng.chance(0.2) ? 0 : rng.uniform(0, n);
  return t;
}

void expect_same_histogram(const SizeHistogram& a, const SizeHistogram& b) {
  ASSERT_EQ(a.num_buckets(), b.num_buckets());
  EXPECT_EQ(a.total(), b.total());
  for (std::size_t i = 0; i < a.num_buckets(); ++i)
    EXPECT_EQ(a.count(i), b.count(i)) << "bucket " << i;
}

void expect_matches_reference(const Trace& t, StatsWindow window) {
  SCOPED_TRACE(window == StatsWindow::kAll ? "window all" : "window measured");
  const TraceScan scan = scan_trace(t, window);

  const TraceCharacteristics ref_c = reference::characterize(t, window);
  const TraceCharacteristics& c = scan.characteristics;
  EXPECT_EQ(c.total_requests, ref_c.total_requests);
  EXPECT_EQ(c.write_requests, ref_c.write_requests);
  EXPECT_EQ(c.read_requests, ref_c.read_requests);
  // Same sums in the same order: the doubles are equal, not just close.
  EXPECT_EQ(c.write_ratio, ref_c.write_ratio);
  EXPECT_EQ(c.avg_request_kb, ref_c.avg_request_kb);
  EXPECT_EQ(c.avg_write_kb, ref_c.avg_write_kb);
  EXPECT_EQ(c.avg_read_kb, ref_c.avg_read_kb);
  EXPECT_EQ(c.footprint_blocks, ref_c.footprint_blocks);

  const RedundancyBySize ref_s = reference::redundancy_by_size(t, window);
  expect_same_histogram(scan.by_size.total, ref_s.total);
  expect_same_histogram(scan.by_size.fully_redundant, ref_s.fully_redundant);
  expect_same_histogram(scan.by_size.partially_redundant,
                        ref_s.partially_redundant);

  const RedundancyBreakdown ref_b = reference::redundancy_breakdown(t, window);
  EXPECT_EQ(scan.breakdown.write_blocks, ref_b.write_blocks);
  EXPECT_EQ(scan.breakdown.same_lba_redundant_blocks,
            ref_b.same_lba_redundant_blocks);
  EXPECT_EQ(scan.breakdown.diff_lba_redundant_blocks,
            ref_b.diff_lba_redundant_blocks);
}

TEST(TraceScanDiff, MatchesReferenceOnRandomTraces) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const Trace t = random_trace(seed);
    expect_matches_reference(t, StatsWindow::kAll);
    expect_matches_reference(t, StatsWindow::kMeasuredOnly);
    if (::testing::Test::HasFailure()) return;  // one seed's report is enough
  }
}

TEST(TraceScanDiff, MatchesReferenceOnGeneratedTrace) {
  const Trace t = TraceGenerator(tiny_test_profile()).generate();
  ASSERT_GT(t.warmup_count, 0u);
  expect_matches_reference(t, StatsWindow::kAll);
  expect_matches_reference(t, StatsWindow::kMeasuredOnly);
}

}  // namespace
}  // namespace pod
