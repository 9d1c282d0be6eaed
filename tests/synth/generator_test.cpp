#include "synth/generator.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "trace/trace_stats.hpp"

namespace pod {
namespace {

WorkloadProfile bigger_tiny() {
  WorkloadProfile p = tiny_test_profile();
  p.measured_requests = 20'000;
  p.warmup_requests = 20'000;
  return p;
}

TEST(Generator, ProducesRequestedCounts) {
  WorkloadProfile p = tiny_test_profile();
  const Trace t = TraceGenerator(p).generate();
  EXPECT_EQ(t.requests.size(), p.warmup_requests + p.measured_requests);
  EXPECT_EQ(t.warmup_count, p.warmup_requests);
  EXPECT_EQ(t.name, p.name);
}

TEST(Generator, DeterministicForSeed) {
  WorkloadProfile p = tiny_test_profile();
  const Trace a = TraceGenerator(p).generate();
  const Trace b = TraceGenerator(p).generate();
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].arrival, b.requests[i].arrival);
    EXPECT_EQ(a.requests[i].lba, b.requests[i].lba);
    EXPECT_EQ(a.requests[i].type, b.requests[i].type);
    EXPECT_TRUE(same_chunks(a.requests[i].chunks, b.requests[i].chunks));
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  WorkloadProfile p = tiny_test_profile();
  const Trace a = TraceGenerator(p).generate();
  p.seed += 1;
  const Trace b = TraceGenerator(p).generate();
  int diffs = 0;
  for (std::size_t i = 0; i < std::min(a.requests.size(), b.requests.size()); ++i)
    if (a.requests[i].lba != b.requests[i].lba) ++diffs;
  EXPECT_GT(diffs, 100);
}

TEST(Generator, ArrivalsMonotonic) {
  const Trace t = TraceGenerator(tiny_test_profile()).generate();
  for (std::size_t i = 1; i < t.requests.size(); ++i)
    EXPECT_GE(t.requests[i].arrival, t.requests[i - 1].arrival);
}

TEST(Generator, WritesCarryFingerprintsReadsDoNot) {
  const Trace t = TraceGenerator(tiny_test_profile()).generate();
  for (const IoRequest& r : t.requests) {
    if (r.is_write()) {
      EXPECT_EQ(r.chunks.size(), r.nblocks);
    } else {
      EXPECT_TRUE(r.chunks.empty());
    }
  }
}

TEST(Generator, RequestsWithinVolume) {
  WorkloadProfile p = tiny_test_profile();
  const Trace t = TraceGenerator(p).generate();
  for (const IoRequest& r : t.requests)
    EXPECT_LE(r.end_lba(), p.volume_blocks) << "req " << r.id;
}

TEST(Generator, WriteRatioApproximatesProfile) {
  WorkloadProfile p = bigger_tiny();
  const Trace t = TraceGenerator(p).generate();
  const auto c = scan_trace(t, StatsWindow::kAll).characteristics;
  EXPECT_NEAR(c.write_ratio, p.write_ratio, 0.05);
}

TEST(Generator, RedundancyMatchesMixRoughly) {
  WorkloadProfile p = bigger_tiny();
  const Trace t = TraceGenerator(p).generate();
  const auto r = scan_trace(t, StatsWindow::kAll).by_size;
  const double full_frac = static_cast<double>(r.fully_redundant.total()) /
                           static_cast<double>(r.total.total());
  // full_dup_seq + full_dup_scatter drive fully redundant writes (scatter
  // chunks repeat pool content, so nearly all become redundant over time).
  EXPECT_NEAR(full_frac, p.mix.full_dup_seq + p.mix.full_dup_scatter, 0.12);
}

TEST(Generator, SameLbaOverwritesHappen) {
  WorkloadProfile p = bigger_tiny();
  const Trace t = TraceGenerator(p).generate();
  const auto b = scan_trace(t, StatsWindow::kAll).breakdown;
  EXPECT_GT(b.same_lba_redundant_blocks, 0u);
  EXPECT_GT(b.io_redundancy_pct(), b.capacity_redundancy_pct());
}

TEST(Generator, ReadsTargetWrittenData) {
  WorkloadProfile p = bigger_tiny();
  const Trace t = TraceGenerator(p).generate();
  std::unordered_set<Lba> written;
  std::uint64_t read_blocks = 0, read_hits_written = 0;
  for (const IoRequest& r : t.requests) {
    if (r.is_write()) {
      for (std::uint32_t b = 0; b < r.nblocks; ++b) written.insert(r.lba + b);
    } else {
      for (std::uint32_t b = 0; b < r.nblocks; ++b) {
        ++read_blocks;
        if (written.count(r.lba + b)) ++read_hits_written;
      }
    }
  }
  ASSERT_GT(read_blocks, 0u);
  // Locality reads always target written extents; cold reads (25%) sample
  // uniformly over the touched region and may land in never-written holes.
  EXPECT_GT(static_cast<double>(read_hits_written) /
                static_cast<double>(read_blocks),
            0.7);
}

TEST(Generator, SmallWritesCarryMostRedundancy) {
  // The Figure-1 shape: 4-8 KB buckets hold the bulk of fully redundant
  // writes for the web-vm-like profile.
  WorkloadProfile p = bigger_tiny();
  const Trace t = TraceGenerator(p).generate();
  const auto r = scan_trace(t, StatsWindow::kAll).by_size;
  const std::uint64_t small =
      r.fully_redundant.count(0) + r.fully_redundant.count(1);
  EXPECT_GT(small, r.fully_redundant.total() / 2);
}

TEST(Generator, PaperTraceByName) {
  const Trace t = generate_paper_trace("web-vm", 0.02);
  EXPECT_EQ(t.name, "web-vm");
  EXPECT_GT(t.requests.size(), 1000u);
}

TEST(GeneratorDeathTest, UnknownPaperTraceAborts) {
  EXPECT_DEATH((void)generate_paper_trace("nope", 0.1), "POD_CHECK");
}

}  // namespace
}  // namespace pod
