// Latency-anatomy acceptance tests (see DESIGN.md "Latency anatomy"):
//   * exact sum invariant — per engine, the per-request component vector
//     sums exactly to the recorded latency (collector-counted mismatches,
//     so the check holds in NDEBUG builds where POD_DCHECK compiles out),
//     with faults on and off and under degraded RAID;
//   * zero-overhead contract — replay output is byte-identical with
//     attribution on or off;
//   * per-stream accounting reconciles with the global engine counters;
//   * the tail ring retains the K slowest requests, sorted, decomposed.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "replay/replayer.hpp"
#include "synth/generator.hpp"

namespace pod {
namespace {

Trace small_trace() {
  WorkloadProfile p = tiny_test_profile();
  p.warmup_requests = 1500;
  p.measured_requests = 2500;
  return TraceGenerator(p).generate();
}

RunSpec base_spec(EngineKind kind) {
  RunSpec spec;
  spec.engine = kind;
  spec.raid = RaidLevel::kRaid5;
  spec.engine_cfg.logical_blocks = tiny_test_profile().volume_blocks;
  spec.engine_cfg.memory_bytes = 2 * kMiB;
  return spec;
}

/// `spec` with latency attribution on and a `tail_k`-entry tail ring.
RunSpec attributed(RunSpec spec, std::size_t tail_k = 64) {
  spec.anatomy = LatencyAnatomy::Config{tail_k};
  return spec;
}

Duration comp_total(const AnatomyResult& a, LatComp c) {
  return a.total[static_cast<std::size_t>(c)];
}

/// The invariants every attributed run must satisfy, regardless of engine,
/// fault, or RAID state.
void expect_anatomy_invariants(const ReplayResult& r) {
  const AnatomyResult& a = r.anatomy;
  ASSERT_TRUE(a.enabled);
  // The exact integer sum invariant: components summed to the recorded
  // latency on EVERY completion (checked at the site; mismatches counted).
  EXPECT_EQ(a.sum_mismatches, 0u);
  EXPECT_EQ(a.requests, r.all.count());
  for (const LatencyRecorder& rec : a.comp) EXPECT_EQ(rec.count(), a.requests);
  // Totals reconcile with the replayer's own latency recorder (stats().sum()
  // is a Welford product, so allow float rounding — the exact check is
  // sum_mismatches above).
  const double lat_sum = r.all.stats().sum();
  EXPECT_NEAR(static_cast<double>(a.total_all()), lat_sum,
              lat_sum * 1e-9 + 1.0);

  // Per-stream totals reconcile with the global measured counters.
  std::uint64_t reads = 0, writes = 0, failed = 0, hits = 0, samples = 0;
  for (const AnatomyResult::StreamStats& s : a.streams) {
    reads += s.reads;
    writes += s.writes;
    failed += s.failed_requests;
    hits += s.dedup_hits;
    samples += s.latency.count();
  }
  EXPECT_EQ(reads, r.measured.read_requests);
  EXPECT_EQ(writes, r.measured.write_requests);
  EXPECT_EQ(failed, r.measured.failed_requests);
  EXPECT_EQ(hits, r.measured.chunks_deduped);
  EXPECT_EQ(samples, a.requests);
}

TEST(Anatomy, DisabledByDefault) {
  const ReplayResult r =
      run_replay(base_spec(EngineKind::kNative), small_trace());
  EXPECT_FALSE(r.anatomy.enabled);
  EXPECT_EQ(r.anatomy.requests, 0u);
}

TEST(Anatomy, SumInvariantPerEngine) {
  const Trace trace = small_trace();
  const std::vector<EngineKind> kinds = {
      EngineKind::kNative,       EngineKind::kFullDedupe,
      EngineKind::kIDedup,       EngineKind::kSelectDedupe,
      EngineKind::kPod,          EngineKind::kIoDedup,
      EngineKind::kPostProcess};
  for (EngineKind kind : kinds) {
    SCOPED_TRACE(to_string(kind));
    const ReplayResult r = run_replay(attributed(base_spec(kind)), trace);
    expect_anatomy_invariants(r);
    // No faults injected: nothing may be charged to the fault ladder or to
    // reconstruction.
    EXPECT_EQ(comp_total(r.anatomy, LatComp::kFaultRetry), 0);
    EXPECT_EQ(comp_total(r.anatomy, LatComp::kRaidReconstruct), 0);
    EXPECT_GT(comp_total(r.anatomy, LatComp::kTransfer), 0);
  }
}

TEST(Anatomy, SumInvariantWithFaultRetries) {
  const Trace trace = small_trace();
  RunSpec spec = attributed(base_spec(EngineKind::kSelectDedupe));
  spec.array_cfg.fault.enabled = true;
  spec.array_cfg.fault.seed = 99;
  spec.array_cfg.fault.transient_rate = 0.05;
  const ReplayResult r = run_replay(spec, trace);
  expect_anatomy_invariants(r);
  EXPECT_GT(r.fault.injected.transient_retries, 0u);
  // Retry backoff now shows up as attributed fault time.
  EXPECT_GT(comp_total(r.anatomy, LatComp::kFaultRetry), 0);
}

TEST(Anatomy, SumInvariantDegradedRaid) {
  const Trace trace = small_trace();
  // Baseline run to size fail_at mid-replay.
  const ReplayResult clean =
      run_replay(attributed(base_spec(EngineKind::kNative)), trace);
  expect_anatomy_invariants(clean);

  RunSpec spec = attributed(base_spec(EngineKind::kNative));
  spec.array_cfg.fault.enabled = true;
  spec.array_cfg.fault.fail_disk = 1;
  spec.array_cfg.fault.fail_at = clean.makespan / 4;
  spec.array_cfg.fault.auto_rebuild = false;  // stay degraded to the end
  const ReplayResult degraded = run_replay(spec, trace);
  expect_anatomy_invariants(degraded);
  EXPECT_GT(degraded.volume_counters.reconstruction_reads, 0u);
  EXPECT_GT(comp_total(degraded.anatomy, LatComp::kRaidReconstruct), 0);
}

TEST(Anatomy, ReplayByteIdenticalOnOrOff) {
  const Trace trace = small_trace();
  const std::vector<EngineKind> kinds = {EngineKind::kNative,
                                         EngineKind::kSelectDedupe,
                                         EngineKind::kPod};
  for (EngineKind kind : kinds) {
    SCOPED_TRACE(to_string(kind));
    const ReplayResult off = run_replay(base_spec(kind), trace);
    const ReplayResult with = run_replay(attributed(base_spec(kind)), trace);
    EXPECT_FALSE(off.anatomy.enabled);
    EXPECT_TRUE(with.anatomy.enabled);
    EXPECT_EQ(off.all.count(), with.all.count());
    EXPECT_EQ(off.all.stats().sum(), with.all.stats().sum());
    EXPECT_EQ(off.reads.stats().sum(), with.reads.stats().sum());
    EXPECT_EQ(off.writes.stats().sum(), with.writes.stats().sum());
    EXPECT_EQ(off.makespan, with.makespan);
    EXPECT_EQ(off.disk_reads, with.disk_reads);
    EXPECT_EQ(off.disk_writes, with.disk_writes);
    EXPECT_EQ(off.events_scheduled, with.events_scheduled);
    EXPECT_EQ(off.physical_blocks_used, with.physical_blocks_used);
  }
}

TEST(Anatomy, PerStreamAccountingSplitsByStreamId) {
  Trace trace = small_trace();
  // Tag the trace with three tenants round-robin.
  for (IoRequest& r : trace.requests)
    r.stream = static_cast<std::uint32_t>(r.id % 3);
  const ReplayResult r =
      run_replay(attributed(base_spec(EngineKind::kFullDedupe)), trace);
  expect_anatomy_invariants(r);
  ASSERT_EQ(r.anatomy.streams.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.anatomy.streams[i].stream, i);  // sorted by id
    EXPECT_GT(r.anatomy.streams[i].latency.count(), 0u);
  }
}

TEST(Anatomy, TailRingRetainsSlowestSorted) {
  const Trace trace = small_trace();
  const ReplayResult r =
      run_replay(attributed(base_spec(EngineKind::kNative), 4), trace);
  expect_anatomy_invariants(r);
  const AnatomyResult& a = r.anatomy;
  EXPECT_EQ(a.tail_k, 4u);
  ASSERT_EQ(a.tail.size(), 4u);
  // Slowest first, each entry's decomposition exact.
  EXPECT_EQ(static_cast<double>(a.tail.front().latency), r.all.stats().max());
  for (std::size_t i = 0; i < a.tail.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(a.tail[i - 1].latency, a.tail[i].latency);
    }
    EXPECT_EQ(a.tail[i].breakdown.total(), a.tail[i].latency);
  }
}

}  // namespace
}  // namespace pod
