// The lookup-side hot paths must be observationally identical across both
// probe modes: scalar (the retained per-chunk reference loop) and fused
// (the single-pass lookup_fused / tagged-API default) — same latencies,
// same dedup decisions, same disk traffic for every engine.
// EngineConfig::scalar_probes exists precisely to keep this comparison
// compilable and cheap to run.
#include <gtest/gtest.h>

#include "replay/replayer.hpp"
#include "synth/generator.hpp"

namespace pod {
namespace {

Trace small_trace(std::size_t measured = 2000) {
  WorkloadProfile p = tiny_test_profile();
  p.warmup_requests = 1000;
  p.measured_requests = measured;
  return TraceGenerator(p).generate();
}

RunSpec spec_for(EngineKind kind, bool scalar_probes) {
  RunSpec spec;
  spec.engine = kind;
  spec.engine_cfg.logical_blocks = tiny_test_profile().volume_blocks;
  spec.engine_cfg.memory_bytes = 2 * kMiB;
  spec.engine_cfg.scalar_probes = scalar_probes;
  return spec;
}

const std::vector<EngineKind> kAllEngines = {
    EngineKind::kNative,       EngineKind::kFullDedupe,
    EngineKind::kIDedup,       EngineKind::kSelectDedupe,
    EngineKind::kPod,          EngineKind::kIoDedup,
    EngineKind::kPostProcess,
};

// Engines that route write probes through IndexCache::lookup_fused.
// Full-Dedupe interleaves inserts with lookups (on-disk hits promote into
// the cache mid-request) and so keeps its sequential loop; Native and
// IO-Dedup have no fingerprint index cache at all.
bool runs_fused_lookup(EngineKind kind) {
  return kind == EngineKind::kIDedup || kind == EngineKind::kSelectDedupe ||
         kind == EngineKind::kPod;
}

TEST(BatchEquivalence, FusedAndScalarProbeModesMatchForEveryEngine) {
  const Trace t = small_trace();
  for (EngineKind kind : kAllEngines) {
    SCOPED_TRACE(to_string(kind));
    const ReplayResult s = run_replay(spec_for(kind, true), t);
    const ReplayResult f = run_replay(spec_for(kind, false), t);

    EXPECT_EQ(f.all.count(), s.all.count());
    EXPECT_DOUBLE_EQ(f.mean_ms(), s.mean_ms());
    EXPECT_DOUBLE_EQ(f.read_mean_ms(), s.read_mean_ms());
    EXPECT_DOUBLE_EQ(f.write_mean_ms(), s.write_mean_ms());
    EXPECT_DOUBLE_EQ(f.all.percentile_ms(0.99), s.all.percentile_ms(0.99));
    EXPECT_EQ(f.makespan, s.makespan);
    EXPECT_EQ(f.physical_blocks_used, s.physical_blocks_used);
    EXPECT_EQ(f.measured.writes_eliminated, s.measured.writes_eliminated);
    EXPECT_EQ(f.measured.chunks_deduped, s.measured.chunks_deduped);
    EXPECT_EQ(f.measured.chunks_written, s.measured.chunks_written);
    EXPECT_EQ(f.disk_reads, s.disk_reads);
    EXPECT_EQ(f.disk_writes, s.disk_writes);
    EXPECT_DOUBLE_EQ(f.index_cache_hit_rate, s.index_cache_hit_rate);
    EXPECT_DOUBLE_EQ(f.read_cache_hit_rate, s.read_cache_hit_rate);

    // The scalar switch must actually route around the span probes…
    EXPECT_EQ(s.batch_probes, 0u);
    // …and the fused mode must actually exercise them where they apply.
    if (runs_fused_lookup(kind)) EXPECT_GT(f.batch_probes, 0u);
    else EXPECT_EQ(f.batch_probes, 0u);
  }
}

TEST(BatchEquivalence, ScratchBytesAreBoundedByRequestShapeNotTraceLength) {
  // The per-engine WriteScratch arena must stop growing once it has seen
  // the largest request: doubling the number of measured requests (same
  // request-size distribution) may not change its final footprint. This is
  // the zero-steady-state-allocation tripwire in miniature.
  const Trace short_t = small_trace(2000);
  const Trace long_t = small_trace(4000);
  for (EngineKind kind : kAllEngines) {
    SCOPED_TRACE(to_string(kind));
    const ReplayResult a = run_replay(spec_for(kind, false), short_t);
    const ReplayResult b = run_replay(spec_for(kind, false), long_t);
    EXPECT_GT(a.scratch_bytes, 0u);
    EXPECT_EQ(a.scratch_bytes, b.scratch_bytes);
  }
}

}  // namespace
}  // namespace pod
