// Streaming admission must be observationally identical to pre-scheduling
// the whole trace (the oracle in prescheduled_replay.hpp): same latencies,
// same makespan, same engine and disk state for every engine. The two may
// only differ in host-side cost (heap depth, events pushed).
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "prescheduled_replay.hpp"
#include "replay/replayer.hpp"
#include "synth/generator.hpp"

namespace pod {
namespace {

Trace small_trace() {
  WorkloadProfile p = tiny_test_profile();
  p.measured_requests = 2000;
  p.warmup_requests = 1000;
  return TraceGenerator(p).generate();
}

RunSpec spec_for(EngineKind kind) {
  RunSpec spec;
  spec.engine = kind;
  spec.engine_cfg.logical_blocks = tiny_test_profile().volume_blocks;
  spec.engine_cfg.memory_bytes = 2 * kMiB;
  return spec;
}

const std::vector<EngineKind> kAllEngines = {
    EngineKind::kNative,       EngineKind::kFullDedupe,
    EngineKind::kIDedup,       EngineKind::kSelectDedupe,
    EngineKind::kPod,          EngineKind::kIoDedup,
};

TEST(StreamingAdmission, MatchesPrescheduledForEveryEngine) {
  const Trace t = small_trace();
  for (EngineKind kind : kAllEngines) {
    const ReplayResult s = run_replay(spec_for(kind), t);
    const ReplayResult p = prescheduled_replay(spec_for(kind), t);
    SCOPED_TRACE(to_string(kind));
    EXPECT_EQ(s.all.count(), p.all.count());
    EXPECT_DOUBLE_EQ(s.mean_ms(), p.mean_ms());
    EXPECT_DOUBLE_EQ(s.read_mean_ms(), p.read_mean_ms());
    EXPECT_DOUBLE_EQ(s.write_mean_ms(), p.write_mean_ms());
    EXPECT_DOUBLE_EQ(s.all.percentile_ms(0.99), p.all.percentile_ms(0.99));
    EXPECT_EQ(s.makespan, p.makespan);
    EXPECT_EQ(s.physical_blocks_used, p.physical_blocks_used);
    EXPECT_EQ(s.measured.writes_eliminated, p.measured.writes_eliminated);
    EXPECT_EQ(s.measured.chunks_deduped, p.measured.chunks_deduped);
    EXPECT_EQ(s.disk_reads, p.disk_reads);
    EXPECT_EQ(s.disk_writes, p.disk_writes);
  }
}

TEST(StreamingAdmission, KeepsEventHeapShallow) {
  const Trace t = small_trace();
  const ReplayResult s = run_replay(spec_for(EngineKind::kNative), t);
  const ReplayResult p = prescheduled_replay(spec_for(EngineKind::kNative), t);
  // Pre-scheduling puts every measured arrival on the heap up front (the
  // warm-up prefix replays functionally), so its peak is at least the
  // measured count; streaming keeps it at O(in-flight I/O).
  EXPECT_GE(p.peak_event_depth, t.measured_count());
  EXPECT_LT(s.peak_event_depth, t.measured_count() / 10);
  // Arrivals never touch the heap in streaming mode: one fewer push each.
  EXPECT_EQ(p.events_scheduled, s.events_scheduled + t.measured_count());
}

TEST(StreamingAdmission, DefaultModeIsStreaming) {
  // run_replay's default (a DES helper thread when the host has two
  // hardware threads) streams like the one-thread replay.
  const Trace t = small_trace();
  const ReplayResult def = run_replay(spec_for(EngineKind::kNative), t);
  const ReplayResult s =
      run_replay(spec_for(EngineKind::kNative), t, DesThread::kInline);
  EXPECT_LT(def.peak_event_depth, t.measured_count() / 10);
  EXPECT_EQ(def.events_scheduled, s.events_scheduled);
  EXPECT_EQ(def.peak_event_depth, s.peak_event_depth);
  EXPECT_DOUBLE_EQ(def.mean_ms(), s.mean_ms());
}

TEST(StreamingAdmission, RejectsUnorderedTrace) {
  WorkloadProfile p = tiny_test_profile();
  p.measured_requests = 100;
  p.warmup_requests = 0;
  Trace t = TraceGenerator(p).generate();
  ASSERT_GE(t.requests.size(), 10u);
  std::swap(t.requests[4].arrival, t.requests[5].arrival);
  if (t.requests[4].arrival == t.requests[5].arrival)
    t.requests[5].arrival = t.requests[4].arrival - 1;
  EXPECT_THROW(run_replay(spec_for(EngineKind::kNative), t),
               std::runtime_error);
}

}  // namespace
}  // namespace pod
