// warm() promises the state updates of a timed submit() with the timing
// dropped: prepare() and warm() run the same process_write/process_read.
// For every engine, one seeded trace replayed warm-only and the same trace
// submitted at its arrival times must leave equal state digests. Two
// engines read the clock, and their exact difference is pinned here
// (DESIGN.md, "Warm-up and timed replay"): POD repartitions on sim-time
// epochs, which never fall while warm-up sits at time 0, and post-process
// scrubs only after begin_measured().
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "engine_test_util.hpp"
#include "synth/generator.hpp"

namespace pod {
namespace {

struct Replica {
  explicit Replica(const RunSpec& spec)
      : volume(make_volume(sim, spec)), engine(make_engine(sim, *volume, spec)) {}
  Simulator sim;
  std::unique_ptr<Volume> volume;
  std::unique_ptr<DedupEngine> engine;
};

/// Every request of the trace is replayed the same way (no warm-up split).
Trace digest_trace() {
  WorkloadProfile p = tiny_test_profile();
  p.seed = 4242;
  p.warmup_requests = 0;
  p.measured_requests = 1200;
  p.volume_blocks = 8 * 1024;
  return TraceGenerator(p).generate();
}

SimTime span_of(const Trace& t) {
  return t.requests.back().arrival - t.requests.front().arrival;
}

RunSpec spec_for(EngineKind kind, Duration epoch) {
  RunSpec spec;
  spec.engine = kind;
  spec.engine_cfg = testutil::small_engine_config();
  spec.engine_cfg.logical_blocks = 8 * 1024;
  spec.engine_cfg.memory_bytes = 128 * kKiB;
  spec.pod.icache.interval = epoch;
  spec.post_process.scan_interval = epoch;
  spec.post_process.blocks_per_pass = 256;
  return spec;
}

/// Timed: each request submitted when the clock reaches its (rebased)
/// arrival, every event before it run first. `repartitions`, when given,
/// receives how often iCache moved memory.
std::uint64_t timed_digest(const RunSpec& spec, const Trace& t, bool measured,
                           std::uint64_t* repartitions = nullptr) {
  Replica r(spec);
  if (measured) r.engine->begin_measured();
  const SimTime t0 = t.requests.front().arrival;
  for (const IoRequest& req : t.requests) {
    const SimTime arrival = req.arrival - t0;
    while (!r.sim.idle() && r.sim.next_event_time() <= arrival) r.sim.step();
    r.sim.advance_to(arrival);
    r.engine->submit(req, [](IoStatus) {});
  }
  r.sim.run();
  if (repartitions != nullptr) {
    const ICacheStats& ic = r.engine->adaptive_cache()->stats();
    *repartitions = ic.grew_index + ic.grew_read;
  }
  return r.engine->state_digest();
}

/// Warm-only. `clocked` moves the (otherwise idle) simulator clock to each
/// arrival first, so the policy sees the times a timed replay gives it.
std::uint64_t warm_digest(const RunSpec& spec, const Trace& t, bool measured,
                          bool clocked) {
  Replica r(spec);
  if (measured) r.engine->begin_measured();
  const SimTime t0 = t.requests.front().arrival;
  for (const IoRequest& req : t.requests) {
    if (clocked) r.sim.advance_to(req.arrival - t0);
    r.engine->warm(req);
  }
  EXPECT_TRUE(r.sim.idle());  // warm() never schedules anything
  return r.engine->state_digest();
}

class WarmTimedDigest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(WarmTimedDigest, WarmOnlyMatchesTimedReplay) {
  const Trace t = digest_trace();
  // Epochs longer than the trace: POD never repartitions and post-process
  // never scrubs (it is not in its measured phase anyway).
  const RunSpec spec = spec_for(GetParam(), 2 * span_of(t));
  EXPECT_EQ(warm_digest(spec, t, /*measured=*/false, /*clocked=*/false),
            timed_digest(spec, t, /*measured=*/false));
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, WarmTimedDigest,
    ::testing::Values(EngineKind::kNative, EngineKind::kFullDedupe,
                      EngineKind::kIDedup, EngineKind::kSelectDedupe,
                      EngineKind::kPod, EngineKind::kIoDedup,
                      EngineKind::kPostProcess),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      std::string name = to_string(info.param);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(WarmTimedDigestDifference, PodDiffersOnlyByItsEpochClock) {
  const Trace t = digest_trace();
  RunSpec spec = spec_for(EngineKind::kPod, span_of(t) / 50);
  spec.pod.icache.step_fraction = 0.1;
  std::uint64_t repartitions = 0;
  const std::uint64_t timed =
      timed_digest(spec, t, /*measured=*/false, &repartitions);
  ASSERT_GT(repartitions, 0u);
  // Warm-up at time 0 never reaches an epoch boundary, so the memory split
  // never moves …
  EXPECT_NE(warm_digest(spec, t, false, /*clocked=*/false), timed);
  // … and that clock is the whole difference.
  EXPECT_EQ(warm_digest(spec, t, false, /*clocked=*/true), timed);
}

TEST(WarmTimedDigestDifference, PostProcessDiffersOnlyByItsMeasuredPhase) {
  const Trace t = digest_trace();
  const RunSpec spec = spec_for(EngineKind::kPostProcess, span_of(t) / 10);
  const std::uint64_t timed = timed_digest(spec, t, /*measured=*/true);
  // The scrubber runs only after begin_measured(), which warm-up precedes …
  EXPECT_NE(warm_digest(spec, t, /*measured=*/false, /*clocked=*/true), timed);
  // … and given it and the clock, warm() scrubs exactly as submit() does.
  EXPECT_EQ(warm_digest(spec, t, /*measured=*/true, /*clocked=*/true), timed);
}

}  // namespace
}  // namespace pod
