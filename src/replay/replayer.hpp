// Trace replay: drives an engine with a Trace over the discrete-event
// simulator and collects per-class response times (paper §IV-A: traces are
// "replayed at the block level", evaluating "user response times").
#pragma once

#include <cstddef>
#include <memory>
#include <optional>

#include "engines/engine.hpp"
#include "engines/pod_engine.hpp"
#include "engines/post_process.hpp"
#include "raid/volume.hpp"
#include "replay/anatomy.hpp"
#include "replay/metrics.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/request.hpp"

namespace pod {

/// Which thread runs a replay's discrete-event simulation.
enum class DesThread {
  /// One thread: each admission runs DedupEngine::prepare, then execute.
  kInline,
  /// The DES (admission, DedupEngine::execute, Simulator::step) runs on one
  /// helper thread, while the calling thread runs DedupEngine::prepare for
  /// every measured request in trace order, ahead of the clock, and hands
  /// the prepared requests over a bounded ring. Falls back to kInline when
  /// the engine cannot prepare ahead (DedupEngine::can_prepare_ahead).
  /// Results are identical to kInline.
  kHelper,
};

/// The helper rule: with `jobs` replays running at once, each takes a
/// helper thread when the host has two hardware threads per replay.
DesThread des_thread_for_jobs(std::size_t jobs);

class Replayer {
 public:
  /// Prepared requests the ring holds in a pipelined replay (tests pass
  /// smaller rings to reach its full and empty ends often).
  static constexpr std::size_t kRingSlots = 1024;

  explicit Replayer(DesThread des = DesThread::kInline,
                    std::size_t ring_slots = kRingSlots)
      : des_(des), ring_slots_(ring_slots) {}

  /// Replays `trace` against `engine`:
  ///  1. the warm-up prefix runs functionally (state only, no timing) —
  ///     the paper's "cache ... warmed up by the first 14 days";
  ///  2. the measured suffix runs on the simulator at original (rebased)
  ///     arrival times; response time = completion - arrival.
  /// Measured arrivals stream in: each is admitted the moment simulated
  /// time reaches it (its time is <= the earliest pending event, ties to
  /// the arrival), so the event heap holds only in-flight I/O, never the
  /// trace. That is the (time, seq) order a heap with every arrival
  /// scheduled up front would produce; the tests keep that prescheduled
  /// replay as the oracle.
  ReplayResult replay(Simulator& sim, DedupEngine& engine, const Trace& trace);

 private:
  DesThread des_;
  std::size_t ring_slots_;
};

/// Which engine to build for a run.
enum class EngineKind {
  kNative,
  kFullDedupe,
  kIDedup,
  kSelectDedupe,
  kPod,
  kIoDedup,
  kPostProcess,
};

const char* to_string(EngineKind kind);

enum class RaidLevel { kRaid0, kRaid5 };

/// Everything needed for one experiment run.
struct RunSpec {
  EngineKind engine = EngineKind::kNative;
  RaidLevel raid = RaidLevel::kRaid5;
  EngineConfig engine_cfg;
  ArrayConfig array_cfg;  // disk_geometry.total_blocks is sized automatically
  PodEngineOptions pod;
  PostProcessOptions post_process;
  /// Sim-time telemetry sinks; off unless a path is set. Observation only:
  /// simulated results are the same either way.
  TelemetryConfig telemetry;
  /// Latency attribution (LatencyAnatomy); off when empty. Observation
  /// only, like telemetry.
  std::optional<LatencyAnatomy::Config> anatomy;

  /// Member-wise: two specs are equal iff every nested config field is,
  /// so a run list can key replays on the whole spec.
  bool operator==(const RunSpec&) const = default;
};

/// Builds the volume for a spec (disk sizes derived from the engine's
/// required capacity).
std::unique_ptr<Volume> make_volume(Simulator& sim, const RunSpec& spec);

/// Builds the engine for a spec.
std::unique_ptr<DedupEngine> make_engine(Simulator& sim, Volume& volume,
                                         const RunSpec& spec);

/// One-stop: fresh simulator + volume + engine (with the spec's telemetry
/// and anatomy attached), replay, return results. By default the DES takes
/// a helper thread when the host has two hardware threads
/// (des_thread_for_jobs(1)).
ReplayResult run_replay(const RunSpec& spec, const Trace& trace,
                        DesThread des = des_thread_for_jobs(1));

}  // namespace pod
