// Shared machinery for the experiment benches (one binary per paper
// table/figure; see DESIGN.md's experiment index).
//
// Environment knobs:
//   POD_SCALE  — trace scale factor in (0,1]; default 0.25. Scale 1.0
//                reproduces the paper's full day-15 request counts.
//                Malformed values abort the bench rather than silently
//                running at a default scale.
//   POD_TRACE  — restrict to one workload ("web-vm", "homes", "mail").
//   POD_JOBS   — parallel replay jobs per figure; default = hardware
//                concurrency. Per-run results are byte-identical to serial
//                (each run owns its simulator); only wall-clock changes.
//   POD_TRACE_CACHE — directory for the persistent trace cache; when set,
//                generated traces are stored there in binary PODTRC form
//                and later runs bulk-load them instead of regenerating.
//   POD_BENCH_JSON  — file to append per-run replay counters to, one JSON
//                object per line (mean latency, events scheduled, peak
//                event-heap depth, peak RSS, plus host execution context
//                (hardware threads, active SIMD tier),
//                per-disk breakdowns, RAID5 parity write modes, iCache
//                adaptation state, and — when telemetry is on — the
//                metrics-registry snapshot; when latency anatomy is on,
//                an "anatomy" object with per-component latency
//                distributions, per-stream accounting, and the tail ring).
//   POD_TRACE_EVENTS / POD_TELEMETRY_CSV / POD_TELEMETRY_INTERVAL_MS /
//   POD_TRACE_LIMIT — sim-time telemetry sinks; see
//                src/telemetry/telemetry.hpp.
//   POD_ANATOMY / POD_TAIL_ANATOMY / POD_ANATOMY_BUCKETS — per-request
//                latency attribution; see src/replay/anatomy.hpp.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "replay/parallel_runner.hpp"
#include "replay/replayer.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"

namespace pod::bench {

/// Scale factor from POD_SCALE (default 0.25).
double scale_from_env();

/// Paper workloads honouring POD_TRACE.
std::vector<WorkloadProfile> selected_profiles(double scale);

/// Returns the trace for a profile: per-process memo first, then the
/// persistent POD_TRACE_CACHE, then generation. Thread-safe — concurrent
/// callers of the same profile block on one generation instead of
/// duplicating it.
const Trace& trace_for(const WorkloadProfile& profile);

/// Warms the per-process memo for every profile, generating uncached
/// traces in parallel on bench_jobs() workers. Call once at bench startup
/// so per-figure loops hit only memoised traces.
void prefetch_traces(const std::vector<WorkloadProfile>& profiles);

/// The evaluation engine set of Figures 8-10 (no POD: the paper's §IV-B
/// compares the fixed-partition schemes first).
std::vector<EngineKind> figure8_engines();

/// Figure 11's engine set (adds POD).
std::vector<EngineKind> figure11_engines();

/// Builds the standard 4-disk RAID5 / 64 KB stripe run spec of §IV-B with
/// the paper's per-trace memory budget.
RunSpec paper_spec(EngineKind engine, const WorkloadProfile& profile,
                   double scale);

/// Parallel job count from POD_JOBS (default: hardware concurrency),
/// capped at hardware concurrency — oversubscribing CPU-bound replays
/// only adds scheduling overhead.
std::size_t bench_jobs();

/// Runs every engine over every profile's trace as one fan-out across
/// bench_jobs() workers: no barrier between traces, so the longest run
/// starts first and short ones fill the other workers. Returns one
/// engine-keyed result map per profile, in profile order, and appends each
/// to POD_BENCH_JSON in that order.
std::vector<std::map<EngineKind, ReplayResult>> run_figure(
    const std::vector<EngineKind>& engines,
    const std::vector<WorkloadProfile>& profiles, double scale);

/// Appends one JSON line per run to POD_BENCH_JSON (no-op when unset).
void emit_replay_counters_json(
    const std::map<EngineKind, ReplayResult>& results);

/// Prints the per-engine latency-component breakdown and — when
/// POD_TAIL_ANATOMY is set — the tail-anatomy table (slowest requests with
/// their full decompositions). No-op when attribution was off.
void print_anatomy_tables(const std::string& trace_name,
                          const std::map<EngineKind, ReplayResult>& results);

/// Table formatting helpers.
void print_header(const std::string& title, const std::string& what);
void print_row(const std::string& label, const std::vector<double>& values,
               const char* unit);

}  // namespace pod::bench
