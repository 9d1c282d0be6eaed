// Shared machinery for the experiment benches: the paper run spec, the
// environment knobs and the result printers. The figures themselves are
// data (bench/paper/); bench/util/run_list.hpp runs them.
//
// Environment knobs:
//   POD_SCALE  — trace scale factor in (0,1]; default 0.25. Scale 1.0
//                reproduces the paper's full day-15 request counts.
//                Malformed values abort the bench rather than silently
//                running at a default scale.
//   POD_TRACE  — restrict to one workload ("web-vm", "homes", "mail");
//                any other name aborts the bench. Only the figures built
//                over PaperSetup::profiles follow it (Figs. 1, 2, 8-11,
//                Table II, the overhead analysis); Fig. 3, Table I and the
//                seven ablations keep their fixed traces.
//   POD_JOBS   — parallel replay jobs; default = hardware concurrency.
//                Per-run results are byte-identical to serial (each run
//                owns its simulator); only wall-clock changes. A
//                malformed value exits with status 2.
//   POD_TRACE_CACHE — directory for the persistent trace cache; when set,
//                generated traces are stored there in binary PODTRC form
//                and later runs bulk-load them instead of regenerating.
//   POD_BENCH_JSON  — file to append per-run replay counters to, one JSON
//                object per line (mean latency, events scheduled, peak
//                event-heap depth, peak RSS, plus host execution context
//                (hardware threads, whether the DES had a helper thread,
//                and each replay phase's wall and thread-CPU seconds),
//                per-disk breakdowns, RAID5 parity
//                write modes, iCache adaptation state, and — when
//                telemetry is on — the metrics-registry snapshot; when
//                latency anatomy is on, an "anatomy" object with
//                per-component latency distributions, per-stream
//                accounting, and the tail ring).
//   POD_TRACE_EVENTS / POD_TELEMETRY_CSV / POD_TELEMETRY_INTERVAL_MS /
//   POD_TRACE_LIMIT — sim-time telemetry sinks; see
//                src/telemetry/telemetry.hpp.
//   POD_ANATOMY / POD_TAIL_ANATOMY — per-request latency attribution;
//                see src/replay/anatomy.hpp.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "replay/replayer.hpp"
#include "synth/profile.hpp"

namespace pod::bench {

/// Scale factor from POD_SCALE (default 0.25).
double scale_from_env();

/// Paper workloads honouring POD_TRACE (the three traces, or the one it
/// names); an unknown name exits with status 2.
std::vector<WorkloadProfile> selected_profiles(double scale);

/// Builds the standard 4-disk RAID5 / 64 KB stripe run spec of §IV-B with
/// the paper's per-trace memory budget.
RunSpec paper_spec(EngineKind engine, const WorkloadProfile& profile,
                   double scale);

/// Parallel job count from POD_JOBS (default: hardware concurrency),
/// capped at hardware concurrency — oversubscribing CPU-bound replays
/// only adds scheduling overhead. Exits with status 2, naming the value,
/// when POD_JOBS is malformed.
std::size_t bench_jobs();

/// Prints a figure's title banner.
void print_header(const std::string& title, const std::string& what);

}  // namespace pod::bench
