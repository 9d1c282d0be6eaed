// The evaluation as data. Every paper table and figure is a `Figure`: the
// traces it scans, the replays it needs, and a render that prints its
// stdout from them. One driver runs any selection of figures.
#pragma once

#include <functional>
#include <vector>

#include "knobs.hpp"
#include "replay/replayer.hpp"
#include "synth/profile.hpp"
#include "trace/request.hpp"
#include "trace/trace_stats.hpp"

namespace pod::bench {

/// One replay a figure needs: a run spec over a workload's trace.
struct Run {
  WorkloadProfile profile;
  RunSpec spec;
};

/// What a render reads: the scans of the figure's traces and its runs'
/// results, each in the order the figure listed them. Both live only while
/// run_figures renders.
struct FigureData {
  std::vector<const TraceScan*> scans;
  std::vector<const ReplayResult*> results;
};

struct Figure {
  /// Traces whose scan (Table II, Figs. 1 and 2) the render reads.
  std::vector<WorkloadProfile> scans;
  std::vector<Run> runs;
  std::function<void(const FigureData&)> render;
};

/// Loads every trace the figures name once (keyed by its cache key: profile
/// name plus parameter hash), runs each distinct replay once (keyed by its
/// trace plus RunSpec equality, so figures asking for an equal run share
/// one result) in one longest-first fan-out over `knobs.jobs` workers,
/// appends one POD_BENCH_JSON line per replay in run-list order, scans each
/// distinct scanned trace once (measured window), then renders the figures
/// in the order given.
void run_figures(const std::vector<Figure>& figures, const Knobs& knobs);

}  // namespace pod::bench
