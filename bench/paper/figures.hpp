// The paper's tables and figures as data, one builder each (DESIGN.md's
// experiment index). bench_paper renders every figure in the order of
// paper/main.cpp; each bench_<name> binary renders the figure <name> alone,
// with the same stdout.
#pragma once

#include <vector>

#include "util/bench_util.hpp"
#include "util/run_list.hpp"

namespace pod::bench {

/// What every builder reads: the knobs, parsed once, and the traces
/// POD_TRACE selects.
struct PaperSetup {
  explicit PaperSetup(const Knobs& k)
      : knobs(k),
        scale(k.scale),
        profiles(selected_profiles(k.scale, k.trace)) {}

  Knobs knobs;
  double scale;  // knobs.scale
  std::vector<WorkloadProfile> profiles;

  /// paper_spec plus what the knobs set on every run (fault injection,
  /// probe mode, telemetry, anatomy); a figure's own overrides come after.
  RunSpec spec(EngineKind engine, const WorkloadProfile& profile) const {
    RunSpec s = paper_spec(engine, profile, knobs.scale);
    knobs.apply(s);
    return s;
  }
};

// Trace characterisation (scans only).
Figure fig01_redundancy_by_size(const PaperSetup& setup);
Figure fig02_io_vs_capacity_redundancy(const PaperSetup& setup);
Figure table2_trace_characteristics(const PaperSetup& setup);

// Replayed figures.
Figure fig03_cache_partition_sweep(const PaperSetup& setup);
Figure fig08_overall_response_time(const PaperSetup& setup);
Figure fig09_read_write_split(const PaperSetup& setup);
Figure fig10_capacity(const PaperSetup& setup);
Figure fig11_removed_writes(const PaperSetup& setup);
Figure overhead_analysis(const PaperSetup& setup);
Figure table1_scheme_comparison(const PaperSetup& setup);

// Ablations of the design decisions DESIGN.md calls out.
Figure ablation_threshold(const PaperSetup& setup);
Figure ablation_idedup(const PaperSetup& setup);
Figure ablation_raid(const PaperSetup& setup);
Figure ablation_scheduler(const PaperSetup& setup);
Figure ablation_bloom(const PaperSetup& setup);
Figure ablation_icache(const PaperSetup& setup);
Figure ablation_degraded(const PaperSetup& setup);

}  // namespace pod::bench
