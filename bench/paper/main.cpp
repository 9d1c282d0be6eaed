// bench_paper: every paper table and figure from one run list, so each
// distinct replay runs once. Built with POD_BENCH_FIGURE=<builder>, the
// same driver becomes the one-figure binary bench_<builder>.
#include "paper/figures.hpp"

int main() {
  using namespace pod::bench;
  const Knobs knobs = knobs_from_env();
  const PaperSetup setup(knobs);
#ifdef POD_BENCH_FIGURE
  run_figures({POD_BENCH_FIGURE(setup)}, knobs);
#else
  // DESIGN.md's experiment-index order.
  run_figures({
      fig01_redundancy_by_size(setup),
      fig02_io_vs_capacity_redundancy(setup),
      fig03_cache_partition_sweep(setup),
      table2_trace_characteristics(setup),
      fig08_overall_response_time(setup),
      fig09_read_write_split(setup),
      fig10_capacity(setup),
      fig11_removed_writes(setup),
      overhead_analysis(setup),
      table1_scheme_comparison(setup),
      ablation_threshold(setup),
      ablation_idedup(setup),
      ablation_raid(setup),
      ablation_scheduler(setup),
      ablation_bloom(setup),
      ablation_icache(setup),
      ablation_degraded(setup),
  }, knobs);
#endif
  return 0;
}
