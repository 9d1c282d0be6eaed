// Figure 10: normalized storage capacity used by the different schemes.
//
// Paper shape: Full-Dedupe uses the least capacity; Select-Dedupe achieves
// comparable or better savings than iDedup (clearest on mail, where small
// dup writes add up); Native = 100.
#include <cstdio>

#include "util/bench_util.hpp"

int main() {
  using namespace pod;
  using namespace pod::bench;

  const double scale = scale_from_env();
  const std::vector<WorkloadProfile> profiles = selected_profiles(scale);
  prefetch_traces(profiles);
  print_header("Figure 10 — normalized storage capacity used (Native = 100)",
               "distinct live physical blocks at the end of the replay; "
               "scale=" + std::to_string(scale));

  std::printf("%-10s", "Trace");
  for (EngineKind k : figure8_engines()) std::printf(" %14s", to_string(k));
  std::printf("\n");

  const auto per_trace = run_figure(figure8_engines(), profiles, scale);
  for (std::size_t t = 0; t < profiles.size(); ++t) {
    const WorkloadProfile& profile = profiles[t];
    const auto& results = per_trace[t];
    const double native =
        static_cast<double>(results.at(EngineKind::kNative).physical_blocks_used);
    std::printf("%-10s", profile.name.c_str());
    for (EngineKind k : figure8_engines()) {
      std::printf(" %13.1f%%",
                  normalized_pct(
                      static_cast<double>(results.at(k).physical_blocks_used),
                      native));
    }
    std::printf("\n");
  }
  std::printf("\npaper shape: full-dedupe < select-dedupe <= idedup < native "
              "= 100%%\n");
  return 0;
}
