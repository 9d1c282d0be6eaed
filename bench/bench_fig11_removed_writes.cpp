// Figure 11: percentage of write requests removed from the Native system
// by Full-Dedupe, iDedup, Select-Dedupe, and POD (4-disk RAID5).
//
// Paper shape: Full-Dedupe removes the most (it eliminates every fully
// redundant request); iDedup removes the fewest (large-write-only); POD
// removes at least as many as Select-Dedupe (iCache enlarges the index
// cache during write-intensive periods). Select-Dedupe mail ~= 70%.
#include <cstdio>

#include "util/bench_util.hpp"

int main() {
  using namespace pod;
  using namespace pod::bench;

  const double scale = scale_from_env();
  const std::vector<WorkloadProfile> profiles = selected_profiles(scale);
  prefetch_traces(profiles);
  print_header("Figure 11 — % of write requests removed",
               "4-disk RAID5; scale=" + std::to_string(scale));

  std::printf("%-10s", "Trace");
  for (EngineKind k : figure11_engines()) std::printf(" %14s", to_string(k));
  std::printf("\n");

  const auto per_trace = run_figure(figure11_engines(), profiles, scale);
  for (std::size_t t = 0; t < profiles.size(); ++t) {
    const WorkloadProfile& profile = profiles[t];
    const auto& results = per_trace[t];
    std::printf("%-10s", profile.name.c_str());
    for (EngineKind k : figure11_engines())
      std::printf(" %13.1f%%", results.at(k).measured.removed_write_pct());
    std::printf("\n");
  }
  std::printf("\npaper shape: full > pod >= select >> idedup; native = 0. "
              "Select-Dedupe removes 70.7%% of mail writes.\n");
  return 0;
}
