// Figure 8: response-time performance of the deduplication schemes
// normalized to the Native system, on a 4-disk RAID5 with 64 KB stripes,
// with equal index/read cache partitions for all dedup schemes.
//
// Paper numbers (normalized to Native = 100): Select-Dedupe improves
// Native by 53.9% (web-vm), 21.2% (homes), 88.6% (mail); iDedup improves
// only slightly; Full-Dedupe degrades homes.
#include <cstdio>

#include "util/bench_util.hpp"

int main() {
  using namespace pod;
  using namespace pod::bench;

  const double scale = scale_from_env();
  const std::vector<WorkloadProfile> profiles = selected_profiles(scale);
  prefetch_traces(profiles);
  print_header("Figure 8 — normalized overall response time (Native = 100)",
               "4-disk RAID5, 64 KB stripe unit, 50/50 cache split; scale=" +
                   std::to_string(scale));

  std::printf("%-10s", "Trace");
  for (EngineKind k : figure8_engines()) std::printf(" %14s", to_string(k));
  std::printf("   select-improv.\n");

  const auto per_trace = run_figure(figure8_engines(), profiles, scale);
  for (std::size_t t = 0; t < profiles.size(); ++t) {
    const WorkloadProfile& profile = profiles[t];
    const auto& results = per_trace[t];
    const double native = results.at(EngineKind::kNative).mean_ms();
    std::printf("%-10s", profile.name.c_str());
    for (EngineKind k : figure8_engines())
      std::printf(" %13.1f%%", normalized_pct(results.at(k).mean_ms(), native));
    std::printf("  %13.1f%%\n",
                improvement_pct(results.at(EngineKind::kSelectDedupe).mean_ms(),
                                native));

    // Degraded-mode recipe (POD_FAULT_* set): report what the injector did
    // and the dedup blast radius — damaged logical vs physical blocks shows
    // how sharing amplifies a single media error.
    if (results.begin()->second.fault.enabled) {
      std::printf("  fault summary (%s):\n", profile.name.c_str());
      std::printf("  %-14s %8s %8s %9s %11s %11s %9s %8s\n", "engine",
                  "media", "timeout", "failed-rq", "dmg-phys", "dmg-logical",
                  "recon-rd", "rebuilt");
      for (EngineKind k : figure8_engines()) {
        const ReplayResult& r = results.at(k);
        std::printf("  %-14s %8llu %8llu %9llu %11llu %11llu %9llu %8llu\n",
                    to_string(k),
                    static_cast<unsigned long long>(r.fault.injected.media_errors),
                    static_cast<unsigned long long>(r.fault.injected.timeouts),
                    static_cast<unsigned long long>(r.measured.failed_requests),
                    static_cast<unsigned long long>(
                        r.measured.damaged_physical_blocks),
                    static_cast<unsigned long long>(
                        r.measured.damaged_logical_blocks),
                    static_cast<unsigned long long>(
                        r.volume_counters.reconstruction_reads),
                    static_cast<unsigned long long>(
                        r.volume_counters.rebuild_rows));
      }
    }

    // Latency anatomy (POD_ANATOMY / POD_TAIL_ANATOMY set): per-component
    // breakdown and the slowest-request forensics table.
    print_anatomy_tables(profile.name, results);
  }
  std::printf("\npaper: Select-Dedupe improvement 53.9%% (web-vm), 21.2%% "
              "(homes), 88.6%% (mail); Full-Dedupe degrades homes; iDedup "
              "roughly Native\n");
  return 0;
}
