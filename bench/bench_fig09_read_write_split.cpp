// Figure 9: average response times of write requests (a) and read
// requests (b), normalized to Native.
//
// Paper shapes: (a) Select-Dedupe cuts write response times of Native by
// 47.2/20.2/91.6% (web-vm/homes/mail) and beats iDedup everywhere;
// Full-Dedupe *increases* homes write times. (b) Full-Dedupe underperforms
// Native on web-vm and homes (read amplification) but wins on mail;
// Select-Dedupe never loses to Native.
#include <cstdio>

#include "util/bench_util.hpp"

int main() {
  using namespace pod;
  using namespace pod::bench;

  const double scale = scale_from_env();
  const std::vector<WorkloadProfile> profiles = selected_profiles(scale);
  prefetch_traces(profiles);
  print_header("Figure 9 — normalized write / read response times "
               "(Native = 100)",
               "4-disk RAID5; scale=" + std::to_string(scale));

  const auto per_trace = run_figure(figure8_engines(), profiles, scale);
  for (std::size_t t = 0; t < profiles.size(); ++t) {
    const WorkloadProfile& profile = profiles[t];
    const auto& results = per_trace[t];
    const double native_w = results.at(EngineKind::kNative).write_mean_ms();
    const double native_r = results.at(EngineKind::kNative).read_mean_ms();
    std::printf("\n--- %s ---\n", profile.name.c_str());
    std::printf("%-14s %16s %16s %16s %16s\n", "Engine", "Write norm.",
                "Read norm.", "Write (ms)", "Read (ms)");
    for (EngineKind k : figure8_engines()) {
      const ReplayResult& r = results.at(k);
      std::printf("%-14s %15.1f%% %15.1f%% %16.2f %16.2f\n", to_string(k),
                  normalized_pct(r.write_mean_ms(), native_w),
                  normalized_pct(r.read_mean_ms(), native_r), r.write_mean_ms(),
                  r.read_mean_ms());
    }
  }
  std::printf("\npaper 9(a): select write norm 52.8/79.8/8.4; full-dedupe "
              "homes > 100\npaper 9(b): full-dedupe read norm 122.1/124.7/55.8;"
              " select <= 100 everywhere\n");
  return 0;
}
