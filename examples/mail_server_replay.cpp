// Scenario: replay a (scaled-down) mail-server day against POD and the
// Native baseline and compare user response times — a miniature of the
// paper's headline mail result (Select-Dedupe removes ~70% of writes and
// improves response times by ~9x).
//
//   $ ./examples/mail_server_replay [scale]
#include <cstdio>
#include <cstdlib>

#include "replay/replayer.hpp"
#include "synth/generator.hpp"
#include "trace/trace_stats.hpp"

int main(int argc, char** argv) {
  using namespace pod;

  const double scale = argc > 1 ? std::atof(argv[1]) : 0.05;
  const WorkloadProfile profile = mail_profile(scale);
  std::printf("generating mail workload at scale %.2f (%llu requests)...\n",
              scale,
              static_cast<unsigned long long>(profile.warmup_requests +
                                              profile.measured_requests));
  const Trace trace = TraceGenerator(profile).generate();

  const TraceCharacteristics c = scan_trace(trace).characteristics;
  std::printf("day-15 segment: %llu I/Os, %.1f%% writes, avg %.1f KB\n\n",
              static_cast<unsigned long long>(c.total_requests),
              100.0 * c.write_ratio, c.avg_request_kb);

  ReplayResult native, pod_result;
  for (EngineKind kind : {EngineKind::kNative, EngineKind::kPod}) {
    RunSpec spec;
    spec.engine = kind;
    spec.engine_cfg.logical_blocks = profile.volume_blocks;
    spec.engine_cfg.memory_bytes = paper_memory_bytes(profile.name, scale);
    std::printf("replaying against %s...\n", to_string(kind));
    ReplayResult r = run_replay(spec, trace);
    if (kind == EngineKind::kNative) native = r;
    else pod_result = r;
  }

  auto print = [](const char* label, const ReplayResult& r) {
    std::printf("  %-8s mean %8.2f ms   write %8.2f ms   read %8.2f ms   "
                "p99 %8.2f ms\n",
                label, r.mean_ms(), r.write_mean_ms(), r.read_mean_ms(),
                r.all.percentile_ms(0.99));
  };
  std::printf("\nresults:\n");
  print("native", native);
  print("pod", pod_result);

  std::printf("\nPOD removed %.1f%% of write requests (%llu of %llu),\n"
              "improved mean response time by %.1f%%, and used %.1f%% of "
              "Native's storage capacity.\n",
              pod_result.measured.removed_write_pct(),
              static_cast<unsigned long long>(
                  pod_result.measured.writes_eliminated),
              static_cast<unsigned long long>(
                  pod_result.measured.write_requests),
              improvement_pct(pod_result.mean_ms(), native.mean_ms()),
              100.0 * static_cast<double>(pod_result.physical_blocks_used) /
                  static_cast<double>(native.physical_blocks_used));
  return 0;
}
