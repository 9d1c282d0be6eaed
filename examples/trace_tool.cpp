// pod-trace: generate, convert and analyse POD traces from the command
// line. Useful for producing reproducible workload files that other tools
// (or the benches, via the library) can consume.
//
//   trace_tool generate <web-vm|homes|mail> <scale> <out.trace>
//   trace_tool tocsv    <in.trace> <out.csv>
//   trace_tool frombin  <in.csv>   <out.trace>
//   trace_tool stats    <in.trace|in.csv>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "synth/generator.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_stats.hpp"

namespace {

using namespace pod;

Trace load_any(const std::string& path) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".csv")
    return load_trace_csv(path);
  return load_trace_binary(path);
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  trace_tool generate <web-vm|homes|mail> <scale> <out.trace>\n"
               "  trace_tool tocsv    <in.trace> <out.csv>\n"
               "  trace_tool frombin  <in.csv> <out.trace>\n"
               "  trace_tool stats    <in.trace|in.csv>\n");
  return 2;
}

int cmd_generate(const std::string& name, double scale, const std::string& out) {
  const Trace trace = generate_paper_trace(name, scale);
  save_trace_binary(out, trace);
  std::printf("wrote %zu requests (%zu warm-up) to %s\n",
              trace.requests.size(), trace.warmup_count, out.c_str());
  return 0;
}

int cmd_stats(const std::string& path) {
  const Trace trace = load_any(path);
  std::printf("trace %s: %zu requests (%zu warm-up)\n", trace.name.c_str(),
              trace.requests.size(), trace.warmup_count);

  for (auto [window, label] :
       {std::pair{StatsWindow::kAll, "whole trace"},
        std::pair{StatsWindow::kMeasuredOnly, "measured segment"}}) {
    const TraceScan scan = scan_trace(trace, window);
    const TraceCharacteristics& c = scan.characteristics;
    if (c.total_requests == 0) continue;
    std::printf("\n[%s]\n", label);
    std::printf("  requests      : %llu (%.1f%% writes)\n",
                static_cast<unsigned long long>(c.total_requests),
                100.0 * c.write_ratio);
    std::printf("  avg size      : %.1f KB (writes %.1f, reads %.1f)\n",
                c.avg_request_kb, c.avg_write_kb, c.avg_read_kb);
    std::printf("  footprint     : %llu blocks (%.1f MiB)\n",
                static_cast<unsigned long long>(c.footprint_blocks),
                static_cast<double>(c.footprint_blocks) * kBlockSize /
                    (1024.0 * 1024.0));
    const RedundancyBreakdown& b = scan.breakdown;
    std::printf("  I/O redundancy: %.1f%%  capacity redundancy: %.1f%%\n",
                b.io_redundancy_pct(), b.capacity_redundancy_pct());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate" && argc == 5)
      return cmd_generate(argv[2], std::atof(argv[3]), argv[4]);
    if (cmd == "tocsv" && argc == 4) {
      save_trace_csv(argv[3], load_any(argv[2]));
      std::printf("wrote %s\n", argv[3]);
      return 0;
    }
    if (cmd == "frombin" && argc == 4) {
      save_trace_binary(argv[3], load_trace_csv(argv[2]));
      std::printf("wrote %s\n", argv[3]);
      return 0;
    }
    if (cmd == "stats" && argc == 3) return cmd_stats(argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
