// pod_report <bench.jsonl> [baseline.jsonl]
//
// Renders a POD_BENCH_JSON capture as a markdown report on stdout. With a
// second file, the first is the capture under study and the second the
// baseline: a paired-median delta section is appended.
//
// Typical use (EXPERIMENTS.md "debugging a slow p99"):
//   export POD_ANATOMY=1 POD_TAIL_ANATOMY=16 POD_BENCH_JSON=run.jsonl
//   ./bench/bench_fig08_overall_response_time
//   ./tools/pod_report run.jsonl > report.md
#include <cstdio>
#include <exception>
#include <iostream>

#include "report.hpp"

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr, "usage: %s <bench.jsonl> [baseline.jsonl]\n",
                 argv[0]);
    return 2;
  }
  try {
    const auto runs = pod::report::load_jsonl_file(argv[1]);
    pod::report::render(std::cout, runs);
    if (argc == 3) {
      const auto baseline = pod::report::load_jsonl_file(argv[2]);
      pod::report::render_compare(std::cout, baseline, runs);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pod_report: %s\n", e.what());
    return 1;
  }
  return 0;
}
