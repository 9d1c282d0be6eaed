#include "bench_util.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.hpp"

namespace pod::bench {

double scale_from_env() {
  const char* env = std::getenv("POD_SCALE");
  if (env == nullptr) return 0.25;
  double v = 0.0;
  const char* end = env + std::strlen(env);
  const auto [ptr, ec] = std::from_chars(env, end, v);
  if (ec != std::errc{} || ptr != end || !(v > 0.0) || v > 1.0) {
    std::fprintf(stderr,
                 "[bench] POD_SCALE='%s' is not a number in (0,1]; aborting\n",
                 env);
    std::exit(2);
  }
  return v;
}

std::vector<WorkloadProfile> selected_profiles(double scale) {
  const char* only = std::getenv("POD_TRACE");
  std::vector<WorkloadProfile> all = paper_profiles(scale);
  if (only == nullptr) return all;
  for (auto& p : all)
    if (p.name == only) return {std::move(p)};
  std::fprintf(stderr,
               "[bench] POD_TRACE='%s' is not one of web-vm, homes, mail; "
               "aborting\n",
               only);
  std::exit(2);
}

RunSpec paper_spec(EngineKind engine, const WorkloadProfile& profile,
                   double scale) {
  RunSpec spec;
  spec.engine = engine;
  spec.raid = RaidLevel::kRaid5;
  spec.array_cfg.num_disks = 4;              // 4-disk RAID5 (§IV-B)
  spec.array_cfg.stripe_unit_blocks = 16;    // 64 KB stripe unit
  // Off unless POD_FAULT_* is set; a default bench run injects nothing and
  // stays byte-identical.
  spec.array_cfg.fault = FaultConfig::from_env();
  spec.engine_cfg.logical_blocks = profile.volume_blocks;
  spec.engine_cfg.memory_bytes = paper_memory_bytes(profile.name, scale);
  return spec;
}

std::size_t bench_jobs() {
  // Replay runs are CPU-bound, so a POD_JOBS above the core count cannot
  // add throughput — it only buys context-switch overhead (POD_JOBS=4 on a
  // 1-core host measured ~17% slower than POD_JOBS=1). Benches cap the
  // request at hardware concurrency; tests construct ParallelRunner with
  // explicit job counts and keep the right to oversubscribe (interleaving
  // coverage under TSan).
  std::size_t jobs = 0;
  try {
    jobs = ThreadPool::jobs_from_env();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "[bench] %s; aborting\n", e.what());
    std::exit(2);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t cap = hw > 0 ? hw : 1;
  return jobs > cap ? cap : jobs;
}

void print_header(const std::string& title, const std::string& what) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", what.c_str());
  std::printf("================================================================\n");
}

}  // namespace pod::bench
