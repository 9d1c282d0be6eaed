#include "bench_util.hpp"

#include <cstdio>
#include <stdexcept>

namespace pod::bench {

std::vector<WorkloadProfile> selected_profiles(double scale,
                                               const std::string& trace) {
  std::vector<WorkloadProfile> all = paper_profiles(scale);
  if (trace.empty()) return all;
  for (auto& p : all)
    if (p.name == trace) return {std::move(p)};
  throw std::invalid_argument("no paper trace is named '" + trace + "'");
}

RunSpec paper_spec(EngineKind engine, const WorkloadProfile& profile,
                   double scale) {
  RunSpec spec;
  spec.engine = engine;
  spec.raid = RaidLevel::kRaid5;
  spec.array_cfg.num_disks = kPaperDisks;    // 4-disk RAID5 (§IV-B)
  spec.array_cfg.stripe_unit_blocks = 16;    // 64 KB stripe unit
  spec.engine_cfg.logical_blocks = profile.volume_blocks;
  spec.engine_cfg.memory_bytes = paper_memory_bytes(profile.name, scale);
  return spec;
}

void print_header(const std::string& title, const std::string& what) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", what.c_str());
  std::printf("================================================================\n");
}

}  // namespace pod::bench
