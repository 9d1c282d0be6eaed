// Ablations for the design decisions called out in DESIGN.md. Each one
// sweeps RunSpec axes on one paper trace.
#include <cstdio>
#include <iterator>
#include <utility>

#include "paper/figures.hpp"

namespace pod::bench {

// Select-Dedupe's category threshold (paper default 3).
//
// Lower thresholds deduplicate shorter runs (more capacity savings, more
// fragmentation risk); higher thresholds approach iDedup's conservatism.
Figure ablation_threshold(const PaperSetup& setup) {
  static constexpr std::size_t kThresholds[] = {1, 2, 3, 4, 6, 8};
  const WorkloadProfile profile = web_vm_profile(setup.scale);
  std::vector<Run> runs;
  for (const std::size_t threshold : kThresholds) {
    RunSpec spec = setup.spec(EngineKind::kSelectDedupe, profile);
    spec.engine_cfg.select_threshold = threshold;
    runs.push_back({profile, spec});
  }
  return {{}, std::move(runs), [scale = setup.scale](const FigureData& data) {
    print_header("Ablation — Select-Dedupe category threshold sweep",
                 "web-vm trace, 4-disk RAID5; scale=" + std::to_string(scale));
    std::printf("%-10s %14s %14s %14s %16s %16s\n", "Threshold", "Removed %",
                "Dedup ratio", "Overall (ms)", "Read (ms)", "Capacity blocks");
    for (std::size_t i = 0; i < data.results.size(); ++i) {
      const ReplayResult& r = *data.results[i];
      std::printf("%-10zu %13.1f%% %14.3f %14.2f %16.2f %16llu\n",
                  kThresholds[i], r.measured.removed_write_pct(),
                  r.measured.dedup_ratio(), r.mean_ms(), r.read_mean_ms(),
                  static_cast<unsigned long long>(r.physical_blocks_used));
    }
    std::printf("\nexpected: capacity and dedup ratio fall as the threshold "
                "rises; threshold 1 risks read amplification\n");
  }};
}

// iDedup's two knobs — the small-request bypass size and the
// sequential-run threshold (the FAST'12 paper sweeps similar parameters).
Figure ablation_idedup(const PaperSetup& setup) {
  // (bypass blocks, sequential threshold), bypass-major.
  static constexpr std::pair<std::uint32_t, std::size_t> kGrid[] = {
      {0, 2}, {0, 4}, {0, 8}, {2, 2}, {2, 4}, {2, 8}, {4, 2}, {4, 4}, {4, 8}};
  const WorkloadProfile profile = mail_profile(setup.scale);
  std::vector<Run> runs;
  for (const auto& [bypass, threshold] : kGrid) {
    RunSpec spec = setup.spec(EngineKind::kIDedup, profile);
    spec.engine_cfg.idedup_bypass_blocks = bypass;
    spec.engine_cfg.idedup_seq_threshold = threshold;
    runs.push_back({profile, spec});
  }
  return {{}, std::move(runs), [scale = setup.scale](const FigureData& data) {
    print_header("Ablation — iDedup parameter sweep (mail trace)",
                 "bypass size x sequential threshold; scale=" +
                     std::to_string(scale));
    std::printf("%-18s %14s %14s %14s %16s\n", "bypass/threshold",
                "Removed %", "Overall (ms)", "Write (ms)", "Capacity blocks");
    for (std::size_t i = 0; i < data.results.size(); ++i) {
      const ReplayResult& r = *data.results[i];
      std::printf("<=%2ublk / run>=%zu %14.1f%% %14.2f %14.2f %16llu\n",
                  kGrid[i].first, kGrid[i].second,
                  r.measured.removed_write_pct(), r.mean_ms(),
                  r.write_mean_ms(),
                  static_cast<unsigned long long>(r.physical_blocks_used));
    }
    std::printf("\nexpected: lower thresholds and smaller bypasses remove "
                "more writes and save more capacity — at bypass 0 / threshold "
                "~2 iDedup approaches Select-Dedupe's behaviour on sequential "
                "dups\n");
  }};
}

// RAID5 vs RAID0 — how much of POD's win comes from eliminating the RAID5
// small-write (read-modify-write) penalty.
Figure ablation_raid(const PaperSetup& setup) {
  const WorkloadProfile profile = web_vm_profile(setup.scale);
  std::vector<Run> runs;
  for (const RaidLevel raid : {RaidLevel::kRaid5, RaidLevel::kRaid0}) {
    for (const EngineKind k :
         {EngineKind::kNative, EngineKind::kSelectDedupe, EngineKind::kPod}) {
      RunSpec spec = setup.spec(k, profile);
      spec.raid = raid;
      runs.push_back({profile, spec});
    }
  }
  return {{}, runs, [scale = setup.scale, runs](const FigureData& data) {
    print_header("Ablation — RAID level (web-vm trace)",
                 "RAID5 pays ~4 disk ops per small write; RAID0 pays 1; "
                 "scale=" + std::to_string(scale));
    std::printf("%-14s %10s %16s %16s %16s\n", "Engine", "RAID",
                "Overall (ms)", "Write (ms)", "vs native");
    double native = 0.0;
    for (std::size_t i = 0; i < data.results.size(); ++i) {
      const RunSpec& spec = runs[i].spec;
      const ReplayResult& r = *data.results[i];
      if (spec.engine == EngineKind::kNative) native = r.mean_ms();
      std::printf("%-14s %10s %16.2f %16.2f %15.1f%%\n",
                  to_string(spec.engine),
                  spec.raid == RaidLevel::kRaid5 ? "raid5" : "raid0",
                  r.mean_ms(), r.write_mean_ms(),
                  normalized_pct(r.mean_ms(), native));
    }
    std::printf("\nexpected: dedup's relative win is larger on RAID5 (each "
                "eliminated small write saves a read-modify-write)\n");
  }};
}

// Per-disk I/O scheduling policy (FCFS vs SSTF vs SCAN).
//
// Smarter schedulers reduce seek costs for everyone; the orderings between
// engines must survive the scheduling policy.
Figure ablation_scheduler(const PaperSetup& setup) {
  const WorkloadProfile profile = web_vm_profile(setup.scale);
  std::vector<Run> runs;
  for (const SchedulerKind sched :
       {SchedulerKind::kFcfs, SchedulerKind::kSstf, SchedulerKind::kScan}) {
    for (const EngineKind k :
         {EngineKind::kNative, EngineKind::kSelectDedupe}) {
      RunSpec spec = setup.spec(k, profile);
      spec.array_cfg.scheduler = sched;
      runs.push_back({profile, spec});
    }
  }
  return {{}, runs, [scale = setup.scale, runs](const FigureData& data) {
    print_header("Ablation — disk scheduling policy (web-vm trace)",
                 "per-disk queue policy under the 4-disk RAID5; scale=" +
                     std::to_string(scale));
    std::printf("%-10s %-14s %16s %16s %14s\n", "Sched", "Engine",
                "Overall (ms)", "Write (ms)", "vs native");
    double native = 0.0;
    for (std::size_t i = 0; i < data.results.size(); ++i) {
      const RunSpec& spec = runs[i].spec;
      const ReplayResult& r = *data.results[i];
      if (spec.engine == EngineKind::kNative) native = r.mean_ms();
      std::printf("%-10s %-14s %16.2f %16.2f %13.1f%%\n",
                  to_string(spec.array_cfg.scheduler), to_string(spec.engine),
                  r.mean_ms(), r.write_mean_ms(),
                  normalized_pct(r.mean_ms(), native));
    }
    std::printf("\nexpected: absolute times shrink with SSTF/SCAN; "
                "select-dedupe stays well below native under every policy\n");
  }};
}

// The §II-B in-disk index-lookup bottleneck.
//
// With the DDFS-style Bloom filter disabled, Full-Dedupe pays a random
// index-region read for *every* fingerprint lookup that misses the index
// cache — the pathology the paper cites when motivating selective, in-
// memory-only dedup.
Figure ablation_bloom(const PaperSetup& setup) {
  static constexpr bool kBloom[] = {true, false};
  const WorkloadProfile profile = homes_profile(setup.scale);
  std::vector<Run> runs;
  for (const bool bloom : kBloom) {
    RunSpec spec = setup.spec(EngineKind::kFullDedupe, profile);
    spec.engine_cfg.full_dedupe_bloom = bloom;
    runs.push_back({profile, spec});
  }
  return {{}, std::move(runs), [scale = setup.scale](const FigureData& data) {
    print_header("Ablation — Full-Dedupe with / without the Bloom filter",
                 "in-disk index-lookup traffic (homes trace); scale=" +
                     std::to_string(scale));
    std::printf("%-10s %16s %16s %18s %18s\n", "Bloom", "Overall (ms)",
                "Write (ms)", "Index disk reads", "Index disk writes");
    for (std::size_t i = 0; i < data.results.size(); ++i) {
      const ReplayResult& r = *data.results[i];
      std::printf(
          "%-10s %16.2f %16.2f %18llu %18llu\n", kBloom[i] ? "on" : "off",
          r.mean_ms(), r.write_mean_ms(),
          static_cast<unsigned long long>(r.measured.index_disk_reads),
          static_cast<unsigned long long>(r.measured.index_disk_writes));
    }
    std::printf("\nexpected: disabling the Bloom filter multiplies index disk "
                "reads and degrades write response times (the paper's "
                "in-disk index-lookup bottleneck)\n");
  }};
}

// iCache parameters — adaptation interval and fixed-vs-adaptive
// partitioning for POD.
Figure ablation_icache(const PaperSetup& setup) {
  static constexpr Duration kIntervals[] = {ms(100), ms(500), sec(2),
                                            sec(10)};
  const WorkloadProfile profile = web_vm_profile(setup.scale);
  // Run under a tight memory budget where the fixed 50/50 split leaves the
  // index cache eviction-bound — the regime iCache is designed for.
  const std::uint64_t memory =
      paper_memory_bytes(profile.name, setup.scale) / 4;
  RunSpec select = setup.spec(EngineKind::kSelectDedupe, profile);
  select.engine_cfg.memory_bytes = memory;
  std::vector<Run> runs{{profile, select}};
  for (const Duration interval : kIntervals) {
    RunSpec spec = setup.spec(EngineKind::kPod, profile);
    spec.engine_cfg.memory_bytes = memory;
    spec.pod.icache.interval = interval;
    runs.push_back({profile, spec});
  }
  return {{}, std::move(runs), [scale = setup.scale](const FigureData& data) {
    print_header("Ablation — iCache adaptation interval (web-vm trace)",
                 "POD vs fixed-partition Select-Dedupe; scale=" +
                     std::to_string(scale));
    std::printf("%-22s %14s %14s %14s\n", "Config", "Removed %",
                "Overall (ms)", "Read (ms)");
    const ReplayResult& select = *data.results[0];
    std::printf("%-22s %13.1f%% %14.2f %14.2f\n", "fixed 50/50 (select)",
                select.measured.removed_write_pct(), select.mean_ms(),
                select.read_mean_ms());
    for (std::size_t i = 0; i < std::size(kIntervals); ++i) {
      const ReplayResult& r = *data.results[i + 1];
      std::printf("pod interval %6.1fs  %13.1f%% %14.2f %14.2f\n",
                  to_sec(kIntervals[i]), r.measured.removed_write_pct(),
                  r.mean_ms(), r.read_mean_ms());
    }
    std::printf("\nexpected: POD matches or beats fixed-partition "
                "Select-Dedupe; very long intervals converge to the fixed "
                "split\n");
  }};
}

// Degraded-mode RAID5 — how write elimination pays off when the array has
// lost a disk and every reconstruction read occupies all surviving
// spindles.
Figure ablation_degraded(const PaperSetup& setup) {
  const WorkloadProfile profile = web_vm_profile(setup.scale);
  std::vector<Run> runs;
  for (const bool degraded : {false, true}) {
    for (const EngineKind k :
         {EngineKind::kNative, EngineKind::kSelectDedupe, EngineKind::kPod}) {
      RunSpec spec = setup.spec(k, profile);
      if (degraded) {
        // Member 1 is dead from the first timed request, with no spare.
        FaultConfig& fault = spec.array_cfg.fault;
        fault.enabled = true;
        fault.fail_disk = 1;
        fault.fail_at = 0;
        fault.auto_rebuild = false;
      }
      runs.push_back({profile, spec});
    }
  }
  return {{}, runs, [scale = setup.scale, runs](const FigureData& data) {
    print_header("Ablation — degraded-mode RAID5 (web-vm trace)",
                 "one failed member; reconstruction reads fan out across "
                 "survivors; scale=" + std::to_string(scale));
    std::printf("%-10s %-14s %16s %16s %16s %14s\n", "Mode", "Engine",
                "Overall (ms)", "Write (ms)", "Read (ms)", "vs native");
    double native = 0.0;
    for (std::size_t i = 0; i < data.results.size(); ++i) {
      const EngineKind engine = runs[i].spec.engine;
      const ReplayResult& r = *data.results[i];
      if (engine == EngineKind::kNative) native = r.mean_ms();
      std::printf("%-10s %-14s %16.2f %16.2f %16.2f %13.1f%%\n",
                  i < data.results.size() / 2 ? "healthy" : "degraded",
                  to_string(engine), r.mean_ms(), r.write_mean_ms(),
                  r.read_mean_ms(), normalized_pct(r.mean_ms(), native));
    }
    std::printf("\nexpected: reads slow down (reconstruction fans out across "
                "all survivors) while writes can even speed up on rows whose "
                "parity column is the lost one (no parity maintenance). The "
                "engine ordering — select/pod well below native — must "
                "survive degraded operation.\n");
  }};
}

}  // namespace pod::bench
