// The replayed figures: Figure 3's partition sweep, Figures 8-11 on the
// §IV-B setup, the §IV-D overhead analysis and Table I.
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <iterator>

#include "paper/figures.hpp"

namespace pod::bench {

namespace {

/// The engine set of Figures 8-10 (no POD: the paper's §IV-B compares the
/// fixed-partition schemes first). Native leads: every figure normalises
/// to it.
const std::vector<EngineKind> kFigure8Engines = {
    EngineKind::kNative, EngineKind::kFullDedupe, EngineKind::kIDedup,
    EngineKind::kSelectDedupe};
/// Figure 11's engine set (adds POD).
const std::vector<EngineKind> kFigure11Engines = {
    EngineKind::kNative, EngineKind::kFullDedupe, EngineKind::kIDedup,
    EngineKind::kSelectDedupe, EngineKind::kPod};

/// Every engine over every selected trace, trace-major.
std::vector<Run> engine_grid(const std::vector<EngineKind>& engines,
                             const PaperSetup& setup) {
  std::vector<Run> runs;
  for (const WorkloadProfile& profile : setup.profiles)
    for (const EngineKind kind : engines)
      runs.push_back({profile, setup.spec(kind, profile)});
  return runs;
}

/// Trace `t`'s results of an engine_grid over `n` engines, in engine order.
std::vector<const ReplayResult*> grid_row(const FigureData& data,
                                          std::size_t t, std::size_t n) {
  return {data.results.begin() + static_cast<std::ptrdiff_t>(t * n),
          data.results.begin() + static_cast<std::ptrdiff_t>((t + 1) * n)};
}

/// Prints the per-engine latency-component breakdown of one trace's runs
/// and — when `tail` (POD_TAIL_ANATOMY is set) — the tail-anatomy table
/// (slowest requests with their full decompositions). No-op when
/// attribution was off.
void print_anatomy_tables(const std::string& trace_name,
                          const std::vector<const ReplayResult*>& results,
                          bool tail) {
  const bool any_enabled =
      std::any_of(results.begin(), results.end(),
                  [](const ReplayResult* r) { return r->anatomy.enabled; });
  if (!any_enabled) return;

  // Component breakdown: mean milliseconds a request spends in each
  // component (rows sum to the engine's mean response time).
  std::printf("  latency anatomy (%s): mean ms per request by component\n",
              trace_name.c_str());
  std::printf("  %-14s", "engine");
  for (std::size_t c = 0; c < kNumLatComps; ++c)
    std::printf(" %11s", to_string(static_cast<LatComp>(c)));
  std::printf("\n");
  for (const ReplayResult* r : results) {
    if (!r->anatomy.enabled) continue;
    std::printf("  %-14s", r->engine_name.c_str());
    for (std::size_t c = 0; c < kNumLatComps; ++c)
      std::printf(" %11.3f", r->anatomy.comp[c].mean_ms());
    std::printf("\n");
  }

  // Tail anatomy: opt-in via POD_TAIL_ANATOMY — the forensic view of the
  // slowest retained requests, decomposed.
  if (!tail) return;
  constexpr std::size_t kPrintTail = 5;
  for (const ReplayResult* r : results) {
    const AnatomyResult& a = r->anatomy;
    if (!a.enabled || a.tail.empty()) continue;
    std::printf("  tail anatomy (%s x %s): slowest %zu of %zu retained\n",
                trace_name.c_str(), r->engine_name.c_str(),
                std::min(kPrintTail, a.tail.size()), a.tail.size());
    std::printf("  %10s %2s %6s %6s %10s |", "req_id", "op", "blocks",
                "stream", "lat_ms");
    for (std::size_t c = 0; c < kNumLatComps; ++c)
      std::printf(" %9s", to_string(static_cast<LatComp>(c)));
    std::printf("\n");
    for (std::size_t i = 0; i < std::min(kPrintTail, a.tail.size()); ++i) {
      const AnatomyResult::TailEntry& t = a.tail[i];
      std::printf("  %10llu %2s %6u %6u %10.3f |",
                  static_cast<unsigned long long>(t.req_id),
                  t.type == OpType::kWrite ? "W" : "R", t.nblocks, t.stream,
                  static_cast<double>(t.latency) / kMillisecond);
      for (std::size_t c = 0; c < kNumLatComps; ++c)
        std::printf(" %9.3f",
                    static_cast<double>(t.breakdown.comp[c]) / kMillisecond);
      std::printf("\n");
    }
  }
}

}  // namespace

// Figure 3: read and write performance as a function of the share of
// memory allocated to the index cache, in a deduplication-based storage
// system driven by the mail trace (fixed partitions).
//
// Shape to reproduce: a larger index cache improves write response times
// (fewer in-disk index lookups, more detected dups) and degrades read
// response times (smaller read cache), and vice versa — the §II-B
// motivation for iCache.
Figure fig03_cache_partition_sweep(const PaperSetup& setup) {
  static constexpr double kShares[] = {0.2, 0.35, 0.5, 0.65, 0.8};
  const WorkloadProfile profile = mail_profile(setup.scale);
  // The sweep is only informative when the index working set exceeds the
  // smallest index share, so it runs at a quarter of the paper budget
  // (the paper's real traces carry 15 days of fingerprint history; our
  // synthetic ones carry ~3 — see DESIGN.md).
  const std::uint64_t memory =
      paper_memory_bytes(profile.name, setup.scale) / 4;
  std::vector<Run> runs;
  for (const double share : kShares) {
    RunSpec spec = setup.spec(EngineKind::kFullDedupe, profile);
    spec.engine_cfg.memory_bytes = memory;
    spec.engine_cfg.index_fraction = share;
    runs.push_back({profile, spec});
  }
  return {{}, std::move(runs), [scale = setup.scale](const FigureData& data) {
    print_header("Figure 3 — response time vs index-cache share "
                 "(Full-Dedupe, mail trace)",
                 "fixed index/read cache partitions; scale=" +
                     std::to_string(scale));
    std::printf("%-14s %16s %16s %16s %14s %14s\n", "Index share",
                "Write mean (ms)", "Read mean (ms)", "Overall (ms)",
                "Idx hit rate", "Rd hit rate");
    for (std::size_t i = 0; i < data.results.size(); ++i) {
      const ReplayResult& r = *data.results[i];
      std::printf("%13.0f%% %16.2f %16.2f %16.2f %13.3f %13.3f\n",
                  100.0 * kShares[i], r.write_mean_ms(), r.read_mean_ms(),
                  r.mean_ms(), r.index_cache_hit_rate, r.read_cache_hit_rate);
    }
    std::printf("\npaper shape: write response improves and read response "
                "degrades as the index share grows (Fig. 3)\n");
  }};
}

// Figure 8: response-time performance of the deduplication schemes
// normalized to the Native system, on a 4-disk RAID5 with 64 KB stripes,
// with equal index/read cache partitions for all dedup schemes.
//
// Paper numbers (normalized to Native = 100): Select-Dedupe improves
// Native by 53.9% (web-vm), 21.2% (homes), 88.6% (mail); iDedup improves
// only slightly; Full-Dedupe degrades homes.
Figure fig08_overall_response_time(const PaperSetup& setup) {
  return {{}, engine_grid(kFigure8Engines, setup),
          [setup](const FigureData& data) {
    print_header("Figure 8 — normalized overall response time (Native = 100)",
                 "4-disk RAID5, 64 KB stripe unit, 50/50 cache split; scale=" +
                     std::to_string(setup.scale));
    std::printf("%-10s", "Trace");
    for (const EngineKind k : kFigure8Engines)
      std::printf(" %14s", to_string(k));
    std::printf("   select-improv.\n");

    for (std::size_t t = 0; t < setup.profiles.size(); ++t) {
      const std::string& name = setup.profiles[t].name;
      const std::vector<const ReplayResult*> row =
          grid_row(data, t, kFigure8Engines.size());
      // kFigure8Engines: native, full-dedupe, idedup, select-dedupe.
      const double native = row[0]->mean_ms();
      std::printf("%-10s", name.c_str());
      for (const ReplayResult* r : row)
        std::printf(" %13.1f%%", normalized_pct(r->mean_ms(), native));
      std::printf("  %13.1f%%\n", improvement_pct(row[3]->mean_ms(), native));

      // Degraded-mode recipe (POD_FAULT_* set): report what the injector
      // did and the dedup blast radius — damaged logical vs physical blocks
      // shows how sharing amplifies a single media error.
      if (row[0]->fault.enabled) {
        std::printf("  fault summary (%s):\n", name.c_str());
        std::printf("  %-14s %8s %8s %9s %11s %11s %9s %8s\n", "engine",
                    "media", "timeout", "failed-rq", "dmg-phys",
                    "dmg-logical", "recon-rd", "rebuilt");
        for (const ReplayResult* r : row) {
          std::printf(
              "  %-14s %8llu %8llu %9llu %11llu %11llu %9llu %8llu\n",
              r->engine_name.c_str(),
              static_cast<unsigned long long>(r->fault.injected.media_errors),
              static_cast<unsigned long long>(r->fault.injected.timeouts),
              static_cast<unsigned long long>(r->measured.failed_requests),
              static_cast<unsigned long long>(
                  r->measured.damaged_physical_blocks),
              static_cast<unsigned long long>(
                  r->measured.damaged_logical_blocks),
              static_cast<unsigned long long>(
                  r->volume_counters.reconstruction_reads),
              static_cast<unsigned long long>(
                  r->volume_counters.rebuild_rows));
        }
      }

      // Latency anatomy (POD_ANATOMY / POD_TAIL_ANATOMY set): per-component
      // breakdown and the slowest-request forensics table.
      print_anatomy_tables(name, row, setup.knobs.tail_anatomy.has_value());
    }
    std::printf("\npaper: Select-Dedupe improvement 53.9%% (web-vm), 21.2%% "
                "(homes), 88.6%% (mail); Full-Dedupe degrades homes; iDedup "
                "roughly Native\n");
  }};
}

// Figure 9: average response times of write requests (a) and read
// requests (b), normalized to Native.
//
// Paper shapes: (a) Select-Dedupe cuts write response times of Native by
// 47.2/20.2/91.6% (web-vm/homes/mail) and beats iDedup everywhere;
// Full-Dedupe *increases* homes write times. (b) Full-Dedupe underperforms
// Native on web-vm and homes (read amplification) but wins on mail;
// Select-Dedupe never loses to Native.
Figure fig09_read_write_split(const PaperSetup& setup) {
  return {{}, engine_grid(kFigure8Engines, setup),
          [setup](const FigureData& data) {
    print_header("Figure 9 — normalized write / read response times "
                 "(Native = 100)",
                 "4-disk RAID5; scale=" + std::to_string(setup.scale));
    for (std::size_t t = 0; t < setup.profiles.size(); ++t) {
      const std::vector<const ReplayResult*> row =
          grid_row(data, t, kFigure8Engines.size());
      const double native_w = row[0]->write_mean_ms();
      const double native_r = row[0]->read_mean_ms();
      std::printf("\n--- %s ---\n", setup.profiles[t].name.c_str());
      std::printf("%-14s %16s %16s %16s %16s\n", "Engine", "Write norm.",
                  "Read norm.", "Write (ms)", "Read (ms)");
      for (const ReplayResult* r : row) {
        std::printf("%-14s %15.1f%% %15.1f%% %16.2f %16.2f\n",
                    r->engine_name.c_str(),
                    normalized_pct(r->write_mean_ms(), native_w),
                    normalized_pct(r->read_mean_ms(), native_r),
                    r->write_mean_ms(), r->read_mean_ms());
      }
    }
    std::printf("\npaper 9(a): select write norm 52.8/79.8/8.4; full-dedupe "
                "homes > 100\npaper 9(b): full-dedupe read norm "
                "122.1/124.7/55.8; select <= 100 everywhere\n");
  }};
}

// Figure 10: normalized storage capacity used by the different schemes.
//
// Paper shape: Full-Dedupe uses the least capacity; Select-Dedupe achieves
// comparable or better savings than iDedup (clearest on mail, where small
// dup writes add up); Native = 100.
Figure fig10_capacity(const PaperSetup& setup) {
  return {{}, engine_grid(kFigure8Engines, setup),
          [setup](const FigureData& data) {
    print_header("Figure 10 — normalized storage capacity used (Native = 100)",
                 "distinct live physical blocks at the end of the replay; "
                 "scale=" + std::to_string(setup.scale));
    std::printf("%-10s", "Trace");
    for (const EngineKind k : kFigure8Engines)
      std::printf(" %14s", to_string(k));
    std::printf("\n");
    for (std::size_t t = 0; t < setup.profiles.size(); ++t) {
      const std::vector<const ReplayResult*> row =
          grid_row(data, t, kFigure8Engines.size());
      const double native = static_cast<double>(row[0]->physical_blocks_used);
      std::printf("%-10s", setup.profiles[t].name.c_str());
      for (const ReplayResult* r : row) {
        std::printf(" %13.1f%%",
                    normalized_pct(static_cast<double>(r->physical_blocks_used),
                                   native));
      }
      std::printf("\n");
    }
    std::printf("\npaper shape: full-dedupe < select-dedupe <= idedup < "
                "native = 100%%\n");
  }};
}

// Figure 11: percentage of write requests removed from the Native system
// by Full-Dedupe, iDedup, Select-Dedupe, and POD (4-disk RAID5).
//
// Paper shape: Full-Dedupe removes the most (it eliminates every fully
// redundant request); iDedup removes the fewest (large-write-only); POD
// removes at least as many as Select-Dedupe (iCache enlarges the index
// cache during write-intensive periods). Select-Dedupe mail ~= 70%.
Figure fig11_removed_writes(const PaperSetup& setup) {
  return {{}, engine_grid(kFigure11Engines, setup),
          [setup](const FigureData& data) {
    print_header("Figure 11 — % of write requests removed",
                 "4-disk RAID5; scale=" + std::to_string(setup.scale));
    std::printf("%-10s", "Trace");
    for (const EngineKind k : kFigure11Engines)
      std::printf(" %14s", to_string(k));
    std::printf("\n");
    for (std::size_t t = 0; t < setup.profiles.size(); ++t) {
      std::printf("%-10s", setup.profiles[t].name.c_str());
      for (const ReplayResult* r :
           grid_row(data, t, kFigure11Engines.size()))
        std::printf(" %13.1f%%", r->measured.removed_write_pct());
      std::printf("\n");
    }
    std::printf("\npaper shape: full > pod >= select >> idedup; native = 0. "
                "Select-Dedupe removes 70.7%% of mail writes.\n");
  }};
}

// §IV-D overhead analysis: computational overhead (fingerprinting) and
// memory overhead (Map table NVRAM, 20 bytes per entry).
//
// Paper: the 32 us/4KB fingerprint latency is negligible against
// millisecond disk I/O; Map-table NVRAM peaks at 0.8 / 0.3 / 1.5 MB for
// web-vm / homes / mail (at full trace scale and the authors' footprints).
Figure overhead_analysis(const PaperSetup& setup) {
  return {{}, engine_grid({EngineKind::kPod}, setup),
          [setup](const FigureData& data) {
    print_header("§IV-D — POD overhead analysis",
                 "computational + NVRAM overheads of the POD engine; scale=" +
                     std::to_string(setup.scale));
    std::printf("%-10s %16s %18s %20s %18s %16s\n", "Trace", "Chunks hashed",
                "Hash time (s)", "Mean resp. (ms)", "Map NVRAM (MB)",
                "Hash/resp (%)");
    for (std::size_t t = 0; t < setup.profiles.size(); ++t) {
      const ReplayResult& r = *data.results[t];
      const double hash_seconds =
          to_sec(static_cast<Duration>(r.chunks_hashed) * us(32));
      const double hash_per_req_us =
          r.measured.write_requests
              ? 32.0 * static_cast<double>(r.chunks_hashed) /
                    static_cast<double>(r.measured.write_requests +
                                        r.measured.read_requests)
              : 0.0;
      std::printf("%-10s %16llu %18.2f %20.2f %18.3f %15.2f%%\n",
                  setup.profiles[t].name.c_str(),
                  static_cast<unsigned long long>(r.chunks_hashed),
                  hash_seconds, r.mean_ms(),
                  static_cast<double>(r.map_table_max_bytes) /
                      (1024.0 * 1024.0),
                  r.mean_ms() > 0
                      ? 100.0 * (hash_per_req_us / 1000.0) / r.mean_ms()
                      : 0.0);
    }
    std::printf("\npaper: hashing cost negligible vs multi-ms disk I/O; map "
                "table NVRAM 0.8 / 0.3 / 1.5 MB (absolute values scale with "
                "POD_SCALE and footprint)\n");
  }};
}

// Table I: comparison between POD and the state-of-the-art schemes —
// verified *empirically* rather than just asserted: each feature column is
// measured on the web-vm workload.
//
//   capacity saving        : uses < 97% of Native's physical blocks
//   performance enhancement: mean response < 97% of Native's
//   small-write elimination: eliminates >= 1% of <=8KB write requests
//   large-write elimination: eliminates >= 1% of > 8KB write requests
//   cache partitioning     : static (fixed split) vs dynamic (iCache)
Figure table1_scheme_comparison(const PaperSetup& setup) {
  static constexpr EngineKind kSchemes[] = {
      EngineKind::kIoDedup, EngineKind::kIDedup, EngineKind::kPostProcess,
      EngineKind::kPod};
  const WorkloadProfile profile = web_vm_profile(setup.scale);
  std::vector<Run> runs{
      {profile, setup.spec(EngineKind::kNative, profile)}};
  for (const EngineKind kind : kSchemes)
    runs.push_back({profile, setup.spec(kind, profile)});
  return {{profile}, std::move(runs), [scale = setup.scale](
                                          const FigureData& data) {
    const auto mark = [](bool b) { return b ? "yes" : "-"; };
    print_header("Table I — POD vs the state-of-the-art schemes",
                 "feature columns verified on the web-vm workload; scale=" +
                     std::to_string(scale));

    // The measured write requests, small (<=8KB) and large: Figure 1's
    // 4 KB and 8 KB buckets hold the writes of at most kSmallWriteBlocks.
    static_assert(kSmallWriteBlocks * kBlockSize == 8 * kKiB);
    const SizeHistogram& sizes = data.scans[0]->by_size.total;
    const std::uint64_t small_writes = sizes.count(0) + sizes.count(1);
    const std::uint64_t large_writes = sizes.total() - small_writes;

    const ReplayResult& native = *data.results[0];
    std::printf("%-14s %10s %13s %13s %13s %14s\n", "Scheme", "Capacity",
                "Performance", "Small-write", "Large-write", "Partitioning");
    for (std::size_t i = 0; i < std::size(kSchemes); ++i) {
      const EngineKind kind = kSchemes[i];
      const ReplayResult& r = *data.results[i + 1];
      // Write elimination, measured per population: the engine counts the
      // eliminated writes of at most kSmallWriteBlocks blocks.
      const std::uint64_t small_elim = r.measured.small_writes_eliminated;
      const std::uint64_t large_elim =
          r.measured.writes_eliminated - small_elim;
      std::printf("%-14s %10s %13s %13s %13s %14s\n", to_string(kind),
                  mark(static_cast<double>(r.physical_blocks_used) <
                       0.97 * static_cast<double>(native.physical_blocks_used)),
                  mark(r.mean_ms() < 0.97 * native.mean_ms()),
                  mark(small_elim > 0), mark(large_elim > 0),
                  kind == EngineKind::kPod ? "dynamic/adaptive" : "static");
    }

    std::printf("\npaper Table I: I/O-Dedup: perf only; iDedup & "
                "post-process: capacity + large writes only; POD: all four + "
                "dynamic partitioning\n");
    std::printf("note: our I/O-Dedup implements only its content-addressed "
                "read cache; the original's head-position-aware replica "
                "retrieval (its main read win) is not modelled, so its "
                "performance column may read '-' here.\n");
    std::printf("(small/large write populations in this trace: %llu / "
                "%llu)\n",
                static_cast<unsigned long long>(small_writes),
                static_cast<unsigned long long>(large_writes));
  }};
}

}  // namespace pod::bench
