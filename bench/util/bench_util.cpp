#include "bench_util.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/resource.hpp"
#include "hash/simd.hpp"
#include "trace/trace_cache.hpp"

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
  std::vector<WorkloadProfile> out;
  for (auto& p : all)
    if (p.name == only) out.push_back(std::move(p));
  return out.empty() ? all : out;
}

namespace {

/// Per-process trace memo, guarded for concurrent first-population. Keyed
/// by the full cache key (name + param hash), so two profiles sharing a
/// name but differing in scale/seed never alias within one process.
struct TraceMemo {
  std::mutex mu;
  std::map<std::string, Trace> traces;
};

TraceMemo& trace_memo() {
  static TraceMemo memo;
  return memo;
}

/// Unlocked lookup-or-adopt; caller holds memo.mu.
const Trace* memo_find(TraceMemo& memo, const std::string& key) {
  auto it = memo.traces.find(key);
  return it == memo.traces.end() ? nullptr : &it->second;
}

}  // namespace

const Trace& trace_for(const WorkloadProfile& profile) {
  TraceMemo& memo = trace_memo();
  const std::string key = trace_cache_key(profile);
  {
    std::lock_guard<std::mutex> lock(memo.mu);
    if (const Trace* hit = memo_find(memo, key)) return *hit;
  }
  // Generate (or cache-load) OUTSIDE the lock: holding the memo mutex
  // across multi-second trace generation serializes every *other* profile's
  // first access behind this one. Concurrent callers of the same profile
  // may race and generate twice; the loser's copy is discarded below
  // (insert-or-discard), which costs duplicate work only in that narrow
  // race instead of a global stall on every cold start.
  if (trace_cache_dir().empty()) {
    std::fprintf(stderr, "[bench] generating trace %s (%llu requests)...\n",
                 profile.name.c_str(),
                 static_cast<unsigned long long>(profile.warmup_requests +
                                                 profile.measured_requests));
  }
  Trace generated = obtain_trace(profile);
  std::lock_guard<std::mutex> lock(memo.mu);
  if (const Trace* hit = memo_find(memo, key)) return *hit;
  // std::map nodes are stable: the reference outlives later insertions.
  return memo.traces.emplace(key, std::move(generated)).first->second;
}

void prefetch_traces(const std::vector<WorkloadProfile>& profiles) {
  TraceMemo& memo = trace_memo();
  std::vector<WorkloadProfile> missing;
  {
    std::lock_guard<std::mutex> lock(memo.mu);
    for (const WorkloadProfile& p : profiles)
      if (memo_find(memo, trace_cache_key(p)) == nullptr)
        missing.push_back(p);
  }
  if (missing.empty()) return;
  std::vector<Trace> traces = obtain_traces(missing, bench_jobs());
  std::lock_guard<std::mutex> lock(memo.mu);
  for (std::size_t i = 0; i < missing.size(); ++i) {
    const std::string key = trace_cache_key(missing[i]);
    if (memo_find(memo, key) == nullptr)
      memo.traces.emplace(key, std::move(traces[i]));
  }
}

std::vector<EngineKind> figure8_engines() {
  return {EngineKind::kNative, EngineKind::kFullDedupe, EngineKind::kIDedup,
          EngineKind::kSelectDedupe};
}

std::vector<EngineKind> figure11_engines() {
  return {EngineKind::kNative, EngineKind::kFullDedupe, EngineKind::kIDedup,
          EngineKind::kSelectDedupe, EngineKind::kPod};
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
  const std::size_t jobs = ThreadPool::jobs_from_env();
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t cap = hw > 0 ? hw : 1;
  return jobs > cap ? cap : jobs;
}

std::vector<std::map<EngineKind, ReplayResult>> run_figure(
    const std::vector<EngineKind>& engines,
    const std::vector<WorkloadProfile>& profiles, double scale) {
  // Resolve every trace before fanning out; the runs share them read-only.
  std::vector<ParallelRunner::RunItem> items;
  items.reserve(profiles.size() * engines.size());
  for (const WorkloadProfile& profile : profiles) {
    const Trace& trace = trace_for(profile);
    for (EngineKind kind : engines) {
      std::fprintf(stderr, "[bench] %-9s x %s...\n", profile.name.c_str(),
                   to_string(kind));
      items.push_back({paper_spec(kind, profile, scale), &trace, {}});
    }
  }

  std::vector<ReplayResult> run_results =
      ParallelRunner(bench_jobs()).run(items);

  std::vector<std::map<EngineKind, ReplayResult>> per_trace(profiles.size());
  for (std::size_t i = 0; i < run_results.size(); ++i)
    per_trace[i / engines.size()].emplace(engines[i % engines.size()],
                                          std::move(run_results[i]));
  for (const auto& results : per_trace) emit_replay_counters_json(results);
  return per_trace;
}

namespace {

/// Appends the `"anatomy":{...}` member (leading comma included) for one
/// run's attribution summary: per-component totals/distributions, the
/// per-stream accounting table, and the retained tail decompositions.
void emit_anatomy_json(std::FILE* f, const AnatomyResult& a) {
  std::fprintf(f,
               ",\"anatomy\":{\"requests\":%llu,\"sum_mismatches\":%llu,"
               "\"tail_k\":%llu,\"components\":{",
               static_cast<unsigned long long>(a.requests),
               static_cast<unsigned long long>(a.sum_mismatches),
               static_cast<unsigned long long>(a.tail_k));
  for (std::size_t c = 0; c < kNumLatComps; ++c) {
    const LatencyRecorder& rec = a.comp[c];
    std::fprintf(f,
                 "%s\"%s\":{\"total_ms\":%.6f,\"mean_ms\":%.6f,"
                 "\"p50_ms\":%.6f,\"p95_ms\":%.6f,\"p99_ms\":%.6f,"
                 "\"max_ms\":%.6f}",
                 c == 0 ? "" : ",", to_string(static_cast<LatComp>(c)),
                 static_cast<double>(a.total[c]) / kMillisecond, rec.mean_ms(),
                 rec.percentile_ms(0.50), rec.percentile_ms(0.95),
                 rec.percentile_ms(0.99), rec.max_ms());
  }
  std::fprintf(f, "},\"streams\":[");
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    const AnatomyResult::StreamStats& s = a.streams[i];
    std::fprintf(f,
                 "%s{\"stream\":%u,\"reads\":%llu,\"writes\":%llu,"
                 "\"read_blocks\":%llu,\"write_blocks\":%llu,"
                 "\"dedup_hits\":%llu,\"failed_requests\":%llu,"
                 "\"mean_ms\":%.6f,\"p50_ms\":%.6f,\"p95_ms\":%.6f,"
                 "\"p99_ms\":%.6f,\"max_ms\":%.6f}",
                 i == 0 ? "" : ",", s.stream,
                 static_cast<unsigned long long>(s.reads),
                 static_cast<unsigned long long>(s.writes),
                 static_cast<unsigned long long>(s.read_blocks),
                 static_cast<unsigned long long>(s.write_blocks),
                 static_cast<unsigned long long>(s.dedup_hits),
                 static_cast<unsigned long long>(s.failed_requests),
                 s.latency.mean_ms(), s.latency.percentile_ms(0.50),
                 s.latency.percentile_ms(0.95), s.latency.percentile_ms(0.99),
                 s.latency.max_ms());
  }
  std::fprintf(f, "],\"tail\":[");
  for (std::size_t i = 0; i < a.tail.size(); ++i) {
    const AnatomyResult::TailEntry& t = a.tail[i];
    std::fprintf(f,
                 "%s{\"req_id\":%llu,\"stream\":%u,\"type\":\"%s\","
                 "\"nblocks\":%u,\"submit_ms\":%.6f,\"latency_ms\":%.6f,"
                 "\"components\":{",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(t.req_id),
                 t.stream, t.type == OpType::kWrite ? "W" : "R", t.nblocks,
                 static_cast<double>(t.submit) / kMillisecond,
                 static_cast<double>(t.latency) / kMillisecond);
    for (std::size_t c = 0; c < kNumLatComps; ++c) {
      std::fprintf(f, "%s\"%s\":%.6f", c == 0 ? "" : ",",
                   to_string(static_cast<LatComp>(c)),
                   static_cast<double>(t.breakdown.comp[c]) / kMillisecond);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "]}");
}

}  // namespace

void emit_replay_counters_json(
    const std::map<EngineKind, ReplayResult>& results) {
  const char* path = std::getenv("POD_BENCH_JSON");
  if (path == nullptr) return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot append to POD_BENCH_JSON=%s\n", path);
    return;
  }
  for (const auto& [kind, r] : results) {
    // Long-standing keys first, unchanged, so existing consumers keep
    // parsing; the per-disk / parity / iCache / telemetry keys are appended.
    std::fprintf(
        f,
        "{\"trace\":\"%s\",\"engine\":\"%s\",\"mean_ms\":%.6f,"
        "\"events_scheduled\":%llu,\"peak_event_depth\":%llu,"
        "\"peak_rss_bytes\":%llu,\"batch_probes\":%llu,"
        "\"scratch_bytes\":%llu",
        r.trace_name.c_str(), to_string(kind), r.mean_ms(),
        static_cast<unsigned long long>(r.events_scheduled),
        static_cast<unsigned long long>(r.peak_event_depth),
        static_cast<unsigned long long>(r.peak_rss_bytes),
        static_cast<unsigned long long>(r.batch_probes),
        static_cast<unsigned long long>(r.scratch_bytes));
    // Host execution context: makes a JSON line interpretable on its own
    // (how many hardware threads the host had, which SIMD tier the kernels
    // dispatched to).
    const unsigned hw = std::thread::hardware_concurrency();
    std::fprintf(f, ",\"host\":{\"hw_threads\":%u,\"simd_tier\":\"%s\"}",
                 hw > 0 ? hw : 1, to_string(active_simd_tier()));
    std::fprintf(
        f,
        ",\"full_stripe_writes\":%llu,\"rmw_writes\":%llu,"
        "\"icache_adaptations\":%llu,\"final_index_fraction\":%.6f",
        static_cast<unsigned long long>(r.volume_counters.full_stripe_writes),
        static_cast<unsigned long long>(r.volume_counters.rmw_writes),
        static_cast<unsigned long long>(r.icache.adaptations),
        r.final_index_fraction);
    std::fprintf(f, ",\"per_disk\":[");
    for (std::size_t d = 0; d < r.per_disk.size(); ++d) {
      const ReplayResult::DiskBreakdown& b = r.per_disk[d];
      std::fprintf(
          f,
          "%s{\"reads\":%llu,\"writes\":%llu,\"blocks_read\":%llu,"
          "\"blocks_written\":%llu,\"sequential_hits\":%llu,"
          "\"busy_ms\":%.6f,\"mean_queue_depth\":%.6f,"
          "\"mean_seek_cylinders\":%.6f}",
          d == 0 ? "" : ",", static_cast<unsigned long long>(b.reads),
          static_cast<unsigned long long>(b.writes),
          static_cast<unsigned long long>(b.blocks_read),
          static_cast<unsigned long long>(b.blocks_written),
          static_cast<unsigned long long>(b.sequential_hits), b.busy_ms,
          b.mean_queue_depth, b.mean_seek_cylinders);
    }
    std::fprintf(f, "]");
    if (!r.telemetry_counters.empty()) {
      // Registry names are [a-z0-9._-] by construction — safe unescaped.
      std::fprintf(f, ",\"telemetry\":{");
      for (std::size_t i = 0; i < r.telemetry_counters.size(); ++i) {
        std::fprintf(f, "%s\"%s\":%.6g", i == 0 ? "" : ",",
                     r.telemetry_counters[i].first.c_str(),
                     r.telemetry_counters[i].second);
      }
      std::fprintf(f, "}");
    }
    if (r.anatomy.enabled) emit_anatomy_json(f, r.anatomy);
    std::fprintf(f, "}\n");
  }
  std::fclose(f);
}

void print_anatomy_tables(const std::string& trace_name,
                          const std::map<EngineKind, ReplayResult>& results) {
  const bool any_enabled =
      std::any_of(results.begin(), results.end(),
                  [](const auto& kv) { return kv.second.anatomy.enabled; });
  if (!any_enabled) return;

  // Component breakdown: mean milliseconds a request spends in each
  // component (rows sum to the engine's mean response time).
  std::printf("  latency anatomy (%s): mean ms per request by component\n",
              trace_name.c_str());
  std::printf("  %-14s", "engine");
  for (std::size_t c = 0; c < kNumLatComps; ++c)
    std::printf(" %11s", to_string(static_cast<LatComp>(c)));
  std::printf("\n");
  for (const auto& [kind, r] : results) {
    if (!r.anatomy.enabled) continue;
    std::printf("  %-14s", to_string(kind));
    for (std::size_t c = 0; c < kNumLatComps; ++c)
      std::printf(" %11.3f", r.anatomy.comp[c].mean_ms());
    std::printf("\n");
  }

  // Tail anatomy: opt-in via POD_TAIL_ANATOMY — the forensic view of the
  // slowest retained requests, decomposed.
  if (std::getenv("POD_TAIL_ANATOMY") == nullptr) return;
  constexpr std::size_t kPrintTail = 5;
  for (const auto& [kind, r] : results) {
    const AnatomyResult& a = r.anatomy;
    if (!a.enabled || a.tail.empty()) continue;
    std::printf("  tail anatomy (%s x %s): slowest %zu of %zu retained\n",
                trace_name.c_str(), to_string(kind),
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

void print_header(const std::string& title, const std::string& what) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", what.c_str());
  std::printf("================================================================\n");
}

void print_row(const std::string& label, const std::vector<double>& values,
               const char* unit) {
  std::printf("%-16s", label.c_str());
  for (const double v : values) std::printf("  %10.2f%s", v, unit);
  std::printf("\n");
}

}  // namespace pod::bench
