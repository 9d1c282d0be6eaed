#include "run_list.hpp"

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "replay/parallel_runner.hpp"
#include "trace/trace_cache.hpp"

namespace pod::bench {

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

/// Appends one JSON line per run to `path` (POD_BENCH_JSON), in order
/// (no-op when empty).
void emit_replay_counters_json(const std::string& path,
                               const std::vector<ReplayResult>& results) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot append to POD_BENCH_JSON=%s\n",
                 path.c_str());
    return;
  }
  for (const ReplayResult& r : results) {
    // Long-standing keys first, unchanged, so existing consumers keep
    // parsing; the per-disk / parity / iCache / telemetry keys are appended.
    std::fprintf(
        f,
        "{\"trace\":\"%s\",\"engine\":\"%s\",\"mean_ms\":%.6f,"
        "\"events_scheduled\":%llu,\"peak_event_depth\":%llu,"
        "\"peak_rss_bytes\":%llu,\"batch_probes\":%llu,"
        "\"scratch_bytes\":%llu",
        r.trace_name.c_str(), r.engine_name.c_str(), r.mean_ms(),
        static_cast<unsigned long long>(r.events_scheduled),
        static_cast<unsigned long long>(r.peak_event_depth),
        static_cast<unsigned long long>(r.peak_rss_bytes),
        static_cast<unsigned long long>(r.batch_probes),
        static_cast<unsigned long long>(r.scratch_bytes));
    // Host execution context: makes a JSON line interpretable on its own
    // (how many hardware threads the host had, whether the DES had its
    // own thread, and each replay phase's wall seconds and the CPU
    // seconds of the thread that ran it).
    const unsigned hw = std::thread::hardware_concurrency();
    std::fprintf(f, ",\"host\":{\"hw_threads\":%u,\"des_helper\":%s",
                 hw > 0 ? hw : 1, r.des_helper ? "true" : "false");
    const std::pair<const char*, const HostTime*> phases[] = {
        {"warmup", &r.host_warmup},
        {"policy", &r.host_policy},
        {"des", &r.host_des},
    };
    for (const auto& [name, t] : phases)
      std::fprintf(f, ",\"%s_wall_s\":%.6f,\"%s_cpu_s\":%.6f", name,
                   t->wall_s, name, t->cpu_s);
    std::fprintf(f, "}");
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


/// The distinct work of a figure list, in first-use order.
struct RunPlan {
  std::vector<std::string> trace_keys;
  std::vector<WorkloadProfile> traces;
  std::vector<ParallelRunner::RunItem> items;  // trace pointers unset
  std::vector<std::size_t> item_trace;         // index into `traces`
  /// Per figure: its scans as indices into `traces`, its runs as indices
  /// into `items`.
  std::vector<std::vector<std::size_t>> scans, runs;

  std::size_t trace_index(const WorkloadProfile& profile) {
    const std::string key = trace_cache_key(profile);
    for (std::size_t i = 0; i < trace_keys.size(); ++i)
      if (trace_keys[i] == key) return i;
    trace_keys.push_back(key);
    traces.push_back(profile);
    return traces.size() - 1;
  }

  std::size_t item_index(const Run& run) {
    const std::size_t trace = trace_index(run.profile);
    for (std::size_t i = 0; i < items.size(); ++i)
      if (item_trace[i] == trace && items[i].spec == run.spec) return i;
    items.push_back({run.spec, nullptr, {}});
    item_trace.push_back(trace);
    return items.size() - 1;
  }
};

}  // namespace

void run_figures(const std::vector<Figure>& figures, const Knobs& knobs) {
  RunPlan plan;
  std::size_t requested = 0;
  for (const Figure& figure : figures) {
    std::vector<std::size_t>& scans = plan.scans.emplace_back();
    for (const WorkloadProfile& profile : figure.scans)
      scans.push_back(plan.trace_index(profile));
    std::vector<std::size_t>& runs = plan.runs.emplace_back();
    for (const Run& run : figure.runs) runs.push_back(plan.item_index(run));
    requested += figure.runs.size();
  }
  std::fprintf(stderr,
               "[bench] %zu figure(s): %zu runs, %zu distinct, %zu trace(s)\n",
               figures.size(), requested, plan.items.size(),
               plan.traces.size());
  const std::vector<Trace> traces =
      obtain_traces(plan.traces, knobs.jobs, knobs.trace_cache);
  for (std::size_t i = 0; i < plan.items.size(); ++i)
    plan.items[i].trace = &traces[plan.item_trace[i]];
  const std::vector<ReplayResult> results =
      ParallelRunner(knobs.jobs).run(plan.items);
  emit_replay_counters_json(knobs.bench_json, results);

  // One scan per distinct scanned trace; figures sharing a trace share it.
  const auto scan_start = std::chrono::steady_clock::now();
  std::vector<std::optional<TraceScan>> scans(traces.size());
  std::size_t scanned = 0;
  for (const std::vector<std::size_t>& figure_scans : plan.scans)
    for (const std::size_t t : figure_scans)
      if (!scans[t]) {
        scans[t] = scan_trace(traces[t]);
        ++scanned;
      }
  if (scanned > 0)
    std::fprintf(stderr, "[bench] scanned %zu trace(s) in %.2f s\n", scanned,
                 std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - scan_start)
                     .count());

  for (std::size_t f = 0; f < figures.size(); ++f) {
    FigureData data;
    for (const std::size_t t : plan.scans[f]) data.scans.push_back(&*scans[t]);
    for (const std::size_t r : plan.runs[f])
      data.results.push_back(&results[r]);
    figures[f].render(data);
  }
}

}  // namespace pod::bench
