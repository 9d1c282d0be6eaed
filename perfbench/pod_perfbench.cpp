// The repository benchmark (see README.md for workloads and metrics).
//
// Untraced mode replays a workload's trace x engine runs through the public
// replay API (ParallelRunner / run_replay) until --seconds have passed and
// reports host throughput, set-up time, peak RSS and the headline engine's
// simulated latency. Traced mode drives the same replays from outside the
// program, one timed call at a time into each layer's public entry point
// (TraceGenerator::generate, try_load_cached_trace, make_volume +
// make_engine, DedupEngine::warm, DedupEngine::submit, Simulator::step),
// records one span per call, and reports per-layer self time and counters.
// Both modes gate on exact simulated-result equality and print one JSON
// object as their last stdout line.
//
// Usage: pod_perfbench --workload fig08|native|pod --seed N --seconds S
//                      --trace 0|1 --out DIR [--scale X] [--tiny] [--prepare]
// --prepare only fills the trace cache for the seed and scale, so the
// measuring process never pays (or keeps the memory of) cold generation.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/resource.hpp"
#include "engines/full_dedupe.hpp"
#include "replay/anatomy.hpp"
#include "replay/parallel_runner.hpp"
#include "replay/replayer.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/trace_cache.hpp"

namespace pod::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Options and workloads

/// The profiles' stock seed: --seed 42 replays exactly the traces
/// EXPERIMENTS.md reports.
constexpr std::uint64_t kStockSeed = 42;
/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupReps = 7;

struct Options {
  std::string workload;
  std::uint64_t seed = kStockSeed;
  double seconds = 10.0;
  bool traced = false;
  std::string out_dir;
  double scale = 0.25;
  bool tiny = false;
  bool prepare = false;
};

struct Workload {
  const char* name;
  std::vector<EngineKind> engines;
  std::size_t jobs;
  /// The engine the simulated end-to-end metrics describe.
  EngineKind headline;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"fig08",
       {EngineKind::kNative, EngineKind::kFullDedupe, EngineKind::kIDedup,
        EngineKind::kSelectDedupe},
       2,
       EngineKind::kSelectDedupe},
      {"native", {EngineKind::kNative}, 1, EngineKind::kNative},
      {"pod", {EngineKind::kPod}, 1, EngineKind::kPod},
  };
  return kAll;
}

const std::vector<std::string> kPaperTraces = {"web-vm", "homes", "mail"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pod_perfbench: %s\nusage: pod_perfbench --workload "
               "fig08|native|pod --seed N --seconds S --trace 0|1 --out DIR "
               "[--scale X] [--tiny] [--prepare]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (a == "--prepare") {
      o.prepare = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') usage("--seed wants an integer");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0)) usage("--seconds wants a positive number");
    } else if (a == "--trace") {
      if (std::string_view(v) != "0" && std::string_view(v) != "1")
        usage("--trace wants 0 or 1");
      o.traced = v[0] == '1';
    } else if (a == "--out") {
      o.out_dir = v;
      have_out = true;
    } else if (a == "--scale") {
      o.scale = std::strtod(v, &end);
      if (*end != '\0' || !(o.scale > 0) || o.scale > 1) usage("--scale wants (0,1]");
    } else {
      usage("unknown argument");
    }
  }
  if (!have_out) usage("--out is required");
  return o;
}

const Workload& workload_for(const Options& o) {
  for (const Workload& w : workloads())
    if (o.workload == w.name) return w;
  usage("unknown --workload");
}

std::vector<WorkloadProfile> profiles_for(const Options& o) {
  std::vector<WorkloadProfile> ps;
  if (o.tiny) ps.push_back(tiny_test_profile());
  else ps = paper_profiles(o.scale);
  // Every profile's seed moves by the same offset, so seed 42 keeps the
  // stock traces and any other seed gives a fresh, reproducible set.
  for (WorkloadProfile& p : ps) p.seed += o.seed - kStockSeed;
  return ps;
}

RunSpec spec_for(EngineKind kind, const WorkloadProfile& p, const Options& o) {
  RunSpec spec = bench::paper_spec(kind, p, o.tiny ? 1.0 : o.scale);
  // The tiny profile has no paper budget; keep DRAM below its working set.
  if (o.tiny) spec.engine_cfg.memory_bytes = 2 * kMiB;
  return spec;
}

// ---------------------------------------------------------------------------
// Trace cache

std::string cache_dir(const Options& o) { return o.out_dir + "/traces"; }

/// Generates (untimed) every trace missing from the cache and drops cached
/// traces of other seeds or scales, so the cache stays one set large.
void prepare_cache(const Options& o, const std::vector<WorkloadProfile>& ps) {
  namespace fs = std::filesystem;
  const std::string dir = cache_dir(o);
  fs::create_directories(dir);
  std::vector<std::string> keep;
  for (const WorkloadProfile& p : ps) {
    keep.push_back(trace_cache_key(p));
    if (fs::exists(trace_cache_path(dir, p))) continue;
    const Trace t = TraceGenerator(p).generate();
    if (!store_cached_trace(dir, p, t))
      throw std::runtime_error("cannot write trace cache under " + dir);
  }
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (std::find(keep.begin(), keep.end(), name) == keep.end())
      fs::remove(e.path());
  }
}

Trace load_trace(const Options& o, const WorkloadProfile& p) {
  std::optional<Trace> t = try_load_cached_trace(cache_dir(o), p);
  if (!t) throw std::runtime_error("trace cache miss for " + p.name);
  return std::move(*t);
}

bool same_trace(const Trace& a, const Trace& b) {
  if (a.name != b.name || a.warmup_count != b.warmup_count ||
      a.requests.size() != b.requests.size())
    return false;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const IoRequest& x = a.requests[i];
    const IoRequest& y = b.requests[i];
    if (x.id != y.id || x.arrival != y.arrival || x.type != y.type ||
        x.lba != y.lba || x.nblocks != y.nblocks || x.stream != y.stream ||
        x.chunks.size() != y.chunks.size() ||
        !std::equal(x.chunks.begin(), x.chunks.end(), y.chunks.begin()))
      return false;
  }
  return true;
}

std::vector<ParallelRunner::RunItem> items_for(
    const Workload& w, const std::vector<WorkloadProfile>& ps,
    const std::vector<Trace>& traces, const Options& o) {
  std::vector<ParallelRunner::RunItem> items;
  for (std::size_t t = 0; t < ps.size(); ++t)
    for (EngineKind k : w.engines)
      items.push_back({spec_for(k, ps[t], o), &traces[t],
                       traces[t].name + "." + to_string(k)});
  return items;
}

std::uint64_t requests_in(const std::vector<ParallelRunner::RunItem>& items) {
  std::uint64_t n = 0;
  for (const auto& it : items) n += it.trace->requests.size();
  return n;
}

// ---------------------------------------------------------------------------
// Simulated outcome: everything the correctness gate compares exactly.

struct SimOutcome {
  std::uint64_t requests = 0, reads = 0, writes = 0;
  double mean_ms = 0, p999_ms = 0, read_mean_ms = 0, write_mean_ms = 0;
  SimTime makespan = 0;
  std::array<std::uint64_t, 16> engine{};
  std::uint64_t physical_blocks = 0, map_table_bytes = 0, chunks_hashed = 0;
  std::uint64_t disk_reads = 0, disk_writes = 0;
  double disk_busy_ms = 0, disk_queue_depth = 0, disk_seek_cylinders = 0;
  std::uint64_t rmw_writes = 0, full_stripe_writes = 0, icache_adaptations = 0;
  double final_index_fraction = 0;

  bool operator==(const SimOutcome&) const = default;
};

SimOutcome outcome_of(const ReplayResult& r) {
  SimOutcome o;
  o.requests = r.all.count();
  o.reads = r.reads.count();
  o.writes = r.writes.count();
  o.mean_ms = r.all.mean_ms();
  o.p999_ms = r.all.percentile_ms(0.999);
  o.read_mean_ms = r.reads.mean_ms();
  o.write_mean_ms = r.writes.mean_ms();
  o.makespan = r.makespan;
  const EngineStats& s = r.measured;
  o.engine = {s.write_requests,     s.read_requests,      s.write_blocks,
              s.read_blocks,        s.writes_eliminated,  s.chunks_deduped,
              s.chunks_written,     s.category_counts[0], s.category_counts[1],
              s.category_counts[2], s.category_counts[3], s.index_disk_reads,
              s.index_disk_writes,  s.read_ops_issued,    s.failed_requests,
              s.media_error_ops};
  o.physical_blocks = r.physical_blocks_used;
  o.map_table_bytes = r.map_table_bytes;
  o.chunks_hashed = r.chunks_hashed;
  o.disk_reads = r.disk_reads;
  o.disk_writes = r.disk_writes;
  for (const ReplayResult::DiskBreakdown& d : r.per_disk) {
    o.disk_busy_ms += d.busy_ms;
    o.disk_queue_depth += d.mean_queue_depth;
    o.disk_seek_cylinders += d.mean_seek_cylinders;
  }
  o.rmw_writes = r.volume_counters.rmw_writes;
  o.full_stripe_writes = r.volume_counters.full_stripe_writes;
  o.icache_adaptations = r.icache.adaptations;
  o.final_index_fraction = r.final_index_fraction;
  return o;
}

// ---------------------------------------------------------------------------
// Correctness gate

struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", what.c_str());
    std::printf("check failed: %s\n", what.c_str());
  }

  /// Counts a run's requests and its failed ones.
  void count_run(const ReplayResult& r, std::uint64_t trace_requests) {
    attempted += trace_requests;
    failed += r.measured.failed_requests;
  }
};

void check_same(Gate& g, const std::vector<ParallelRunner::RunItem>& items,
                const std::vector<SimOutcome>& want,
                const std::vector<SimOutcome>& got, const char* what) {
  for (std::size_t i = 0; i < items.size(); ++i)
    g.check(got[i] == want[i], items[i].label + ": " + what);
}

/// Simulated mean response time per trace and engine.
std::map<std::string, std::map<EngineKind, double>> means_by_trace(
    const std::vector<ParallelRunner::RunItem>& items,
    const std::vector<ReplayResult>& res) {
  std::map<std::string, std::map<EngineKind, double>> mean;
  for (std::size_t i = 0; i < items.size(); ++i)
    mean[items[i].trace->name][items[i].spec.engine] = res[i].mean_ms();
  return mean;
}

/// Fig. 8 orderings recorded in EXPERIMENTS.md.
void check_paper_orderings(Gate& g, const Workload& w,
                           const std::vector<ParallelRunner::RunItem>& items,
                           const std::vector<ReplayResult>& res) {
  if (std::string_view(w.name) != "fig08") return;
  for (auto& [trace, m] : means_by_trace(items, res)) {
    g.check(m[EngineKind::kSelectDedupe] < m[EngineKind::kNative],
            trace + ": select-dedupe not faster than native");
    if (trace == "homes")
      g.check(m[EngineKind::kFullDedupe] > m[EngineKind::kNative],
              "homes: full-dedupe not slower than native");
  }
}

// ---------------------------------------------------------------------------
// Metric output

struct Metrics {
  struct Entry {
    std::string name;
    std::string unit;
    std::vector<double> samples;  // one per pass; reported as the median
    /// False for detail lines whose name depends on the workload's engines;
    /// they are printed as text but kept out of the JSON result, whose
    /// metric set is the same on every workload.
    bool in_result;
  };
  std::vector<Entry> entries;

  void add(const std::string& name, double v, const std::string& unit,
           bool in_result = true) {
    for (Entry& e : entries)
      if (e.name == name) {
        e.samples.push_back(v);
        return;
      }
    entries.push_back({name, unit, {v}, in_result});
  }
};

void print_result(const Gate& g, const Metrics& m) {
  for (const Metrics::Entry& e : m.entries)
    std::printf("%-40s %16.6f %s\n", e.name.c_str(), median(e.samples),
                e.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              g.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(g.attempted),
              static_cast<unsigned long long>(g.failed));
  const char* sep = "";
  for (const Metrics::Entry& e : m.entries) {
    if (!e.in_result) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                e.name.c_str(), median(e.samples), e.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Untraced mode: end-to-end metrics

/// Headline-engine simulated metrics over the workload's traces.
void add_sim_metrics(Metrics& m, const Workload& w,
                     const std::vector<ParallelRunner::RunItem>& items,
                     const std::vector<ReplayResult>& res) {
  LatencyRecorder all, reads, writes;
  std::uint64_t write_reqs = 0, eliminated = 0, capacity = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].spec.engine != w.headline) continue;
    all.merge(res[i].all);
    reads.merge(res[i].reads);
    writes.merge(res[i].writes);
    write_reqs += res[i].measured.write_requests;
    eliminated += res[i].measured.writes_eliminated;
    capacity += res[i].physical_blocks_used;
  }
  const double p999 = all.percentile_ms(0.999);
  const double rank = 0.999 * static_cast<double>(all.count() - 1);
  std::printf("%s: p99.9 over %llu measured requests leaves %llu beyond it\n",
              to_string(w.headline),
              static_cast<unsigned long long>(all.count()),
              static_cast<unsigned long long>(all.count() - 1 -
                                              static_cast<std::uint64_t>(rank)));
  m.add("sim_mean_ms", all.mean_ms(), "ms");
  m.add("sim_p999_ms", p999, "ms");
  m.add("sim_read_mean_ms", reads.mean_ms(), "ms");
  m.add("sim_write_mean_ms", writes.mean_ms(), "ms");
  m.add("issued_write_pct",
        write_reqs == 0 ? 0.0
                        : 100.0 * static_cast<double>(write_reqs - eliminated) /
                              static_cast<double>(write_reqs),
        "%");
  m.add("capacity_blocks", static_cast<double>(capacity), "blocks");
}

/// Select-Dedupe's improvement over Native against the paper's (§IV-B).
void print_fidelity(const Workload& w,
                    const std::vector<ParallelRunner::RunItem>& items,
                    const std::vector<ReplayResult>& res) {
  if (std::string_view(w.name) != "fig08") return;
  const std::map<std::string, double> paper = {
      {"web-vm", 53.9}, {"homes", 21.2}, {"mail", 88.6}};
  auto mean = means_by_trace(items, res);
  for (const auto& [trace, want] : paper) {
    auto it = mean.find(trace);
    if (it == mean.end()) continue;
    const double got = improvement_pct(it->second[EngineKind::kSelectDedupe],
                                       it->second[EngineKind::kNative]);
    std::printf("fidelity.select_err_pp.%s %.2f pp (model %.1f%% vs paper "
                "%.1f%%; the disk model is not validated against hardware)\n",
                trace.c_str(), std::fabs(got - want), got, want);
  }
}

int run_untraced(const Options& o, const Workload& w) {
  const std::vector<WorkloadProfile> ps = profiles_for(o);
  prepare_cache(o, ps);
  Gate gate;
  Metrics m;

  // Set-up: load every trace from the warm cache and build every run's
  // volume and engine, kSetupReps times.
  std::vector<Trace> traces;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    traces.clear();
    const Clock::time_point t0 = Clock::now();
    for (const WorkloadProfile& p : ps) traces.push_back(load_trace(o, p));
    for (const auto& it : items_for(w, ps, traces, o)) {
      Simulator sim;
      std::unique_ptr<Volume> volume = make_volume(sim, it.spec);
      std::unique_ptr<DedupEngine> engine = make_engine(sim, *volume, it.spec);
    }
    setup.push_back(seconds_since(t0));
  }
  const std::vector<ParallelRunner::RunItem> items = items_for(w, ps, traces, o);
  const std::uint64_t pass_requests = requests_in(items);

  // Measured passes while the next one still fits in --seconds.
  const ParallelRunner runner(w.jobs);
  std::vector<SimOutcome> first;
  std::vector<ReplayResult> res;
  const Clock::time_point start = Clock::now();
  int passes = 0;
  double wall = 0;
  std::vector<double> walls;
  while (passes == 0 || seconds_since(start) + wall <= o.seconds) {
    const Clock::time_point t0 = Clock::now();
    res = runner.run(items);
    wall = seconds_since(t0);
    walls.push_back(wall);
    std::printf("pass %d: %.3f s\n", passes, wall);
    std::vector<SimOutcome> got;
    for (std::size_t i = 0; i < items.size(); ++i) {
      got.push_back(outcome_of(res[i]));
      gate.count_run(res[i], items[i].trace->requests.size());
    }
    if (passes == 0) first = got;
    else check_same(gate, items, first, got, "simulated result changed between passes");
    ++passes;
  }
  std::printf("workload %s: %d passes of %zu runs, %llu requests each, seed "
              "%llu, scale %g\n",
              w.name, passes, items.size(),
              static_cast<unsigned long long>(pass_requests),
              static_cast<unsigned long long>(o.seed), o.tiny ? 1.0 : o.scale);
  if (!o.tiny) check_paper_orderings(gate, w, items, res);
  print_fidelity(w, items, res);

  // Interference from other tenants of a shared host only ever slows a
  // pass, and it drifts over tens of seconds, so the fastest pass is the
  // steadiest estimate of the program's own speed. The median pass is
  // printed beside it.
  const double requests = static_cast<double>(pass_requests);
  m.add("replay_rps", requests / *std::min_element(walls.begin(), walls.end()),
        "1/s");
  m.add("replay_rps.median_pass", requests / median(walls), "1/s", false);
  m.add("setup_s", median(setup), "s");
  m.add("peak_rss_mb", static_cast<double>(current_peak_rss_bytes()) / kMiB, "MiB");
  add_sim_metrics(m, w, items, res);
  // failed_frac, reported as its complement so the metric is never 0.
  m.add("ok_frac",
        1.0 - static_cast<double>(gate.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, gate.attempted)),
        "ratio");
  print_result(gate, m);
  return gate.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced mode: spans and per-layer metrics

enum Layer : std::uint8_t {
  kSynthGenerate,
  kTraceLoad,
  kRunReplay,       // one untraced run_replay call (reference result)
  kParallelPass,    // one untraced ParallelRunner::run over every item
  kTracedRun,       // root of one outside-driven replay; self = loop + timers
  kBuild,
  kWarmRead,
  kWarmUniqueWrite,
  kWarmDupWrite,
  kSubmitRead,
  kSubmitWrite,
  kStep,
  kNumLayers,
};

constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "synth.generate",       "trace.load",          "replay.run_replay",
    "replay.parallel_runner", "replay.traced_run", "engines.build",
    "engines.warm_read",    "engines.warm_unique_write",
    "engines.warm_dup_write", "engines.submit_read", "engines.submit_write",
    "sim.step"};

/// One timed call. Little-endian on disk, 24 bytes, in id order.
struct Span {
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint32_t parent;
  std::uint16_t run;
  std::uint8_t layer;
  std::uint8_t pad;
};
static_assert(sizeof(Span) == 24);

/// In-memory span buffer. Spans are written out (and their self times
/// folded into per-run, per-layer totals) when the run that owns them ends.
class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  /// `runs` names the run ids; id runs.size() is the workload itself.
  SpanLog(const std::string& path, std::vector<std::string> runs)
      : runs_(std::move(runs)),
        total_ns_(runs_.size() + 1),
        self_ns_(runs_.size() + 1),
        calls_(runs_.size() + 1),
        epoch_(Clock::now()) {
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr) throw std::runtime_error("cannot write " + path);
    std::string header = "PODSPAN1 {\"record\": \"u64 start_ns, u64 end_ns, "
                         "u32 parent, u16 run, u8 layer, u8 pad\", \"layers\": [";
    for (std::size_t i = 0; i < kLayerNames.size(); ++i)
      header += std::string(i ? ", " : "") + "\"" + kLayerNames[i] + "\"";
    header += "], \"runs\": [";
    for (std::size_t i = 0; i <= runs_.size(); ++i)
      header += std::string(i ? ", " : "") + "\"" +
                (i < runs_.size() ? runs_[i] : "workload") + "\"";
    header += "]}\n";
    std::fwrite(header.data(), 1, header.size(), file_);
  }
  ~SpanLog() { std::fclose(file_); }
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  std::uint16_t workload_run() const {
    return static_cast<std::uint16_t>(runs_.size());
  }

  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }

  std::uint32_t add(Layer layer, std::uint64_t start, std::uint64_t end,
                    std::uint32_t parent, std::uint16_t run) {
    buf_.push_back({start, end, parent, run, layer, 0});
    return flushed_ + static_cast<std::uint32_t>(buf_.size() - 1);
  }
  /// Opens a span whose end is set by close().
  std::uint32_t open(Layer layer, std::uint32_t parent, std::uint16_t run) {
    return add(layer, now_ns(), 0, parent, run);
  }
  void close(std::uint32_t id) { buf_[id - flushed_].end_ns = now_ns(); }

  /// Folds buffered spans into self-time totals and writes them out. Every
  /// buffered span and its children must be closed.
  void flush() {
    std::vector<std::uint64_t> child_ns(buf_.size(), 0);
    for (const Span& s : buf_)
      if (s.parent != kNoParent && s.parent >= flushed_)
        child_ns[s.parent - flushed_] += s.end_ns - s.start_ns;
    for (std::size_t i = 0; i < buf_.size(); ++i) {
      const Span& s = buf_[i];
      total_ns_[s.run][s.layer] += s.end_ns - s.start_ns;
      self_ns_[s.run][s.layer] += s.end_ns - s.start_ns - child_ns[i];
      ++calls_[s.run][s.layer];
    }
    if (std::fwrite(buf_.data(), sizeof(Span), buf_.size(), file_) != buf_.size())
      throw std::runtime_error("span file write failed");
    flushed_ += static_cast<std::uint32_t>(buf_.size());
    buf_.clear();
  }

  double self_s(std::size_t run, Layer l) const {
    return static_cast<double>(self_ns_[run][l]) * 1e-9;
  }
  double total_s(std::size_t run, Layer l) const {
    return static_cast<double>(total_ns_[run][l]) * 1e-9;
  }
  std::uint64_t calls(std::size_t run, Layer l) const { return calls_[run][l]; }
  std::uint64_t spans() const { return flushed_; }

 private:
  std::vector<std::string> runs_;
  std::vector<std::array<std::uint64_t, kNumLayers>> total_ns_;
  std::vector<std::array<std::uint64_t, kNumLayers>> self_ns_;
  std::vector<std::array<std::uint64_t, kNumLayers>> calls_;
  Clock::time_point epoch_;
  std::vector<Span> buf_;
  std::uint32_t flushed_ = 0;
  std::FILE* file_ = nullptr;
};

/// Layer counters the traced replay reads from live objects.
struct LiveCounters {
  std::uint64_t index_hits = 0, index_misses = 0, ghost_hits = 0;
  std::uint64_t read_hits = 0, read_misses = 0;
  std::uint64_t ondisk_entries = 0, ondisk_disk_lookups = 0, bloom_negatives = 0;
  std::uint64_t chunks_deduped = 0, chunks_written = 0;  // warm-up included
  std::uint64_t events_executed = 0;
};

/// One replay driven from outside: the streaming-admission loop of
/// Replayer (an arrival is submitted when the simulator is idle or its time
/// is not after the next pending event; otherwise one event runs), with
/// every call into the engine and the simulator timed as a span. Fills the
/// same ReplayResult fields run_replay does, from the same accessors.
ReplayResult traced_replay(const RunSpec& spec, const Trace& trace,
                           SpanLog& log, std::uint16_t run,
                           LiveCounters& live) {
  const std::uint32_t root = log.open(kTracedRun, SpanLog::kNoParent, run);
  Simulator sim;
  LatencyAnatomy::Config acfg;
  acfg.tail_k = 0;
  LatencyAnatomy anatomy(acfg);
  sim.set_anatomy(&anatomy);

  const std::uint32_t build = log.open(kBuild, root, run);
  std::unique_ptr<Volume> volume = make_volume(sim, spec);
  std::unique_ptr<DedupEngine> engine = make_engine(sim, *volume, spec);
  log.close(build);

  ReplayResult result;
  result.engine_name = engine->name();
  result.trace_name = trace.name;

  const std::size_t first = trace.warmup_count;
  const std::size_t total = trace.requests.size();
  for (std::size_t i = 0; i < first; ++i) {
    const IoRequest& req = trace.requests[i];
    const std::uint64_t deduped = engine->stats().chunks_deduped;
    const std::uint64_t t0 = log.now_ns();
    engine->warm(req);
    const std::uint64_t t1 = log.now_ns();
    const Layer layer = req.is_read() ? kWarmRead
                        : engine->stats().chunks_deduped != deduped
                            ? kWarmDupWrite
                            : kWarmUniqueWrite;
    log.add(layer, t0, t1, root, run);
  }

  const EngineStats before = engine->stats();
  engine->begin_measured();
  const std::uint64_t scheduled_before = sim.events_scheduled();
  if (first < total) {
    const SimTime t0 = trace.requests[first].arrival;
    std::size_t next = first;
    SimTime last_arrival = 0;
    while (true) {
      if (next < total) {
        const IoRequest& req = trace.requests[next];
        const SimTime arrival = req.arrival - t0;
        if (arrival < last_arrival)
          throw std::runtime_error("trace " + trace.name + " is not time-ordered");
        if (sim.idle() || arrival <= sim.next_event_time()) {
          sim.advance_to(arrival);
          last_arrival = arrival;
          const OpType type = req.type;
          const std::uint64_t s = log.now_ns();
          engine->submit(req, [&sim, &result, arrival, type](IoStatus) {
            const Duration latency = sim.now() - arrival;
            result.all.add(latency);
            if (type == OpType::kWrite) result.writes.add(latency);
            else result.reads.add(latency);
          });
          log.add(type == OpType::kWrite ? kSubmitWrite : kSubmitRead, s,
                  log.now_ns(), root, run);
          ++next;
          continue;
        }
      }
      const std::uint64_t s = log.now_ns();
      if (!sim.step()) break;
      log.add(kStep, s, log.now_ns(), root, run);
    }
  }

  result.measured = EngineStats::delta(engine->stats(), before);
  result.events_scheduled = sim.events_scheduled() - scheduled_before;
  result.peak_event_depth = sim.peak_event_depth();
  result.physical_blocks_used = engine->physical_blocks_used();
  result.map_table_bytes = engine->map_table_bytes();
  result.map_table_max_bytes = engine->map_table_max_bytes();
  result.chunks_hashed = engine->hash_engine().chunks_hashed();
  result.read_cache_bytes = engine->read_cache().capacity_bytes();
  result.read_cache_hit_rate = engine->read_cache().hit_rate();
  if (const IndexCache* ic = engine->index_cache()) {
    result.index_cache_bytes = ic->capacity_bytes();
    result.index_cache_hit_rate = ic->hit_rate();
    live.index_hits += ic->hits();
    live.index_misses += ic->misses();
    live.ghost_hits += ic->ghost_hits();
  }
  if (const ICache* ic = engine->adaptive_cache()) {
    result.icache = ic->stats();
    result.final_index_fraction = ic->index_fraction();
  }
  result.makespan = sim.now();
  for (std::size_t d = 0; d < volume->num_disks(); ++d) {
    const DiskStats& ds = volume->disk(d).stats();
    result.disk_reads += ds.reads;
    result.disk_writes += ds.writes;
    ReplayResult::DiskBreakdown b;
    b.reads = ds.reads;
    b.writes = ds.writes;
    b.busy_ms = to_ms(ds.busy_time);
    b.mean_queue_depth = ds.queue_depth.mean();
    b.mean_seek_cylinders = ds.seek_cylinders.mean();
    result.per_disk.push_back(b);
  }
  result.volume_counters = volume->counters();
  result.anatomy = anatomy.take_result();

  live.read_hits += engine->read_cache().hits();
  live.read_misses += engine->read_cache().misses();
  live.ghost_hits += engine->read_cache().ghost_hits();
  if (const auto* fd = dynamic_cast<const FullDedupeEngine*>(engine.get())) {
    live.ondisk_entries += fd->ondisk_index().entries();
    live.ondisk_disk_lookups += fd->ondisk_index().disk_lookups();
    live.bloom_negatives += fd->ondisk_index().bloom_negative_hits();
  }
  live.chunks_deduped += engine->stats().chunks_deduped;
  live.chunks_written += engine->stats().chunks_written;
  live.events_executed += sim.events_executed();

  log.close(root);
  log.flush();
  return result;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double as_double(std::uint64_t v) { return static_cast<double>(v); }

/// Host time per layer from the spans, summed over the workload's runs.
void add_layer_metrics(Metrics& m, const SpanLog& log, std::size_t runs,
                       const LiveCounters& live,
                       const std::vector<ReplayResult>& traced) {
  auto layer_s = [&](Layer l) {
    double s = 0;
    for (std::size_t r = 0; r <= runs; ++r) s += log.self_s(r, l);
    return s;
  };
  auto calls = [&](Layer l) {
    std::uint64_t n = 0;
    for (std::size_t r = 0; r <= runs; ++r) n += log.calls(r, l);
    return as_double(n);
  };
  auto per_call_ns = [&](Layer l) { return ratio(layer_s(l) * 1e9, calls(l)); };

  m.add("synth.generate_s", layer_s(kSynthGenerate), "s");
  m.add("trace.load_s", layer_s(kTraceLoad), "s");
  m.add("engines.build_s", layer_s(kBuild), "s");
  m.add("engines.warm_read_ns", per_call_ns(kWarmRead), "ns");
  m.add("engines.warm_unique_write_ns", per_call_ns(kWarmUniqueWrite), "ns");
  m.add("engines.warm_dup_write_ns", per_call_ns(kWarmDupWrite), "ns");
  m.add("engines.warm_reads", calls(kWarmRead), "count");
  m.add("engines.warm_unique_writes", calls(kWarmUniqueWrite), "count");
  m.add("engines.warm_dup_writes", calls(kWarmDupWrite), "count");
  m.add("engines.submit_read_ns", per_call_ns(kSubmitRead), "ns");
  m.add("engines.submit_write_ns", per_call_ns(kSubmitWrite), "ns");
  m.add("engines.submit_reads", calls(kSubmitRead), "count");
  m.add("engines.submit_writes", calls(kSubmitWrite), "count");
  m.add("sim.step_s", layer_s(kStep), "s");
  m.add("sim.ns_per_event",
        ratio(layer_s(kStep) * 1e9, as_double(live.events_executed)), "ns");
  m.add("sim.events_executed", as_double(live.events_executed), "count");
  std::uint64_t peak_depth = 0;
  for (const ReplayResult& r : traced)
    peak_depth = std::max(peak_depth, r.peak_event_depth);
  m.add("sim.peak_event_depth", as_double(peak_depth), "count");
  m.add("replay.loop_self_s", layer_s(kTracedRun), "s");
}

/// Cache, dedup, disk, RAID, anatomy and iCache counters. Disk, RAID and
/// anatomy describe the headline engine's runs; the rest sums every run.
void add_counter_metrics(Metrics& m, const Workload& w,
                         const std::vector<ParallelRunner::RunItem>& items,
                         const std::vector<ReplayResult>& traced,
                         const LiveCounters& live) {
  m.add("cache.index_hits", as_double(live.index_hits), "count");
  m.add("cache.index_misses", as_double(live.index_misses), "count");
  m.add("cache.index_hit_rate",
        ratio(as_double(live.index_hits),
              as_double(live.index_hits + live.index_misses)),
        "ratio");
  m.add("cache.ghost_hits", as_double(live.ghost_hits), "count");
  m.add("cache.read_hit_rate",
        ratio(as_double(live.read_hits), as_double(live.read_hits + live.read_misses)),
        "ratio");

  std::uint64_t hashed = 0, index_disk_reads = 0, map_bytes = 0;
  for (const ReplayResult& r : traced) {
    hashed += r.chunks_hashed;
    index_disk_reads += r.measured.index_disk_reads;
    map_bytes += r.map_table_bytes;
  }
  m.add("dedup.chunks_hashed", as_double(hashed), "count");
  m.add("dedup.dedup_ratio",
        ratio(as_double(live.chunks_deduped),
              as_double(live.chunks_deduped + live.chunks_written)),
        "ratio");
  m.add("dedup.ondisk_entries", as_double(live.ondisk_entries), "count");
  m.add("dedup.ondisk_disk_lookups", as_double(live.ondisk_disk_lookups), "count");
  m.add("dedup.bloom_negatives", as_double(live.bloom_negatives), "count");
  m.add("dedup.index_disk_reads", as_double(index_disk_reads), "count");
  m.add("dedup.map_table_bytes", as_double(map_bytes), "bytes");

  std::uint64_t dreads = 0, dwrites = 0, measured = 0, rmw = 0, full = 0;
  double busy = 0, qdepth = 0, seek = 0, disks = 0;
  std::array<Duration, kNumLatComps> comp{};
  std::uint64_t anat_requests = 0;
  ICacheStats ic;
  double fraction = 0, pod_runs = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const ReplayResult& r = traced[i];
    if (items[i].spec.engine == EngineKind::kPod) {
      ic.adaptations += r.icache.adaptations;
      ic.grew_index += r.icache.grew_index;
      ic.grew_read += r.icache.grew_read;
      ic.swap_blocks_read += r.icache.swap_blocks_read;
      ic.swap_blocks_written += r.icache.swap_blocks_written;
      fraction += r.final_index_fraction;
      ++pod_runs;
    }
    if (items[i].spec.engine != w.headline) continue;
    dreads += r.disk_reads;
    dwrites += r.disk_writes;
    measured += r.all.count();
    rmw += r.volume_counters.rmw_writes;
    full += r.volume_counters.full_stripe_writes;
    for (const ReplayResult::DiskBreakdown& d : r.per_disk) {
      busy += d.busy_ms;
      qdepth += d.mean_queue_depth;
      seek += d.mean_seek_cylinders;
      ++disks;
    }
    for (std::size_t c = 0; c < kNumLatComps; ++c) comp[c] += r.anatomy.total[c];
    anat_requests += r.anatomy.requests;
  }
  m.add("disk.reads", as_double(dreads), "count");
  m.add("disk.writes", as_double(dwrites), "count");
  m.add("disk.busy_ms", busy, "ms");
  m.add("disk.mean_queue_depth", ratio(qdepth, disks), "count");
  m.add("disk.mean_seek_cylinders", ratio(seek, disks), "count");
  m.add("disk.ops_per_request", ratio(as_double(dreads + dwrites), as_double(measured)),
        "ratio");
  const std::array<std::pair<const char*, LatComp>, 5> shown = {{
      {"anatomy.queue_wait_ms", LatComp::kQueueWait},
      {"anatomy.seek_ms", LatComp::kSeek},
      {"anatomy.rotation_ms", LatComp::kRotation},
      {"anatomy.transfer_ms", LatComp::kTransfer},
      {"anatomy.dedup_meta_ms", LatComp::kDedupMeta},
  }};
  for (const auto& [name, c] : shown)
    m.add(name,
          ratio(static_cast<double>(comp[static_cast<std::size_t>(c)]) / kMillisecond,
                as_double(anat_requests)),
          "ms");
  m.add("raid.rmw_writes", as_double(rmw), "count");
  m.add("raid.full_stripe_writes", as_double(full), "count");
  m.add("icache.adaptations", as_double(ic.adaptations), "count");
  m.add("icache.grew_index", as_double(ic.grew_index), "count");
  m.add("icache.grew_read", as_double(ic.grew_read), "count");
  m.add("icache.swap_blocks_read", as_double(ic.swap_blocks_read), "blocks");
  m.add("icache.swap_blocks_written", as_double(ic.swap_blocks_written), "blocks");
  m.add("icache.final_index_fraction", ratio(fraction, pod_runs), "ratio");
}

/// Host time of the untraced reference runs per trace (and, as detail, per
/// run), the fan-out's makespan against its bound, helper-thread CPU and
/// the tracing overhead.
void add_replay_metrics(Metrics& m, const Workload& w,
                        const std::vector<ParallelRunner::RunItem>& items,
                        const SpanLog& log, double makespan_s, double cpu_s) {
  double longest = 0, sum = 0, traced = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const double s = log.self_s(i, kRunReplay);
    longest = std::max(longest, s);
    sum += s;
    traced += log.total_s(i, kTracedRun);
  }
  for (const std::string& t : kPaperTraces) {
    double v = 0;
    for (std::size_t i = 0; i < items.size(); ++i)
      if (items[i].trace->name == t) {
        v += log.self_s(i, kRunReplay);
        m.add("replay.run_s." + items[i].label, log.self_s(i, kRunReplay), "s",
              false);
      }
    m.add("replay.run_s." + t, v, "s");
  }
  m.add("replay.makespan_over_bound",
        ratio(makespan_s, std::max(longest, sum / static_cast<double>(w.jobs))),
        "ratio");
  m.add("replay.cpu_s", cpu_s, "s");
  m.add("replay.tracing_overhead_pct", 100.0 * ratio(traced - sum, sum), "%");
}

/// Request-class host throughput of the traced warm-up, over the workload
/// and (as detail) per engine.
void add_class_metrics(Metrics& m, const Workload& w,
                       const std::vector<ParallelRunner::RunItem>& items,
                       const SpanLog& log) {
  const std::array<std::pair<const char*, Layer>, 3> classes = {{
      {"read", kWarmRead},
      {"unique_write", kWarmUniqueWrite},
      {"dup_write", kWarmDupWrite},
  }};
  for (const auto& [cls, layer] : classes) {
    double all_s = 0, all_n = 0;
    for (EngineKind k : w.engines) {
      double s = 0, n = 0;
      for (std::size_t i = 0; i < items.size(); ++i)
        if (items[i].spec.engine == k) {
          s += log.self_s(i, layer);
          n += as_double(log.calls(i, layer));
        }
      m.add(std::string("class_rps.") + to_string(k) + "." + cls, ratio(n, s),
            "1/s", false);
      all_s += s;
      all_n += n;
    }
    m.add(std::string("class_rps.") + cls, ratio(all_n, all_s), "1/s");
  }
}

/// One traced pass: warm load, cold generation, untraced reference runs
/// (serial, then through ParallelRunner when the workload fans out), then
/// the outside-driven replays. Adds every per-layer metric to `m`.
void traced_pass(const Options& o, const Workload& w,
                 const std::vector<WorkloadProfile>& ps, Gate& gate,
                 Metrics& m, std::vector<SimOutcome>& first_pass) {
  std::vector<std::string> run_names;
  for (const WorkloadProfile& p : ps)
    for (EngineKind k : w.engines) run_names.push_back(p.name + "." + to_string(k));
  SpanLog log(o.out_dir + "/spans-" + w.name + ".bin", run_names);
  const std::uint16_t wl = log.workload_run();

  std::vector<Trace> traces;
  for (const WorkloadProfile& p : ps) {
    const std::uint32_t s = log.open(kTraceLoad, SpanLog::kNoParent, wl);
    traces.push_back(load_trace(o, p));
    log.close(s);
  }
  for (std::size_t t = 0; t < ps.size(); ++t) {
    const std::uint32_t s = log.open(kSynthGenerate, SpanLog::kNoParent, wl);
    const Trace fresh = TraceGenerator(ps[t]).generate();
    log.close(s);
    gate.check(same_trace(fresh, traces[t]),
               ps[t].name + ": cached trace differs from a fresh generation");
  }
  log.flush();
  const std::vector<ParallelRunner::RunItem> items = items_for(w, ps, traces, o);

  // Untraced reference: each run alone, then the workload's fan-out.
  std::vector<SimOutcome> want;
  double makespan_s = 0;
  const double cpu0 = process_cpu_seconds();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::uint32_t s =
        log.open(kRunReplay, SpanLog::kNoParent, static_cast<std::uint16_t>(i));
    want.push_back(outcome_of(run_replay(items[i].spec, *items[i].trace)));
    log.close(s);
  }
  const double cpu_s = process_cpu_seconds() - cpu0;
  log.flush();
  for (std::size_t i = 0; i < items.size(); ++i) makespan_s += log.self_s(i, kRunReplay);
  if (first_pass.empty()) first_pass = want;
  else check_same(gate, items, first_pass, want, "simulated result changed between passes");
  if (w.jobs > 1) {
    const std::uint32_t s = log.open(kParallelPass, SpanLog::kNoParent, wl);
    const std::vector<ReplayResult> par = ParallelRunner(w.jobs).run(items);
    log.close(s);
    log.flush();
    makespan_s = log.self_s(wl, kParallelPass);
    std::vector<SimOutcome> got;
    for (const ReplayResult& r : par) got.push_back(outcome_of(r));
    check_same(gate, items, want, got, "ParallelRunner result differs from serial run_replay");
  }

  // Outside-driven, traced replays.
  LiveCounters live;
  std::vector<ReplayResult> traced;
  for (std::size_t i = 0; i < items.size(); ++i) {
    traced.push_back(traced_replay(items[i].spec, *items[i].trace, log,
                                   static_cast<std::uint16_t>(i), live));
    gate.count_run(traced.back(), items[i].trace->requests.size());
    gate.check(outcome_of(traced.back()) == want[i],
               items[i].label + ": traced replay differs from run_replay");
    gate.check(traced.back().anatomy.sum_mismatches == 0,
               items[i].label + ": latency anatomy does not sum exactly");
  }
  if (!o.tiny) check_paper_orderings(gate, w, items, traced);

  add_layer_metrics(m, log, items.size(), live, traced);
  add_counter_metrics(m, w, items, traced, live);
  add_replay_metrics(m, w, items, log, makespan_s, cpu_s);
  add_class_metrics(m, w, items, log);
  std::printf("spans written: %llu\n", static_cast<unsigned long long>(log.spans()));
}

int run_traced(const Options& o, const Workload& w) {
  const std::vector<WorkloadProfile> ps = profiles_for(o);
  prepare_cache(o, ps);
  Gate gate;
  Metrics m;
  std::vector<SimOutcome> first_pass;
  const Clock::time_point start = Clock::now();
  int passes = 0;
  double pass_s = 0;
  while (passes == 0 || seconds_since(start) + pass_s <= o.seconds) {
    const Clock::time_point t0 = Clock::now();
    traced_pass(o, w, ps, gate, m, first_pass);
    pass_s = seconds_since(t0);
    ++passes;
  }
  std::printf("workload %s traced: %d passes, seed %llu\n", w.name, passes,
              static_cast<unsigned long long>(o.seed));

  // Request-class table (requests/s of host time, traced warm-up).
  std::printf("%-14s %14s %14s %14s\n", "engine", "read", "unique_write", "dup_write");
  for (EngineKind k : w.engines) {
    auto v = [&](const char* cls) {
      for (const Metrics::Entry& e : m.entries)
        if (e.name == std::string("class_rps.") + to_string(k) + "." + cls)
          return median(e.samples);
      return 0.0;
    };
    std::printf("%-14s %14.0f %14.0f %14.0f\n", to_string(k), v("read"),
                v("unique_write"), v("dup_write"));
  }
  print_result(gate, m);
  return gate.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pod::perfbench

int main(int argc, char** argv) {
  using namespace pod::perfbench;
  const Options o = parse_args(argc, argv);
  const Workload& w = workload_for(o);
  try {
    if (o.prepare) {
      prepare_cache(o, profiles_for(o));
      return 0;
    }
    return o.traced ? run_traced(o, w) : run_untraced(o, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pod_perfbench: %s\n", e.what());
    return 2;
  }
}
