// Microbenchmarks (google-benchmark) for the hot substrate paths: hashing,
// cache operations, the disk service model, RAID mapping, categorisation
// and trace generation.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/index_cache.hpp"
#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "dedup/categorizer.hpp"
#include "dedup/chunker.hpp"
#include "disk/disk.hpp"
#include "disk/hdd_model.hpp"
#include "hash/sha1.hpp"
#include "hash/xx64.hpp"
#include "raid/raid5.hpp"
#include "replay/replayer.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"

namespace pod {
namespace {

void BM_Sha1_4K(benchmark::State& state) {
  std::vector<std::uint8_t> data(kBlockSize, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlockSize));
}
BENCHMARK(BM_Sha1_4K);

void BM_Xx64_4K(benchmark::State& state) {
  std::vector<std::uint8_t> data(kBlockSize, 0xCD);
  for (auto _ : state) {
    benchmark::DoNotOptimize(xx64(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlockSize));
}
BENCHMARK(BM_Xx64_4K);

void BM_FingerprintOfContentId(benchmark::State& state) {
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fingerprint::of_content_id(id++));
  }
}
BENCHMARK(BM_FingerprintOfContentId);

/// A fingerprint table holding `n` keys on disk only (Full-Dedupe's
/// on-disk index behind an index cache that caches nothing).
FingerprintTable on_disk_table(std::uint64_t n) {
  FingerprintTable table(0);
  for (std::uint64_t i = 0; i < n; ++i) {
    const Fingerprint fp = Fingerprint::of_content_id(i);
    table.put_on_disk(table.hash_tag(fp), fp, i);
  }
  return table;
}

// Fingerprint -> on-disk Pba probe against the index cache's table: half
// the probes hit, half miss (the bloom-negative path's companion case).
void BM_FingerprintIndexProbe(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  const FingerprintTable table = on_disk_table(n);
  Rng rng(11);
  for (auto _ : state) {
    const Fingerprint fp = Fingerprint::of_content_id(rng.uniform(0, 2 * n));
    benchmark::DoNotOptimize(
        table.on_disk_pba(table.find(table.hash_tag(fp), fp)));
  }
}
BENCHMARK(BM_FingerprintIndexProbe)->Arg(65536)->Arg(1 << 20);

// Per-key probing of the fingerprint table, 16 keys (one request's worth)
// per iteration, half hits / half misses: at 1K entries the table is
// cache-resident, at 1M entries every probe is a DRAM miss.
void BM_IndexProbe_Scalar(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  const FingerprintTable table = on_disk_table(n);
  Rng rng(12);
  std::vector<Fingerprint> keys(1 << 16);
  for (auto& k : keys) k = Fingerprint::of_content_id(rng.uniform(0, 2 * n));
  std::size_t pos = 0;
  for (auto _ : state) {
    for (std::size_t j = 0; j < 16; ++j) {
      const Fingerprint& fp = keys[pos + j];
      benchmark::DoNotOptimize(table.find(table.hash_tag(fp), fp));
    }
    pos = (pos + 16) & (keys.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_IndexProbe_Scalar)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void BM_IndexCacheLookup(benchmark::State& state) {
  IndexCache cache(static_cast<std::uint64_t>(state.range(0)) *
                   IndexCache::kEntryBytes);
  cache.enable_ghost(1024);
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(state.range(0)); ++i)
    cache.insert(Fingerprint::of_content_id(i), i);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(Fingerprint::of_content_id(
        rng.uniform(0, static_cast<std::uint64_t>(state.range(0)) * 2))));
  }
}
BENCHMARK(BM_IndexCacheLookup)->Arg(65536);

// The classify hot path, both probe modes over one 16-chunk request span
// against an at-capacity IndexCache (~half the keys miss; misses
// ghost-probe, like the engine loop). Scalar = per-chunk reference,
// Fused = single-pass lookup_fused (one hash and one probe per key answer
// hit, ghost hit or miss, under a bounded-lookahead prefetch pipeline).
// The interesting args are the oversubscribed sizes (1<<20 and up), where
// the table no longer fits in LLC and the prefetch pipeline pays; 1<<23
// (~720 MB of slots and table) stays DRAM-resident even on hosts with
// triple-digit-MB LLCs.
namespace {
IndexCache& lookup_bench_cache(std::uint64_t entries) {
  // Shared across the two variants at each size: building a 4M-entry
  // cache dominates setup time, and the probes below don't perturb each
  // other beyond LRU order (identical key streams).
  static std::map<std::uint64_t, std::unique_ptr<IndexCache>> caches;
  auto& slot = caches[entries];
  if (!slot) {
    slot = std::make_unique<IndexCache>(entries * IndexCache::kEntryBytes);
    slot->enable_ghost(static_cast<std::size_t>(entries / 4 + 1024));
    // 2x inserts: the first half spills into the ghost list.
    for (std::uint64_t i = 0; i < 2 * entries; ++i)
      slot->insert(Fingerprint::of_content_id(i), i);
  }
  return *slot;
}

std::vector<Fingerprint>& lookup_bench_keys(std::uint64_t entries) {
  static std::map<std::uint64_t, std::vector<Fingerprint>> all;
  auto& keys = all[entries];
  if (keys.empty()) {
    Rng rng(12);
    keys.resize(1 << 16);
    // Keys span 4x the resident range: ~1/4 hit, the rest miss (and age
    // out any ghost entries early, so steady state is identical across
    // variants).
    for (auto& k : keys)
      k = Fingerprint::of_content_id(rng.uniform(0, 4 * entries));
  }
  return keys;
}
}  // namespace

void BM_IndexLookup_Scalar(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  IndexCache& cache = lookup_bench_cache(n);
  const std::vector<Fingerprint>& keys = lookup_bench_keys(n);
  std::size_t pos = 0;
  for (auto _ : state) {
    for (std::size_t j = 0; j < 16; ++j) {
      const IndexEntry* e = cache.lookup(keys[pos + j]);
      benchmark::DoNotOptimize(e);
      if (e == nullptr) benchmark::DoNotOptimize(cache.ghost_probe(keys[pos + j]));
    }
    pos = (pos + 16) & (keys.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_IndexLookup_Scalar)->Arg(65536)->Arg(1 << 20)->Arg(1 << 22)->Arg(1 << 23);

void BM_IndexLookup_Fused(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  IndexCache& cache = lookup_bench_cache(n);
  const std::vector<Fingerprint>& keys = lookup_bench_keys(n);
  std::size_t pos = 0;
  const IndexEntry* out[16];
  for (auto _ : state) {
    cache.lookup_fused({keys.data() + pos, 16}, out);
    benchmark::DoNotOptimize(out);
    pos = (pos + 16) & (keys.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_IndexLookup_Fused)->Arg(65536)->Arg(1 << 20)->Arg(1 << 22)->Arg(1 << 23);

// The metadata-update floor: 16 inserts (one request's tail loop) per
// iteration into a full cache — most inserts evict into the ghost list.
// The batch form hashes and home-group-prefetches the whole request before
// the first insert resolves.
void BM_IndexInsert_Scalar(benchmark::State& state) {
  const auto entries = static_cast<std::uint64_t>(state.range(0));
  IndexCache cache(entries * IndexCache::kEntryBytes);
  cache.enable_ghost(static_cast<std::size_t>(entries));
  for (std::uint64_t i = 0; i < entries; ++i)
    cache.insert(Fingerprint::of_content_id(i + (1ull << 40)), i);
  Rng rng(34);
  std::vector<Fingerprint> keys(1 << 16);
  std::vector<Pba> pbas(1 << 16);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = Fingerprint::of_content_id(rng.uniform(0, 4 * entries));
    pbas[i] = i;
  }
  std::size_t pos = 0;
  for (auto _ : state) {
    for (std::size_t j = 0; j < 16; ++j)
      cache.insert(keys[pos + j], pbas[pos + j]);
    pos = (pos + 16) & (keys.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_IndexInsert_Scalar)->Arg(1024)->Arg(65536)->Arg(1 << 20)->Arg(1 << 22);

void BM_IndexInsert_Batch(benchmark::State& state) {
  const auto entries = static_cast<std::uint64_t>(state.range(0));
  IndexCache cache(entries * IndexCache::kEntryBytes);
  cache.enable_ghost(static_cast<std::size_t>(entries));
  for (std::uint64_t i = 0; i < entries; ++i)
    cache.insert(Fingerprint::of_content_id(i + (1ull << 40)), i);
  Rng rng(34);
  std::vector<Fingerprint> keys(1 << 16);
  std::vector<Pba> pbas(1 << 16);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = Fingerprint::of_content_id(rng.uniform(0, 4 * entries));
    pbas[i] = i;
  }
  std::size_t pos = 0;
  for (auto _ : state) {
    cache.insert_batch(keys.data() + pos, pbas.data() + pos, 16);
    pos = (pos + 16) & (keys.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_IndexInsert_Batch)->Arg(1024)->Arg(65536)->Arg(1 << 20)->Arg(1 << 22);

// The eviction path as POD runs it: a full cache with a full ghost list
// and a full iCache spill list. Every insert is a fresh key, so each one
// evicts the resident LRU onto the ghost and spill lists, and each of
// those drops its own LRU (erasing keys that leave their last list).
void BM_IndexInsertEvict(benchmark::State& state) {
  const auto entries = static_cast<std::uint64_t>(state.range(0));
  IndexCache cache(entries * IndexCache::kEntryBytes);
  cache.enable_ghost(static_cast<std::size_t>(2 * entries));
  cache.enable_spill(static_cast<std::size_t>(2 * entries));
  std::uint64_t next = 0;
  for (; next < 5 * entries; ++next)
    cache.insert(Fingerprint::of_content_id(next), next);
  std::vector<Fingerprint> keys(16);
  std::vector<Pba> pbas(16);
  for (auto _ : state) {
    for (std::size_t j = 0; j < 16; ++j, ++next) {
      keys[j] = Fingerprint::of_content_id(next);
      pbas[j] = next;
    }
    cache.insert_batch(keys.data(), pbas.data(), 16);
    benchmark::DoNotOptimize(cache.spill_size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_IndexInsertEvict)->Arg(1024)->Arg(65536)->Arg(1 << 18);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(static_cast<std::uint64_t>(state.range(0)), 0.9);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1 << 10)->Arg(1 << 24);

void BM_HddServiceModel(benchmark::State& state) {
  HddModel model;
  Rng rng(4);
  std::uint64_t head = 0;
  for (auto _ : state) {
    const std::uint64_t block = rng.uniform(0, model.total_blocks() - 9);
    const std::uint64_t cylinder = model.cylinder_of(block);
    const auto svc = model.service(head, cylinder, block, 8, 12345678, false);
    benchmark::DoNotOptimize(svc.total());
    head = cylinder;
  }
}
BENCHMARK(BM_HddServiceModel);

// One disk op's host round trip: submit (queue slot, cylinder, dispatch of
// the next op), then the Simulator::step that runs its completion event and
// fires its callback. Three ops stay queued ahead, so every step completes
// one op and dispatches the next; one op per iteration.
void BM_DiskOpRoundTrip(benchmark::State& state) {
  Simulator sim;
  HddGeometry g;
  g.total_blocks = 1 << 20;
  Disk disk(sim, HddModel(g, HddTiming{}));
  Rng rng(7);
  std::uint64_t completed = 0;
  auto submit = [&] {
    disk.submit(OpType::kRead, rng.uniform(0, g.total_blocks - 9), 8,
                [&completed](IoStatus) { ++completed; });
  };
  for (int i = 0; i < 3; ++i) submit();
  for (auto _ : state) {
    submit();
    sim.step();
  }
  sim.run();
  benchmark::DoNotOptimize(completed);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DiskOpRoundTrip);

void BM_Raid5PlanSmallWrite(benchmark::State& state) {
  Simulator sim;
  ArrayConfig cfg;
  cfg.num_disks = 4;
  cfg.stripe_unit_blocks = 16;
  cfg.disk_geometry.total_blocks = 1 << 20;
  Raid5 raid(sim, cfg);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        raid.plan_write(rng.uniform(0, raid.capacity_blocks() - 4), 2));
  }
}
BENCHMARK(BM_Raid5PlanSmallWrite);

void BM_Categorize(benchmark::State& state) {
  Rng rng(6);
  std::vector<ChunkDup> chunks(16);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    chunks[i].redundant = rng.chance(0.5);
    chunks[i].pba = 1000 + i;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(categorize(chunks, 3));
  }
}
BENCHMARK(BM_Categorize);

// The whole Select-Dedupe host-side write path — probe, categorise,
// metadata spans, plan building — via warm() (functional execution, no
// event simulation), replaying a synthetic trace's writes in a loop.
// Arg: 0 = fused probes (default), 1 = scalar_probes (the retained
// per-chunk reference path); the pair's ratio is the hot-path speedup.
void BM_SelectDedupeWrite(benchmark::State& state) {
  WorkloadProfile p = tiny_test_profile();
  p.warmup_requests = 0;
  p.measured_requests = 4000;
  const Trace trace = TraceGenerator(p).generate();

  Simulator sim;
  RunSpec spec;
  spec.engine = EngineKind::kSelectDedupe;
  spec.engine_cfg.logical_blocks = p.volume_blocks;
  spec.engine_cfg.memory_bytes = 2 * kMiB;
  spec.engine_cfg.scalar_probes = state.range(0) != 0;
  std::unique_ptr<Volume> volume = make_volume(sim, spec);
  std::unique_ptr<DedupEngine> engine = make_engine(sim, *volume, spec);

  std::size_t i = 0;
  std::int64_t chunks = 0;
  for (auto _ : state) {
    const IoRequest& req = trace.requests[i];
    if (++i == trace.requests.size()) i = 0;
    if (req.type != OpType::kWrite) continue;
    engine->warm(req);
    chunks += req.nblocks;
  }
  state.SetItemsProcessed(chunks);
}
BENCHMARK(BM_SelectDedupeWrite)->Arg(0)->Arg(1);

void BM_FixedChunk64K(benchmark::State& state) {
  HashEngine engine;
  const Chunker chunker;
  std::vector<std::uint8_t> data(64 * 1024);
  Rng rng(7);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.chunk(data, engine));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_FixedChunk64K);

void BM_RabinChunk64K(benchmark::State& state) {
  HashEngine engine;
  ChunkingConfig cfg;
  cfg.mode = ChunkingMode::kCdc;
  const Chunker chunker(cfg);
  std::vector<std::uint8_t> data(64 * 1024);
  Rng rng(8);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.chunk(data, engine));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_RabinChunk64K);

void BM_TraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    WorkloadProfile p = tiny_test_profile();
    p.measured_requests = 2000;
    p.warmup_requests = 0;
    benchmark::DoNotOptimize(TraceGenerator(p).generate());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_TraceGeneration);

// Raw event push/run throughput at a steady queue depth — isolates the
// binary-heap + pooled-slot event path from simulator bookkeeping.
void BM_EventQueuePushPop(benchmark::State& state) {
  EventQueue q;
  const int depth = static_cast<int>(state.range(0));
  SimTime now = 0;
  std::uint64_t counter = 0;
  for (int i = 0; i < depth; ++i)
    q.push(now + i, [&counter] { ++counter; });
  for (auto _ : state) {
    now = q.run_next();
    q.push(now + depth, [&counter] { ++counter; });
  }
  benchmark::DoNotOptimize(counter);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(16)->Arg(1024);

/// Replays POD over a small synthetic trace with the given telemetry and
/// anatomy choices: the telemetry and anatomy overhead pairs below.
void replay_small_pod(benchmark::State& state, const TelemetryConfig& telemetry,
                      std::optional<LatencyAnatomy::Config> anatomy) {
  WorkloadProfile p = tiny_test_profile();
  p.warmup_requests = 500;
  p.measured_requests = 2000;
  const Trace t = TraceGenerator(p).generate();
  RunSpec spec;
  spec.engine = EngineKind::kPod;
  spec.engine_cfg.logical_blocks = p.volume_blocks;
  spec.engine_cfg.memory_bytes = 2 * kMiB;
  spec.telemetry = telemetry;
  spec.anatomy = anatomy;
  for (auto _ : state) benchmark::DoNotOptimize(run_replay(spec, t));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
}

// Telemetry-off overhead tripwire: with no sink configured, every
// instrumentation site reduces to one branch on a null pointer, so a full
// replay must cost what it did before the telemetry subsystem existed.
// Compare against BM_ReplayTelemetryOn for the enabled cost.
void BM_ReplayTelemetryOff(benchmark::State& state) {
  replay_small_pod(state, {}, std::nullopt);
}
BENCHMARK(BM_ReplayTelemetryOff);

void BM_ReplayTelemetryOn(benchmark::State& state) {
  const std::string dir =
      std::filesystem::temp_directory_path() / "pod_bench_telemetry";
  std::filesystem::create_directories(dir);
  TelemetryConfig telemetry;
  telemetry.trace_events_path = dir + "/trace.json";
  telemetry.timeseries_path = dir + "/series.csv";
  replay_small_pod(state, telemetry, std::nullopt);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ReplayTelemetryOn);

// Latency-anatomy overhead pair: attribution inherits the telemetry
// contract, so the off path must again be one null-pointer branch per
// charge site. Compare Off vs On for the enabled attribution cost.
void BM_ReplayAnatomyOff(benchmark::State& state) {
  replay_small_pod(state, {}, std::nullopt);
}
BENCHMARK(BM_ReplayAnatomyOff);

void BM_ReplayAnatomyOn(benchmark::State& state) {
  replay_small_pod(state, {}, LatencyAnatomy::Config{64});
}
BENCHMARK(BM_ReplayAnatomyOn);

// The event path as a replay drives it: one simulator for the whole run,
// a handful of pending events (replays peak at 4-7), and each event
// scheduling its successor. kChains self-rescheduling chains with
// different gaps keep the queue at kChains events and make the heap
// reorder; every iteration runs exactly kEventsPerIter events.
void BM_SimulatorEventThroughput(benchmark::State& state) {
  constexpr std::int64_t kChains = 6;
  constexpr std::int64_t kEventsPerIter = 10000;
  struct Tick {
    Simulator* sim;
    std::int64_t* left;
    Duration gap;
    void operator()() const {
      if (*left == 0) return;
      --*left;
      sim->schedule_after(gap, *this);
    }
  };
  Simulator sim;
  std::int64_t left = 0;
  for (auto _ : state) {
    left = kEventsPerIter - kChains;
    for (std::int64_t c = 0; c < kChains; ++c)
      sim.schedule_after(c, Tick{&sim, &left, 1000 + 137 * c});
    sim.run();
    benchmark::DoNotOptimize(left);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kEventsPerIter);
}
BENCHMARK(BM_SimulatorEventThroughput);

}  // namespace
}  // namespace pod

BENCHMARK_MAIN();
