#include "replay/replayer.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>

#include "common/check.hpp"
#include "common/resource.hpp"
#include "common/spsc_ring.hpp"
#include "engines/full_dedupe.hpp"
#include "engines/idedup.hpp"
#include "engines/io_dedup.hpp"
#include "engines/native.hpp"
#include "engines/select_dedupe.hpp"
#include "raid/raid0.hpp"
#include "raid/raid5.hpp"
#include "telemetry/telemetry.hpp"

namespace pod {

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNative: return "native";
    case EngineKind::kFullDedupe: return "full-dedupe";
    case EngineKind::kIDedup: return "idedup";
    case EngineKind::kSelectDedupe: return "select-dedupe";
    case EngineKind::kPod: return "pod";
    case EngineKind::kIoDedup: return "io-dedup";
    case EngineKind::kPostProcess: return "post-process";
  }
  return "?";
}

DesThread des_thread_for_jobs(std::size_t jobs) {
  const unsigned hw = std::thread::hardware_concurrency();
  return 2 * jobs <= hw ? DesThread::kHelper : DesThread::kInline;
}

namespace {

/// The streaming-admission loop: the next arrival is admitted as soon as
/// it is not later than every pending simulation event (ties admit the
/// arrival first: a prescheduled arrival would carry a smaller sequence
/// number than any event scheduled during the run); otherwise one event
/// runs. Trace arrivals never enter the event heap at all. `take(req, arrival)` yields the
/// request's prepared form (null ends the loop: its producer stopped) and
/// `release()` returns it once executed.
template <typename Take, typename Release, typename Admit, typename Record>
void stream_measured(Simulator& sim, DedupEngine& engine, const Trace& trace,
                     SimTime t0, Take&& take, Release&& release,
                     const Admit& admit, const Record& record) {
  const std::size_t total = trace.requests.size();
  std::size_t next = trace.warmup_count;
  SimTime last_arrival = 0;
  while (true) {
    if (next < total) {
      const IoRequest& req = trace.requests[next];
      const SimTime arrival = req.arrival - t0;
      if (arrival < last_arrival)
        throw std::runtime_error("streaming replay: trace \"" + trace.name +
                                 "\" is not time-ordered");
      if (sim.idle() || arrival <= sim.next_event_time()) {
        sim.advance_to(arrival);
        last_arrival = arrival;
        // Before prepare: an inline run's telemetry samples the engine as
        // it stood when the request arrived.
        admit(req, arrival);
        DedupEngine::Prepared* p = take(req, arrival);
        if (p == nullptr) return;
        engine.execute(*p, record(arrival, req.type, req.id));
        release();
        ++next;
        continue;
      }
    }
    if (!sim.step()) break;
  }
}

}  // namespace

ReplayResult Replayer::replay(Simulator& sim, DedupEngine& engine,
                              const Trace& trace) {
  ReplayResult result;
  result.engine_name = engine.name();
  result.trace_name = trace.name;

  // Phase 1: functional warm-up.
  const HostTimer warm_timer;
  for (std::size_t i = 0; i < trace.warmup_count; ++i)
    engine.warm(trace.requests[i]);
  result.host_warmup = warm_timer.elapsed();

  // Phase 2: timed replay of the measured suffix, arrivals rebased to 0.
  engine.begin_measured();

  const std::size_t first = trace.warmup_count;
  const std::size_t total = trace.requests.size();
  const std::size_t count = total - first;
  if (count == 0) return result;
  const SimTime t0 = trace.requests[first].arrival;
  const std::uint64_t scheduled_before = sim.events_scheduled();

  // Telemetry is observation-only here: no simulator events are scheduled
  // for it (the sampler is polled at arrivals/completions), so the event
  // stream — and every result byte — is identical with it on or off.
  Telemetry* const telem = sim.telemetry();
  TraceEventWriter* const trace_w = telem != nullptr ? telem->trace() : nullptr;

  auto admit = [telem, trace_w](const IoRequest& req, SimTime arrival) {
    if (telem == nullptr) return;
    telem->maybe_sample(arrival);
    if (trace_w != nullptr)
      trace_w->async_begin(kTraceCatRequest, req.id,
                           req.is_write() ? "write" : "read", arrival,
                           {{"lba", req.lba}, {"nblocks", req.nblocks}});
  };

  // The returned recorder takes (and ignores) the request's IoStatus so it
  // binds directly into the engine's IoDoneFn — inline, no std::function
  // wrapper allocation per request.
  auto record = [&sim, &result, telem, trace_w](SimTime arrival, OpType type,
                                                std::uint64_t id) {
    return [&sim, &result, telem, trace_w, arrival, type, id](IoStatus) {
      const Duration latency = sim.now() - arrival;
      result.all.add(latency);
      if (type == OpType::kWrite) result.writes.add(latency);
      else result.reads.add(latency);
      if (telem != nullptr) {
        if (trace_w != nullptr)
          trace_w->async_end(kTraceCatRequest, id,
                             type == OpType::kWrite ? "write" : "read",
                             sim.now());
        telem->maybe_sample(sim.now());
      }
    };
  };

  if (des_ == DesThread::kHelper && engine.can_prepare_ahead()) {
    // Pipelined: this thread prepares every measured request in trace
    // order (the policy never waits for a completion, so it can run ahead
    // of the clock); the helper admits, executes and steps.
    SpscRing<DedupEngine::Prepared> ring(ring_slots_, ring_slots_ / 16);
    std::exception_ptr des_error;
    std::thread des([&] {
      const HostTimer des_timer;
      try {
        stream_measured(
            sim, engine, trace, t0,
            [&ring](const IoRequest&, SimTime) { return ring.front(); },
            [&ring] { ring.pop(); }, admit, record);
      } catch (...) {
        des_error = std::current_exception();
      }
      // Empty the ring to its end, so the producer never waits on a
      // consumer that has stopped.
      while (ring.front() != nullptr) ring.pop();
      result.host_des = des_timer.elapsed();
    });
    const HostTimer policy_timer;
    try {
      SimTime last_arrival = 0;
      for (std::size_t i = first; i < total; ++i) {
        const IoRequest& req = trace.requests[i];
        const SimTime arrival = req.arrival - t0;
        // The helper throws when it reaches an out-of-order arrival.
        if (arrival < last_arrival) break;
        last_arrival = arrival;
        ring.claim() = engine.prepare(req, arrival);
        ring.push();
      }
    } catch (...) {
      ring.close();
      des.join();
      throw;
    }
    ring.close();
    result.host_policy = policy_timer.elapsed();
    des.join();
    result.des_helper = true;
    if (des_error) std::rethrow_exception(des_error);
  } else {
    const HostTimer des_timer;
    DedupEngine::Prepared p;
    stream_measured(
        sim, engine, trace, t0,
        [&engine, &p](const IoRequest& req, SimTime arrival) {
          p = engine.prepare(req, arrival);
          return &p;
        },
        [] {}, admit, record);
    result.host_des = des_timer.elapsed();
  }

  result.measured = engine.measured_stats();
  result.events_scheduled = sim.events_scheduled() - scheduled_before;
  result.peak_event_depth = sim.peak_event_depth();
  result.physical_blocks_used = engine.physical_blocks_used();
  result.map_table_bytes = engine.map_table_bytes();
  result.map_table_max_bytes = engine.map_table_max_bytes();
  result.chunks_hashed = engine.hash_engine().chunks_hashed();
  result.read_cache_bytes = engine.read_cache().capacity_bytes();
  result.read_cache_hit_rate = engine.read_cache().hit_rate();
  if (const IndexCache* ic = engine.index_cache()) {
    result.index_cache_bytes = ic->capacity_bytes();
    result.index_cache_hit_rate = ic->hit_rate();
    result.batch_probes = ic->batch_probes();
  }
  result.scratch_bytes = engine.scratch_bytes();
  if (const ICache* ic = engine.adaptive_cache()) {
    result.icache = ic->stats();
    result.final_index_fraction = ic->index_fraction();
  }
  result.makespan = sim.now();
  return result;
}

/// Registers the sampled time-series columns: per-disk queue lengths, cache
/// occupancy/hit rates, the live memory split, and cumulative dedup
/// progress. Pull-only — probes read state the run maintains anyway.
static void register_sampler_probes(TimeSeriesSampler& s, const Volume& volume,
                                    const DedupEngine& engine) {
  for (std::size_t d = 0; d < volume.num_disks(); ++d) {
    const Disk& disk = volume.disk(d);
    s.add_probe(disk.name() + ".queue", [&disk] {
      return static_cast<double>(disk.queue_length());
    });
  }
  const ReadCache& rc = engine.read_cache();
  s.add_probe("read_cache.bytes",
              [&rc] { return static_cast<double>(rc.capacity_bytes()); });
  s.add_probe("read_cache.hit_rate", [&rc] { return rc.hit_rate(); });
  if (const IndexCache* ic = engine.index_cache()) {
    s.add_probe("index_cache.bytes",
                [ic] { return static_cast<double>(ic->capacity_bytes()); });
    s.add_probe("index_cache.hit_rate", [ic] { return ic->hit_rate(); });
  }
  if (const ICache* ac = engine.adaptive_cache()) {
    s.add_probe("icache.index_fraction",
                [ac] { return ac->index_fraction(); });
    s.add_probe("icache.adaptations", [ac] {
      return static_cast<double>(ac->stats().adaptations);
    });
  }
  // Measured phase only, like ReplayResult::measured.
  s.add_probe("engine.write_requests", [&engine] {
    return static_cast<double>(engine.measured_stats().write_requests);
  });
  s.add_probe("engine.read_requests", [&engine] {
    return static_cast<double>(engine.measured_stats().read_requests);
  });
  s.add_probe("engine.writes_eliminated", [&engine] {
    return static_cast<double>(engine.measured_stats().writes_eliminated);
  });
  s.add_probe("engine.dedup_ratio",
              [&engine] { return engine.measured_stats().dedup_ratio(); });
}

std::unique_ptr<Volume> make_volume(Simulator& sim, const RunSpec& spec) {
  const std::uint64_t needed = required_volume_blocks(spec.engine_cfg);
  ArrayConfig cfg = spec.array_cfg;
  const std::size_t data_disks =
      spec.raid == RaidLevel::kRaid5 ? cfg.num_disks - 1 : cfg.num_disks;
  POD_CHECK(data_disks >= 1);
  // Round per-disk capacity up to whole stripe units, plus one spare row.
  const std::uint64_t per_disk =
      ((needed / data_disks) / cfg.stripe_unit_blocks + 2) *
      cfg.stripe_unit_blocks;
  cfg.disk_geometry.total_blocks = per_disk;
  if (spec.raid == RaidLevel::kRaid5)
    return std::make_unique<Raid5>(sim, cfg);
  return std::make_unique<Raid0>(sim, cfg);
}

std::unique_ptr<DedupEngine> make_engine(Simulator& sim, Volume& volume,
                                         const RunSpec& spec) {
  switch (spec.engine) {
    case EngineKind::kNative:
      return std::make_unique<NativeEngine>(sim, volume, spec.engine_cfg);
    case EngineKind::kFullDedupe:
      return std::make_unique<FullDedupeEngine>(sim, volume, spec.engine_cfg);
    case EngineKind::kIDedup:
      return std::make_unique<IDedupEngine>(sim, volume, spec.engine_cfg);
    case EngineKind::kSelectDedupe:
      return std::make_unique<SelectDedupeEngine>(sim, volume, spec.engine_cfg);
    case EngineKind::kPod:
      return std::make_unique<PodEngine>(sim, volume, spec.engine_cfg, spec.pod);
    case EngineKind::kIoDedup:
      return std::make_unique<IoDedupEngine>(sim, volume, spec.engine_cfg);
    case EngineKind::kPostProcess:
      return std::make_unique<PostProcessEngine>(sim, volume, spec.engine_cfg,
                                                 spec.post_process);
  }
  POD_CHECK(false);
}

ReplayResult run_replay(const RunSpec& spec, const Trace& trace,
                        DesThread des) {
  Simulator sim;
  // Null unless the spec names a sink: the null is what makes the disabled
  // path free. Attached before the volume so member disks observe it from
  // their first op.
  std::unique_ptr<Telemetry> telemetry;
  if (spec.telemetry.any())
    telemetry = std::make_unique<Telemetry>(
        spec.telemetry, trace.name + "-" + to_string(spec.engine));
  sim.set_telemetry(telemetry.get());
  // Latency attribution: per-run like telemetry, so ParallelRunner workers
  // never share a collector.
  std::unique_ptr<LatencyAnatomy> anatomy;
  if (spec.anatomy) anatomy = std::make_unique<LatencyAnatomy>(*spec.anatomy);
  sim.set_anatomy(anatomy.get());
  std::unique_ptr<Volume> volume = make_volume(sim, spec);
  std::unique_ptr<DedupEngine> engine = make_engine(sim, *volume, spec);
  if (telemetry && telemetry->sampler() != nullptr)
    register_sampler_probes(*telemetry->sampler(), *volume, *engine);

  Replayer replayer(des);
  ReplayResult result = replayer.replay(sim, *engine, trace);
  result.peak_rss_bytes = current_peak_rss_bytes();

  result.per_disk.reserve(volume->num_disks());
  for (std::size_t d = 0; d < volume->num_disks(); ++d) {
    const DiskStats& ds = volume->disk(d).stats();
    result.disk_reads += ds.reads;
    result.disk_writes += ds.writes;
    result.mean_disk_queue_depth += ds.queue_depth.mean();
    ReplayResult::DiskBreakdown b;
    b.reads = ds.reads;
    b.writes = ds.writes;
    b.blocks_read = ds.blocks_read;
    b.blocks_written = ds.blocks_written;
    b.sequential_hits = ds.sequential_hits;
    b.busy_ms = to_ms(ds.busy_time);
    b.mean_queue_depth = ds.queue_depth.mean();
    b.mean_seek_cylinders = ds.seek_cylinders.mean();
    result.per_disk.push_back(b);
  }
  result.mean_disk_queue_depth /=
      static_cast<double>(std::max<std::size_t>(1, volume->num_disks()));
  result.volume_counters = volume->counters();

  if (const FaultInjector* fi = volume->fault_injector()) {
    result.fault.enabled = true;
    result.fault.injected = fi->stats();
  }
  if (const MetadataJournal* j = engine->metadata_journal()) {
    result.fault.journal_records = j->appended();
    result.fault.journal_lost = j->lost();
  }

  if (telemetry) {
    telemetry->finish(sim.now());
    result.telemetry_counters = telemetry->metrics().snapshot();
  }
  if (anatomy) result.anatomy = anatomy->take_result();
  return result;
}

}  // namespace pod
