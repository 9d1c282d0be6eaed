// A pipelined replay — DedupEngine::prepare for every measured request on
// the calling thread, admission, execute and Simulator::step on a helper
// thread — must be indistinguishable from the inline replay, where prepare
// runs just before execute on one thread. The inline path is the oracle:
// every engine, on seeded random traces whose measured phases include
// iCache repartitions with swap I/O, Full-Dedupe's background index writes
// and post-process scrub passes, through rings far smaller than the trace.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "prescheduled_replay.hpp"
#include "replay/replayer.hpp"
#include "synth/generator.hpp"
#include "telemetry/telemetry.hpp"

namespace pod {
namespace {

const EngineKind kEngines[] = {
    EngineKind::kNative,       EngineKind::kFullDedupe, EngineKind::kIDedup,
    EngineKind::kSelectDedupe, EngineKind::kPod,        EngineKind::kIoDedup,
    EngineKind::kPostProcess,
};

constexpr std::uint64_t kTraces = 50;

/// A small random trace: size, volume, write share, arrival rate and
/// burst cycle all vary with the seed.
Trace random_trace(std::uint64_t seed) {
  WorkloadProfile p = tiny_test_profile();
  p.name = "split-" + std::to_string(seed);
  p.seed = 9000 + seed;
  p.warmup_requests = 50 + (seed * 53) % 250;
  p.measured_requests = 200 + (seed * 97) % 400;
  p.volume_blocks = std::uint64_t{4096} << (seed % 3);
  p.write_ratio = 0.45 + 0.05 * static_cast<double>(seed % 9);
  p.mean_interarrival = us(200.0 + 150.0 * static_cast<double>(seed % 7));
  p.burst.cycle = ms(20.0 + 10.0 * static_cast<double>(seed % 5));
  p.history_window = 400;
  p.pool_size = 64;
  return TraceGenerator(p).generate();
}

SimTime measured_span(const Trace& t) {
  return t.requests.back().arrival - t.requests[t.warmup_count].arrival;
}

/// Small caches (evictions, ghost hits, iCache pressure), several iCache
/// epochs and scrub passes inside the measured phase, and a RAID geometry
/// and scheduler that vary with the seed.
RunSpec spec_for(EngineKind kind, const Trace& t, std::uint64_t seed) {
  RunSpec spec;
  spec.engine = kind;
  spec.raid = seed % 4 == 3 ? RaidLevel::kRaid0 : RaidLevel::kRaid5;
  spec.array_cfg.num_disks = 3 + seed % 4;
  spec.array_cfg.scheduler = static_cast<SchedulerKind>(seed % 3);
  spec.engine_cfg.logical_blocks = std::uint64_t{4096} << (seed % 3);
  spec.engine_cfg.memory_bytes = (64 + 32 * (seed % 5)) * kKiB;
  spec.engine_cfg.index_region_blocks = 256;
  spec.engine_cfg.swap_region_blocks = 512;
  spec.engine_cfg.scalar_probes = false;
  const SimTime span = measured_span(t);
  spec.pod.icache.interval = span / 12 + 1;
  spec.pod.icache.step_fraction = 0.1;
  spec.post_process.scan_interval = span / 6 + 1;
  spec.post_process.blocks_per_pass = 128;
  spec.post_process.read_batch_blocks = 8;
  return spec;
}

/// Ring sizes from one slot up, always smaller than the measured phase.
std::size_t ring_for(std::uint64_t seed) {
  const std::size_t rings[] = {1, 2, 3, 5, 8, 16, 64};
  return rings[seed % 7];
}

/// Forwards to a real volume and logs every submit: the order and the
/// simulated time at which the engine hands ops to the volume.
class RecordingVolume : public Volume {
 public:
  struct Op {
    OpType type;
    Pba block;
    std::uint64_t nblocks;
    SimTime at;
    bool operator==(const Op&) const = default;
  };

  RecordingVolume(const Simulator& sim, std::unique_ptr<Volume> inner)
      : sim_(sim), inner_(std::move(inner)) {}

  void submit(VolumeIo io) override {
    log.push_back(Op{io.type, io.block, io.nblocks, sim_.now()});
    inner_->submit(std::move(io));
  }
  std::uint64_t capacity_blocks() const override {
    return inner_->capacity_blocks();
  }
  std::size_t num_disks() const override { return inner_->num_disks(); }
  const Disk& disk(std::size_t i) const override { return inner_->disk(i); }
  VolumeCounters counters() const override { return inner_->counters(); }
  const FaultInjector* fault_injector() const override {
    return inner_->fault_injector();
  }

  std::vector<Op> log;

 private:
  const Simulator& sim_;
  std::unique_ptr<Volume> inner_;
};

struct SplitRun {
  std::vector<RecordingVolume::Op> submits;
  ReplayResult result;
  std::uint64_t digest = 0;
  std::uint64_t events_executed = 0;
  std::vector<DiskStats> disks;
  VolumeCounters volume;
  std::uint64_t scrub_passes = 0;
};

SplitRun replay(const RunSpec& spec, const Trace& t, DesThread des,
           std::size_t ring) {
  Simulator sim;
  auto volume =
      std::make_unique<RecordingVolume>(sim, make_volume(sim, spec));
  std::unique_ptr<DedupEngine> engine = make_engine(sim, *volume, spec);
  SplitRun run;
  run.result = Replayer(des, ring).replay(sim, *engine, t);
  run.submits = std::move(volume->log);
  run.digest = engine->state_digest();
  run.events_executed = sim.events_executed();
  for (std::size_t d = 0; d < volume->num_disks(); ++d)
    run.disks.push_back(volume->disk(d).stats());
  run.volume = volume->counters();
  if (const auto* pp = dynamic_cast<const PostProcessEngine*>(engine.get()))
    run.scrub_passes = pp->scrub_passes();
  return run;
}

void expect_same_stats(const EngineStats& a, const EngineStats& b) {
  EXPECT_EQ(a.write_requests, b.write_requests);
  EXPECT_EQ(a.read_requests, b.read_requests);
  EXPECT_EQ(a.write_blocks, b.write_blocks);
  EXPECT_EQ(a.read_blocks, b.read_blocks);
  EXPECT_EQ(a.writes_eliminated, b.writes_eliminated);
  EXPECT_EQ(a.small_writes_eliminated, b.small_writes_eliminated);
  EXPECT_EQ(a.chunks_deduped, b.chunks_deduped);
  EXPECT_EQ(a.chunks_written, b.chunks_written);
  for (int c = 0; c < 4; ++c)
    EXPECT_EQ(a.category_counts[c], b.category_counts[c]);
  EXPECT_EQ(a.index_disk_reads, b.index_disk_reads);
  EXPECT_EQ(a.index_disk_writes, b.index_disk_writes);
  EXPECT_EQ(a.read_ops_issued, b.read_ops_issued);
  EXPECT_EQ(a.failed_requests, b.failed_requests);
  EXPECT_EQ(a.media_error_ops, b.media_error_ops);
}

void expect_same_disk(const DiskStats& a, const DiskStats& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.blocks_read, b.blocks_read);
  EXPECT_EQ(a.blocks_written, b.blocks_written);
  EXPECT_EQ(a.sequential_hits, b.sequential_hits);
  EXPECT_EQ(a.busy_time, b.busy_time);
  for (const auto& [x, y] : {std::pair{&a.queue_depth, &b.queue_depth},
                             std::pair{&a.seek_cylinders, &b.seek_cylinders},
                             std::pair{&a.op_latency, &b.op_latency}}) {
    EXPECT_EQ(x->count(), y->count());
    EXPECT_DOUBLE_EQ(x->mean(), y->mean());
    EXPECT_DOUBLE_EQ(x->max(), y->max());
  }
}

/// Every volume submit in the same order at the same time, everything
/// perfbench's gate compares, the disk and RAID counters, the events, and
/// the engine's whole state.
void expect_same(const SplitRun& a, const SplitRun& b) {
  EXPECT_TRUE(a.submits == b.submits);
  const ReplayResult& x = a.result;
  const ReplayResult& y = b.result;
  EXPECT_EQ(x.all.count(), y.all.count());
  EXPECT_EQ(x.reads.count(), y.reads.count());
  EXPECT_EQ(x.writes.count(), y.writes.count());
  EXPECT_DOUBLE_EQ(x.mean_ms(), y.mean_ms());
  EXPECT_DOUBLE_EQ(x.all.percentile_ms(0.999), y.all.percentile_ms(0.999));
  EXPECT_DOUBLE_EQ(x.read_mean_ms(), y.read_mean_ms());
  EXPECT_DOUBLE_EQ(x.write_mean_ms(), y.write_mean_ms());
  EXPECT_EQ(x.makespan, y.makespan);
  expect_same_stats(x.measured, y.measured);
  EXPECT_EQ(x.physical_blocks_used, y.physical_blocks_used);
  EXPECT_EQ(x.map_table_bytes, y.map_table_bytes);
  EXPECT_EQ(x.chunks_hashed, y.chunks_hashed);
  EXPECT_EQ(x.disk_reads, y.disk_reads);
  EXPECT_EQ(x.disk_writes, y.disk_writes);
  EXPECT_EQ(x.icache.adaptations, y.icache.adaptations);
  EXPECT_EQ(x.icache.grew_index, y.icache.grew_index);
  EXPECT_EQ(x.icache.grew_read, y.icache.grew_read);
  EXPECT_EQ(x.icache.swap_blocks_read, y.icache.swap_blocks_read);
  EXPECT_EQ(x.icache.swap_blocks_written, y.icache.swap_blocks_written);
  EXPECT_DOUBLE_EQ(x.final_index_fraction, y.final_index_fraction);
  EXPECT_EQ(x.events_scheduled, y.events_scheduled);
  EXPECT_EQ(x.peak_event_depth, y.peak_event_depth);
  EXPECT_EQ(a.events_executed, b.events_executed);
  ASSERT_EQ(a.disks.size(), b.disks.size());
  for (std::size_t d = 0; d < a.disks.size(); ++d) {
    SCOPED_TRACE("disk " + std::to_string(d));
    expect_same_disk(a.disks[d], b.disks[d]);
  }
  EXPECT_EQ(a.volume.full_stripe_writes, b.volume.full_stripe_writes);
  EXPECT_EQ(a.volume.rmw_writes, b.volume.rmw_writes);
  EXPECT_EQ(a.volume.reconstruction_reads, b.volume.reconstruction_reads);
  EXPECT_EQ(a.scrub_passes, b.scrub_passes);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(ReplaySplit, PipelinedMatchesInlineOnRandomTraces) {
  // What the corpus must exercise inside the measured phase, so the
  // background-op order is tested and not just present.
  std::uint64_t pod_swap_blocks = 0, pod_repartitions = 0;
  std::uint64_t full_index_writes = 0, scrub_reclaimed = 0;
  for (std::uint64_t seed = 0; seed < kTraces; ++seed) {
    const Trace t = random_trace(seed);
    const std::size_t ring = ring_for(seed);
    ASSERT_LT(ring, t.measured_count());
    for (const EngineKind kind : kEngines) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + to_string(kind) +
                   " ring " + std::to_string(ring));
      const RunSpec spec = spec_for(kind, t, seed);
      const SplitRun inline_run = replay(spec, t, DesThread::kInline, ring);
      const SplitRun piped = replay(spec, t, DesThread::kHelper, ring);
      ASSERT_FALSE(inline_run.result.des_helper);
      ASSERT_TRUE(piped.result.des_helper);
      expect_same(inline_run, piped);
      if (HasFailure()) return;
      const ReplayResult& r = piped.result;
      if (kind == EngineKind::kPod) {
        pod_swap_blocks += r.icache.swap_blocks_read + r.icache.swap_blocks_written;
        pod_repartitions += r.icache.grew_index + r.icache.grew_read;
      }
      if (kind == EngineKind::kFullDedupe)
        full_index_writes += r.measured.index_disk_writes;
      if (kind == EngineKind::kPostProcess)
        scrub_reclaimed += r.measured.chunks_deduped;
    }
  }
  EXPECT_GT(pod_repartitions, 0u);
  EXPECT_GT(pod_swap_blocks, 0u);
  EXPECT_GT(full_index_writes, 0u);
  EXPECT_GT(scrub_reclaimed, 0u);
}

TEST(ReplaySplit, BackgroundOpsPrecedeThePlan) {
  // A post-process write at the start of the measured phase runs a scrub
  // pass inside the policy. Its scrub read was submitted inside
  // process_write, before the write's own plan started, and execute()
  // keeps that order (the plan has no CPU delay to hide it behind).
  RunSpec spec;
  spec.engine = EngineKind::kPostProcess;
  spec.engine_cfg.logical_blocks = 4096;
  spec.engine_cfg.index_region_blocks = 256;
  spec.engine_cfg.swap_region_blocks = 256;
  Simulator sim;
  RecordingVolume volume(sim, make_volume(sim, spec));
  std::unique_ptr<DedupEngine> engine = make_engine(sim, volume, spec);
  const Fingerprint fps[] = {Fingerprint::of_content_id(1),
                             Fingerprint::of_content_id(2)};
  IoRequest req;
  req.type = OpType::kWrite;
  req.lba = 8;
  req.nblocks = 2;
  req.chunks = fps;
  engine->begin_measured();
  engine->submit(req, [](IoStatus) {});
  sim.run();
  ASSERT_EQ(volume.log.size(), 2u);
  EXPECT_EQ(volume.log[0].type, OpType::kRead);   // the scrub's batch read
  EXPECT_EQ(volume.log[1].type, OpType::kWrite);  // the request's data
  EXPECT_EQ(volume.log[1].block, 8u);
}

TEST(ReplaySplit, SubmitIsPrepareThenExecute) {
  // The outside-driven form: submit() at each admission, here from the
  // prescheduled oracle's arrival events, equals the pipelined replay
  // (perfbench's traced replay relies on this).
  const Trace t = random_trace(3);
  for (const EngineKind kind : kEngines) {
    SCOPED_TRACE(to_string(kind));
    const RunSpec spec = spec_for(kind, t, 3);
    const SplitRun piped = replay(spec, t, DesThread::kHelper, 4);
    const SplitRun prescheduled = [&] {
      Simulator sim;
      std::unique_ptr<Volume> volume = make_volume(sim, spec);
      std::unique_ptr<DedupEngine> engine = make_engine(sim, *volume, spec);
      SplitRun run;
      run.result = prescheduled_replay(sim, *engine, t);
      run.digest = engine->state_digest();
      return run;
    }();
    EXPECT_FALSE(prescheduled.result.des_helper);
    EXPECT_EQ(piped.result.all.count(), prescheduled.result.all.count());
    EXPECT_DOUBLE_EQ(piped.result.mean_ms(), prescheduled.result.mean_ms());
    EXPECT_EQ(piped.result.makespan, prescheduled.result.makespan);
    EXPECT_EQ(piped.digest, prescheduled.digest);
  }
}

TEST(ReplaySplit, ObserversOfPolicyStateKeepTheReplayInline) {
  const Trace t = random_trace(5);
  // A fault injector's media-error accounting reads refcounts from the
  // simulator side.
  RunSpec faulty = spec_for(EngineKind::kSelectDedupe, t, 5);
  faulty.array_cfg.fault.enabled = true;
  faulty.array_cfg.fault.media_error_rate = 0.01;
  EXPECT_FALSE(run_replay(faulty, t, DesThread::kHelper).des_helper);
  // So do the telemetry sampler's probes.
  const RunSpec spec = spec_for(EngineKind::kPod, t, 5);
  Simulator sim;
  Telemetry telemetry(TelemetryConfig{}, "split");
  sim.set_telemetry(&telemetry);
  std::unique_ptr<Volume> volume = make_volume(sim, spec);
  std::unique_ptr<DedupEngine> engine = make_engine(sim, *volume, spec);
  EXPECT_FALSE(engine->can_prepare_ahead());
  EXPECT_FALSE(
      Replayer(DesThread::kHelper).replay(sim, *engine, t).des_helper);
}

TEST(ReplaySplit, HelperRuleNeedsTwoHardwareThreadsPerJob) {
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(des_thread_for_jobs(1),
            hw >= 2 ? DesThread::kHelper : DesThread::kInline);
  EXPECT_EQ(des_thread_for_jobs(hw), hw == 0 ? DesThread::kHelper
                                             : DesThread::kInline);
  EXPECT_EQ(des_thread_for_jobs(hw / 2 == 0 ? 1 : hw / 2),
            hw >= 2 ? DesThread::kHelper : DesThread::kInline);
}

TEST(ReplaySplit, PipelinedReplayRejectsUnorderedTrace) {
  Trace t = random_trace(1);
  const std::size_t k = t.warmup_count + t.measured_count() / 2;
  t.requests[k].arrival = t.requests[k - 1].arrival - 1;
  for (const std::size_t ring : {std::size_t{1}, std::size_t{1024}}) {
    Simulator sim;
    const RunSpec spec = spec_for(EngineKind::kNative, t, 1);
    std::unique_ptr<Volume> volume = make_volume(sim, spec);
    std::unique_ptr<DedupEngine> engine = make_engine(sim, *volume, spec);
    EXPECT_THROW(Replayer(DesThread::kHelper, ring).replay(sim, *engine, t),
                 std::runtime_error);
  }
}

}  // namespace
}  // namespace pod
