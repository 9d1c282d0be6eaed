#include "engines/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"
#include "common/digest.hpp"
#include "common/packed_pba.hpp"
#include "telemetry/telemetry.hpp"

namespace pod {

std::uint64_t required_volume_blocks(const EngineConfig& cfg) {
  const std::uint64_t pool = std::max<std::uint64_t>(
      1024, static_cast<std::uint64_t>(static_cast<double>(cfg.logical_blocks) *
                                       cfg.pool_fraction));
  return cfg.logical_blocks + pool + cfg.index_region_blocks +
         cfg.swap_region_blocks;
}

EngineStats EngineStats::delta(const EngineStats& after, const EngineStats& before) {
  EngineStats d;
  d.write_requests = after.write_requests - before.write_requests;
  d.read_requests = after.read_requests - before.read_requests;
  d.write_blocks = after.write_blocks - before.write_blocks;
  d.read_blocks = after.read_blocks - before.read_blocks;
  d.writes_eliminated = after.writes_eliminated - before.writes_eliminated;
  d.small_writes_eliminated =
      after.small_writes_eliminated - before.small_writes_eliminated;
  d.chunks_deduped = after.chunks_deduped - before.chunks_deduped;
  d.chunks_written = after.chunks_written - before.chunks_written;
  for (int i = 0; i < 4; ++i)
    d.category_counts[i] = after.category_counts[i] - before.category_counts[i];
  d.index_disk_reads = after.index_disk_reads - before.index_disk_reads;
  d.index_disk_writes = after.index_disk_writes - before.index_disk_writes;
  d.read_ops_issued = after.read_ops_issued - before.read_ops_issued;
  d.media_error_ops = after.media_error_ops - before.media_error_ops;
  d.timeout_ops = after.timeout_ops - before.timeout_ops;
  d.device_error_ops = after.device_error_ops - before.device_error_ops;
  d.damaged_physical_blocks =
      after.damaged_physical_blocks - before.damaged_physical_blocks;
  d.damaged_logical_blocks =
      after.damaged_logical_blocks - before.damaged_logical_blocks;
  d.failed_requests = after.failed_requests - before.failed_requests;
  return d;
}

namespace {

/// The config, once the volume is known to fit 32-bit block addresses
/// (checked before any member sizes an array from it).
const EngineConfig& checked_config(const Volume& volume,
                                   const EngineConfig& cfg) {
  check_packed_pba_range(volume.capacity_blocks());
  return cfg;
}

}  // namespace

DedupEngine::DedupEngine(Simulator& sim, Volume& volume, const EngineConfig& cfg,
                         bool keep_fingerprints)
    : sim_(sim),
      volume_(volume),
      cfg_(checked_config(volume, cfg)),
      hash_(cfg.hash),
      store_(BlockStore::Config{cfg.logical_blocks, cfg.pool_fraction,
                                keep_fingerprints}),
      read_cache_(static_cast<std::uint64_t>(
          static_cast<double>(cfg.memory_bytes) * (1.0 - cfg.index_fraction))) {
  POD_CHECK(cfg_.index_fraction >= 0.0 && cfg_.index_fraction <= 1.0);
  POD_CHECK(volume_.capacity_blocks() >= required_volume_blocks(cfg_));
  if (cfg_.index_fraction > 0.0) {
    index_cache_ = std::make_unique<IndexCache>(static_cast<std::uint64_t>(
        static_cast<double>(cfg_.memory_bytes) * cfg_.index_fraction));
  }
  if (cfg_.journal_metadata) {
    journal_ = std::make_unique<MetadataJournal>();
    store_.set_journal(journal_.get());
  }
}

void DedupEngine::record_op_fault(const OpSpec& op, IoStatus s) {
  switch (s) {
    case IoStatus::kOk:
      return;
    case IoStatus::kTimeout:
      ++stats_.timeout_ops;
      return;  // data eventually made it; no damage
    case IoStatus::kFailedDevice:
      ++stats_.device_error_ops;
      return;  // redundancy question, not a per-block loss
    case IoStatus::kMediaError:
      ++stats_.media_error_ops;
      break;
  }
  // Media error: every live physical block in the op's range is damaged,
  // and a deduplicated block takes all its referencing LBAs with it — the
  // refcount blast radius (§I). Index/swap-region ops carry no user data.
  const Pba end =
      std::min<Pba>(op.block + op.nblocks, store_.data_region_blocks());
  for (Pba pba = op.block; pba < end; ++pba) {
    const std::uint32_t refs = store_.refcount(pba);
    if (refs == 0) continue;
    ++stats_.damaged_physical_blocks;
    stats_.damaged_logical_blocks += refs;
  }
}

std::uint64_t DedupEngine::state_digest() const {
  // The store arrays are walked as sums of per-entry terms that carry
  // their own address, so the walk order does not matter and the terms
  // pipeline.
  std::uint64_t mappings = 0;
  for (Lba lba = 0; lba < store_.logical_blocks(); ++lba) {
    const Pba pba = store_.resolve(lba);
    if (pba != kInvalidPba)
      mappings += StateDigest::mix(StateDigest::mix(lba) ^ pba);
  }
  std::uint64_t blocks = 0;
  for (Pba pba = 0; pba < store_.data_region_blocks(); ++pba) {
    const std::uint32_t refs = store_.refcount(pba);
    if (refs == 0) continue;
    std::uint64_t term = StateDigest::mix(pba ^ (std::uint64_t{refs} << 40));
    if (const Fingerprint* fp = store_.fingerprint_of(pba)) {
      std::uint64_t w[2];
      std::memcpy(w, fp, sizeof(w));
      term = StateDigest::mix(term ^ w[0]) + StateDigest::mix(term ^ w[1] ^ 1);
    }
    blocks += term;
  }
  StateDigest d;
  d.add(mappings);
  d.add(blocks);
  d.add(store_.live_logical_blocks());
  d.add(store_.live_physical_blocks());
  d.add(store_.pool().allocated());
  // The table digests carry each list's capacity, so they also pin the
  // index/read split of the memory budget (iCache moves it).
  d.add(read_cache_.table().state_digest());
  d.add(read_cache_.hits());
  d.add(read_cache_.misses());
  if (index_cache_) {
    d.add(index_cache_->table().state_digest());
    d.add(index_cache_->hits());
    d.add(index_cache_->misses());
  }
  // Chunk counters move inside process_write, so warm() keeps them too;
  // the per-request counters (writes_eliminated and the rest) are
  // prepare()'s accounting, which warm() skips, and stay out.
  d.add(stats_.chunks_deduped);
  d.add(stats_.chunks_written);
  return d.value();
}

bool DedupEngine::candidate_valid(const Fingerprint& fp, Pba pba) const {
  const Fingerprint* live = store_.fingerprint_of(pba);
  return live != nullptr && *live == fp;
}

void DedupEngine::coalesce_into(std::vector<std::pair<Pba, std::uint64_t>>& runs,
                                OpType type, OpList& out) {
  std::sort(runs.begin(), runs.end());
  for (const auto& [pba, n] : runs) {
    if (!out.empty() && out.back().type == type &&
        out.back().block + out.back().nblocks == pba) {
      out.back().nblocks += n;
    } else {
      out.push_back(OpSpec{type, pba, n});
    }
  }
}

DedupEngine::IoPlan DedupEngine::build_read_plan(const IoRequest& req) {
  IoPlan plan;
  WriteScratch& s = scratch_;
  // Pass 1: resolve the whole request in one run call; on the fused path
  // also hash each target once and prefetch the read-cache buckets it will
  // probe. Resolution touches only the store; the cache probes below touch
  // only the cache — so hoisting resolution ahead of the probe loop cannot
  // change either one's outcome.
  s.read_pbas.resize(req.nblocks);
  store_.resolve_run(req.lba, req.nblocks, s.read_pbas.data());
  const bool fused = !cfg_.scalar_probes;
  if (fused) s.pba_tags.resize(req.nblocks);
  for (std::uint32_t i = 0; i < req.nblocks; ++i) {
    if (s.read_pbas[i] == kInvalidPba) {
      // Read of never-written data: served from the home location (the
      // device returns whatever is there), no cache involvement skew.
      s.read_pbas[i] = static_cast<Pba>(req.lba + i);
    }
    if (fused) {
      // Hash each resolved PBA once, prefetch its home group, and carry the
      // tag into the probe loop.
      const ReadCache::Tag tag = read_cache_.hash_tag(s.read_pbas[i]);
      s.pba_tags[i] = tag;
      read_cache_.prefetch_tag(tag);
    }
  }
  // Pass 2: per-block cache probes, in request order (inserts must be
  // visible to later duplicate targets, so this loop stays sequential).
  s.aux_runs.clear();
  for (std::uint32_t i = 0; i < req.nblocks; ++i) {
    const Pba pba = s.read_pbas[i];
    if (fused) {
      // One probe answers hit, ghost hit or miss. Tags are pure functions
      // of the PBA, so the inserts and ghost erasures this loop performs
      // never invalidate them — the probe sequence is identical to the
      // untagged loop below.
      const ReadCache::Tag tag = s.pba_tags[i];
      if (read_cache_.lookup_tagged(tag, pba)) continue;
      read_cache_.insert_tagged(tag, pba);
    } else {
      if (read_cache_.lookup(pba)) continue;
      read_cache_.ghost_probe(pba);
      read_cache_.insert(pba);
    }
    s.aux_runs.emplace_back(pba, 1);
  }
  coalesce_into(s.aux_runs, OpType::kRead, plan.stage1);
  return plan;
}

DedupEngine::IoPlan DedupEngine::process_read(const IoRequest& req,
                                              SimTime /*now*/) {
  return build_read_plan(req);
}

void DedupEngine::init_telemetry(Telemetry& t) {
  telem_.init = true;
  MetricsRegistry& m = t.metrics();
  telem_.batch_probes = &m.counter("engine.batch_probes");
  telem_.batch_probe_hits = &m.counter("engine.batch_probe_hits");
  telem_.trace = t.trace();
  // Cumulative decision counters already accumulate in EngineStats; export
  // them as pull probes so snapshots see them without hot-path writes. Each
  // counts the measured phase only, like ReplayResult::measured.
  const auto measured = [this](std::uint64_t EngineStats::*field) {
    return [this, field] {
      return static_cast<double>(stats_.*field - measured_from_.*field);
    };
  };
  m.probe("engine.write_requests", measured(&EngineStats::write_requests));
  m.probe("engine.read_requests", measured(&EngineStats::read_requests));
  m.probe("engine.writes_eliminated",
          measured(&EngineStats::writes_eliminated));
  m.probe("engine.chunks_deduped", measured(&EngineStats::chunks_deduped));
  m.probe("engine.chunks_written", measured(&EngineStats::chunks_written));
  m.probe("engine.dedup_ratio",
          [this] { return measured_stats().dedup_ratio(); });
  m.probe("engine.index_disk_reads", measured(&EngineStats::index_disk_reads));
  m.probe("engine.index_disk_writes",
          measured(&EngineStats::index_disk_writes));
  m.probe("engine.media_error_ops", measured(&EngineStats::media_error_ops));
  m.probe("engine.damaged_physical_blocks",
          measured(&EngineStats::damaged_physical_blocks));
  m.probe("engine.damaged_logical_blocks",
          measured(&EngineStats::damaged_logical_blocks));
  m.probe("engine.failed_requests", measured(&EngineStats::failed_requests));
  for (int c = 0; c < 4; ++c) {
    m.probe(std::string("engine.category.") +
                to_string(static_cast<WriteCategory>(c)),
            [this, c] {
              return static_cast<double>(stats_.category_counts[c] -
                                         measured_from_.category_counts[c]);
            });
  }
}

void DedupEngine::probe_dups(const IoRequest& req, WriteScratch& s) {
  POD_DCHECK(index_cache_ != nullptr);
  if (cfg_.scalar_probes) {
    // Reference path: per-chunk lookup, ghost probe on miss.
    for (std::uint32_t i = 0; i < req.nblocks; ++i) {
      if (const IndexEntry* e = index_cache_->lookup(req.chunks[i])) {
        if (candidate_valid(req.chunks[i], e->pba()))
          s.dups[i] = ChunkDup{true, e->pba()};
      } else {
        index_cache_->ghost_probe(req.chunks[i]);
      }
    }
    return;
  }
  if (s.probes.size() < req.nblocks) s.probes.resize(req.nblocks);
  index_cache_->lookup_fused(req.chunks, s.probes.data());
  for (std::uint32_t i = 0; i < req.nblocks; ++i) {
    const IndexEntry* e = s.probes[i];
    if (e != nullptr && candidate_valid(req.chunks[i], e->pba()))
      s.dups[i] = ChunkDup{true, e->pba()};
  }
  if (Telemetry* t = sim_.telemetry()) {
    if (!telem_.init) init_telemetry(*t);
    std::uint64_t hits = 0;
    for (std::uint32_t i = 0; i < req.nblocks; ++i)
      if (s.probes[i] != nullptr) ++hits;
    telem_.batch_probes->inc();
    telem_.batch_probe_hits->inc(hits);
  }
}

void DedupEngine::apply_dedup(const IoRequest& req, WriteScratch& s) {
  for (std::uint32_t i = 0; i < req.nblocks; ++i) {
    if (!s.masked(i)) continue;
    POD_DCHECK(s.dups[i].redundant);
    if (!candidate_valid(req.chunks[i], s.dups[i].pba)) {
      s.clear_mask(i);  // released by an earlier chunk of this request
      continue;
    }
    store_.dedup_to(req.lba + i, s.dups[i].pba);
    ++stats_.chunks_deduped;
  }
}

void DedupEngine::apply_dedup_runs(const IoRequest& req, WriteScratch& s) {
  for (const DupRun& run : s.dedup_runs) {
    stats_.chunks_deduped += store_.remap_run(
        req.lba + run.begin, run.pba_start, req.chunks.subspan(run.begin, run.length),
        [&](std::size_t k) { s.clear_mask(run.begin + k); });
  }
}

void DedupEngine::drain_freed() {
  for (const BlockStore::FreedBlock& f : store_.freed()) {
    read_cache_.invalidate(f.pba);
    if (index_cache_ && index_cache_->invalidate_if(f.fp, f.pba) && journal_)
      journal_->index_del(f.fp);
  }
  store_.clear_freed();
}

void DedupEngine::write_remaining_chunks(const IoRequest& req, WriteScratch& s,
                                         IoPlan& plan) {
  std::uint32_t i = 0;
  while (i < req.nblocks) {
    if (s.masked(i)) {
      ++i;
      continue;
    }
    std::uint32_t j = i + 1;
    while (j < req.nblocks && !s.masked(j)) ++j;
    const std::size_t placed = s.written.size();
    store_.place_write_run(req.lba + i, req.chunks.subspan(i, j - i), s.written);
    stats_.chunks_written += j - i;
    // Pre-merge contiguous placements; coalesce_into still sorts and
    // merges across runs, so the final extents match the per-block path.
    for (std::size_t k = placed; k < s.written.size(); ++k) {
      const Pba pba = s.written[k];
      if (!s.write_runs.empty() &&
          s.write_runs.back().first + s.write_runs.back().second == pba) {
        ++s.write_runs.back().second;
      } else {
        s.write_runs.emplace_back(pba, 1);
      }
    }
    i = j;
  }
  coalesce_into(s.write_runs, OpType::kWrite, plan.stage2);
  drain_freed();
}

void DedupEngine::issue_background(OpType type, Pba block, std::uint64_t nblocks) {
  if (warming_) return;
  if (background_ != nullptr) {
    background_->push_back(OpSpec{type, block, nblocks});
    return;
  }
  submit_background(OpSpec{type, block, nblocks});
}

void DedupEngine::submit_background(const OpSpec& op) {
  POD_CHECK(op.block + op.nblocks <= volume_.capacity_blocks());
  volume_.submit(VolumeIo{op.type, op.block, op.nblocks, /*done=*/nullptr});
}

DedupEngine::RequestState* DedupEngine::acquire_state() {
  if (free_requests_ == nullptr) {
    request_pool_.push_back(std::make_unique<RequestState>());
    free_requests_ = request_pool_.back().get();
  }
  RequestState* st = free_requests_;
  free_requests_ = st->next_free;
  st->next_free = nullptr;
  st->outstanding = 0;
  st->status = IoStatus::kOk;
  return st;
}

void DedupEngine::release_state(RequestState* st) {
  st->stage1.clear();
  st->stage2.clear();
  st->done.reset();
  st->trace = nullptr;
  st->next_free = free_requests_;
  free_requests_ = st;
}

void DedupEngine::finish_request(RequestState* st) {
  if (st->status != IoStatus::kOk) ++stats_.failed_requests;
  if (LatencyAnatomy* a = sim_.anatomy()) {
    // The engine observes the same completion instant the replayer records
    // (both run inside this event), so the accumulated components must sum
    // to the replayer-visible latency exactly.
    a->record_request(st->req_id, st->stream, st->type, st->nblocks,
                      st->submit_time, sim_.now() - st->submit_time,
                      st->dedup_hits, st->status != IoStatus::kOk,
                      st->anatomy);
  }
  IoDoneFn done = std::move(st->done);
  const IoStatus status = st->status;
  release_state(st);  // before `done`: a resubmitting callback reuses the slot
  if (done) done(status);
}

void DedupEngine::issue_stage(RequestState* st, bool stage1) {
  const OpList& ops = stage1 ? st->stage1 : st->stage2;
  if (ops.empty()) {
    if (stage1)
      issue_stage(st, /*stage1=*/false);
    else
      finish_request(st);
    return;
  }
  if (st->trace != nullptr)
    st->trace->async_begin(kTraceCatRequest, st->req_id,
                           stage1 ? "stage1-io" : "stage2-io", sim_.now(),
                           {{"ops", ops.size()}});
  st->outstanding = ops.size();
  // Volume submission never completes synchronously (disk completions are
  // simulator events), so iterating the state's own list is safe.
  for (const OpSpec& op : ops) {
    volume_.submit(VolumeIo{op.type, op.block, op.nblocks,
                            [this, st, op, stage1](IoStatus s) {
                              stage_op_done(st, op, s, stage1);
                            }});
  }
}

void DedupEngine::stage_op_done(RequestState* st, const OpSpec& op, IoStatus s,
                                bool stage1) {
  note_op_status(op, s);
  st->status = combine(st->status, s);
  POD_CHECK(st->outstanding > 0);
  if (--st->outstanding != 0) return;
  if (LatencyAnatomy* a = sim_.anatomy()) {
    // Critical volume op of this stage: all of the stage's ops were issued
    // at the same instant, so the stage span is this op's span — published
    // into the register by finish_two_phase just before this callback.
    // Ops addressed to the metadata regions (on-disk index, iCache swap)
    // are dedup bookkeeping, not user data: charge them wholesale.
    LatBreakdown vb = a->volume_op();
    if (op.block >= index_region_start()) vb.fold_into(LatComp::kDedupMeta);
    st->anatomy.add(vb);
  }
  if (st->trace != nullptr)
    st->trace->async_end(kTraceCatRequest, st->req_id,
                         stage1 ? "stage1-io" : "stage2-io", sim_.now());
  if (stage1)
    issue_stage(st, /*stage1=*/false);
  else
    finish_request(st);
}

void DedupEngine::start_io(RequestState* st) { issue_stage(st, /*stage1=*/true); }

DedupEngine::Prepared DedupEngine::prepare(const IoRequest& req, SimTime now) {
  if (Telemetry* t = sim_.telemetry()) {
    if (!telem_.init) init_telemetry(*t);
  }
  Prepared p;
  p.req = &req;
  background_ = &p.background;
  // Per-request dedup-hit delta for per-stream accounting (one counter
  // load/subtract, gated like every other attribution site).
  const bool anatomy_on = sim_.anatomy() != nullptr;
  const std::uint64_t deduped_before = anatomy_on ? stats_.chunks_deduped : 0;
  if (req.is_write()) {
    ++stats_.write_requests;
    stats_.write_blocks += req.nblocks;
    p.plan = process_write(req, now);
    // A write counts as eliminated when no *data* write reaches the disks
    // (stage2); index-lookup reads in stage1 do not resurrect it.
    if (p.plan.stage2.empty()) {
      ++stats_.writes_eliminated;
      if (req.nblocks <= kSmallWriteBlocks) ++stats_.small_writes_eliminated;
    }
  } else {
    ++stats_.read_requests;
    stats_.read_blocks += req.nblocks;
    p.plan = process_read(req, now);
    stats_.read_ops_issued += p.plan.stage1.size() + p.plan.stage2.size();
  }
  background_ = nullptr;
  POD_CHECK(store_.freed().empty());  // the write tail drained every block
  if (anatomy_on) p.dedup_hits = stats_.chunks_deduped - deduped_before;
  return p;
}

void DedupEngine::execute(const Prepared& p, IoDoneFn done) {
  // Background ops enter the volume before the plan, as the policy issued
  // them inside the request.
  for (const OpSpec& op : p.background) submit_background(op);

  const IoRequest& req = *p.req;
  const IoPlan& plan = p.plan;
  RequestState* st = acquire_state();
  st->stage1 = plan.stage1;
  st->stage2 = plan.stage2;
  st->done = std::move(done);
  st->trace = telem_.init ? telem_.trace : nullptr;
  st->req_id = req.id;
  if (sim_.anatomy() != nullptr) {
    st->anatomy.clear();
    // The classify/hash CPU span is dedup bookkeeping by definition.
    st->anatomy[LatComp::kDedupMeta] = plan.cpu;
    st->submit_time = sim_.now();
    st->dedup_hits = p.dedup_hits;
    st->stream = req.stream;
    st->nblocks = req.nblocks;
    st->type = req.type;
  }

  // CPU delay (hashing) precedes all disk activity for this request.
  if (plan.cpu > 0) {
    if (st->trace != nullptr)
      st->trace->async_span(kTraceCatRequest, req.id, "classify", sim_.now(),
                            sim_.now() + plan.cpu,
                            {{"cpu_us", to_us(plan.cpu)}});
    sim_.schedule_after(plan.cpu, [this, st]() { start_io(st); });
  } else {
    start_io(st);
  }
}

void DedupEngine::submit(const IoRequest& req, IoDoneFn done) {
  Prepared p = prepare(req, sim_.now());
  execute(p, std::move(done));
}

bool DedupEngine::can_prepare_ahead() const {
  return sim_.telemetry() == nullptr && volume_.fault_injector() == nullptr;
}

void DedupEngine::warm(const IoRequest& req) {
  warming_ = true;
  if (req.is_write()) {
    (void)process_write(req, sim_.now());
  } else {
    (void)process_read(req, sim_.now());
  }
  POD_CHECK(store_.freed().empty());
  warming_ = false;
}

}  // namespace pod
