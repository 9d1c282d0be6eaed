#include "engines/full_dedupe.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pod {

namespace {
OnDiskIndex::Config ondisk_config(const EngineConfig& cfg) {
  OnDiskIndex::Config c;
  // Region begins right after the data region (home area + pool).
  const std::uint64_t pool = std::max<std::uint64_t>(
      1024, static_cast<std::uint64_t>(static_cast<double>(cfg.logical_blocks) *
                                       cfg.pool_fraction));
  c.region_start = cfg.logical_blocks + pool;
  c.region_blocks = cfg.index_region_blocks;
  c.bloom_enabled = cfg.full_dedupe_bloom;
  return c;
}

/// The index cache the on-disk index keeps its entries in (checked before
/// the index binds to its table).
IndexCache& checked_cache(IndexCache* cache) {
  POD_CHECK(cache != nullptr);
  return *cache;
}
}  // namespace

FullDedupeEngine::FullDedupeEngine(Simulator& sim, Volume& volume,
                                   const EngineConfig& cfg)
    : DedupEngine(sim, volume, cfg),
      ondisk_(ondisk_config(cfg), checked_cache(index_cache_.get()).table()) {
  ondisk_.set_journal(metadata_journal());
}

DedupEngine::IoPlan FullDedupeEngine::process_write(const IoRequest& req,
                                                    SimTime /*now*/) {
  IoPlan plan;
  plan.cpu = hash_.latency_for_chunks(req.nblocks);
  hash_.note_chunks_hashed(req.nblocks);

  WriteScratch& s = scratch_;
  s.reset_write(req.nblocks);

  // Full-Dedupe's probe loop interleaves inserts with lookups (on-disk
  // hits promote into the index cache mid-request), so intra-request
  // duplicate fingerprints must see earlier promotions — the loop cannot
  // reorder into lookup_fused. Instead, hash every fingerprint once up
  // front (tags survive the mid-loop inserts: they are pure functions of
  // the key), warm every home group the loop will probe, and keep the
  // resolution strictly sequential on the tagged API.
  const bool fused = !cfg_.scalar_probes;
  if (fused) {
    s.fp_tags.resize(req.nblocks);
    for (std::uint32_t i = 0; i < req.nblocks; ++i) {
      const IndexCache::Tag tag = index_cache_->hash_tag(req.chunks[i]);
      s.fp_tags[i] = tag;
      index_cache_->prefetch_tag(tag);
    }
  }

  for (std::uint32_t i = 0; i < req.nblocks; ++i) {
    const Fingerprint& fp = req.chunks[i];
    const IndexCache::Tag tag =
        fused ? s.fp_tags[i] : IndexCache::Tag{0};
    // One probe of the index cache's table answers resident (the hot path),
    // on disk (with the stored PBA) or absent; the tagged lookup also
    // consumes a ghost entry on a miss, in the same probe.
    Pba on_disk = kInvalidPba;
    const IndexEntry* e = fused ? index_cache_->lookup_tagged(tag, fp, &on_disk)
                                : index_cache_->lookup(fp, &on_disk);
    if (e != nullptr) {
      if (candidate_valid(fp, e->pba())) {
        s.dups[i] = ChunkDup{true, e->pba()};
        s.set_mask(i);
      }
      continue;
    }
    if (!fused) index_cache_->ghost_probe(fp);
    // Cold path: the on-disk full index (Bloom-guarded disk charges).
    const OnDiskIndex::Lookup l = ondisk_.lookup(fp, on_disk);
    if (l.needs_disk_read) {
      s.aux_runs.emplace_back(l.bucket, 1);
      ++stats_.index_disk_reads;
    }
    if (l.found && candidate_valid(fp, l.pba)) {
      s.dups[i] = ChunkDup{true, l.pba};
      s.set_mask(i);
      // Promote to hot (immediately — later duplicates must see it).
      if (fused)
        index_cache_->insert_tagged(tag, fp, l.pba);
      else
        index_cache_->insert(fp, l.pba);
    }
  }

  // Full-Dedupe deduplicates every redundant chunk, scattered or not.
  apply_dedup(req, s);

  write_remaining_chunks(req, s, plan);

  // Index maintenance for freshly written chunks: each goes on disk first
  // (sequential flush order), then into the cache. The cache inserts stage
  // into one insert_batch (nothing later this request reads the index
  // cache — unlike the mid-loop promotions above, which must stay
  // immediate); they find the slots the on-disk puts just touched.
  std::size_t w = 0;
  for (std::uint32_t i = 0; i < req.nblocks; ++i) {
    if (s.masked(i)) continue;
    const Pba pba = s.written[w++];
    stage_index_insert(s, req.chunks[i], pba);
    if (const auto flush = ondisk_.insert(req.chunks[i], pba)) {
      ++stats_.index_disk_writes;
      issue_background(OpType::kWrite, *flush, 1);
    }
  }
  flush_index_inserts(s);

  // Charge the index-bucket reads as stage-1 (they gate the decision).
  std::sort(s.aux_runs.begin(), s.aux_runs.end());
  s.aux_runs.erase(std::unique(s.aux_runs.begin(), s.aux_runs.end()),
                   s.aux_runs.end());
  coalesce_into(s.aux_runs, OpType::kRead, plan.stage1);
  return plan;
}

}  // namespace pod
