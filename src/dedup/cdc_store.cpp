#include "dedup/cdc_store.hpp"

#include "common/check.hpp"

namespace pod {

namespace {
BlockStore::Config store_config(const CdcConfig& cfg) {
  BlockStore::Config sc;
  sc.logical_blocks = cfg.logical_blocks;
  // Append-only ingest never redirects into the over-provision pool:
  // unique extents bind fresh LBAs at their identity homes, duplicates
  // remap onto existing extents. No pool blocks needed.
  sc.pool_fraction = 0.0;
  return sc;
}
}  // namespace

CdcStore::CdcStore(const CdcConfig& cfg)
    : cfg_(cfg),
      chunker_(cfg.chunking),
      hash_(cfg.hash),
      store_(store_config(cfg)),
      index_(cfg.index_cache_bytes) {
  POD_CHECK(cfg.logical_blocks > 0);
}

bool CdcStore::ingest(std::span<const std::uint8_t> object) {
  if (object.empty()) return true;
  chunker_.chunk_into(object, hash_, chunk_scratch_);
  const std::size_t n = chunk_scratch_.size();

  std::uint64_t need = 0;
  for (const DataChunk& c : chunk_scratch_) need += bytes_to_blocks(c.size);
  if (cursor_ + need > store_.logical_blocks()) return false;

  fp_scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) fp_scratch_[i] = chunk_scratch_[i].fp;

  // Phase 1: all index probes up front. The bulk path pipelines the
  // dependent cache misses behind prefetches; the scalar path issues the
  // same lookup + miss-ghost-probe sequence one chunk at a time.
  if (!cfg_.scalar_probes) {
    hit_scratch_.resize(n);
    index_.lookup_fused({fp_scratch_.data(), n}, hit_scratch_.data());
  }

  // Phase 2: place or dedup every chunk. No index mutations happen here,
  // so lookup_fused's returned pointers stay valid throughout.
  pending_.clear();
  stage_fps_.clear();
  stage_pbas_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const DataChunk& c = chunk_scratch_[i];
    const Fingerprint& fp = fp_scratch_[i];
    const auto nblocks = static_cast<std::uint32_t>(bytes_to_blocks(c.size));

    const IndexEntry* e;
    if (cfg_.scalar_probes) {
      e = index_.lookup(fp);
      if (e == nullptr) index_.ghost_probe(fp);
    } else {
      e = hit_scratch_[i];
    }

    bool deduped = false;
    if (e != nullptr) {
      deduped = store_.dedup_chunk_to(cursor_, e->pba(), nblocks, fp);
      if (!deduped) ++stats_.stale_hits;
    }
    if (!deduped) {
      // Duplicate of a chunk placed earlier in this same object? The index
      // cannot know it yet (inserts are deferred to the object's end).
      if (auto it = pending_.find(fp); it != pending_.end())
        deduped = store_.dedup_chunk_to(cursor_, it->second, nblocks, fp);
    }

    if (deduped) {
      ++stats_.deduped_chunks;
      stats_.deduped_bytes += c.size;
    } else {
      const Pba pba = store_.place_chunk_write(cursor_, nblocks, c.size, fp);
      pending_.emplace(fp, pba);
      stage_fps_.push_back(fp);
      stage_pbas_.push_back(pba);
      ++stats_.unique_chunks;
    }
    cursor_ += nblocks;
  }

  // Phase 3: index inserts are the object's final metadata action.
  if (cfg_.scalar_probes) {
    for (std::size_t i = 0; i < stage_fps_.size(); ++i)
      index_.insert(stage_fps_[i], stage_pbas_[i]);
  } else if (!stage_fps_.empty()) {
    index_.insert_batch(stage_fps_.data(), stage_pbas_.data(),
                        stage_fps_.size());
  }

  ++stats_.objects;
  stats_.chunks += n;
  stats_.logical_bytes += object.size();
  stats_.modelled_cpu += hash_.latency_for_chunks(n);
  return true;
}

CdcStats CdcStore::stats() const {
  CdcStats s = stats_;
  const BlockStore::ChunkCounters& cc = store_.chunk_counters();
  s.stored_bytes = cc.stored_bytes;
  s.padding_bytes = cc.padding_bytes;
  return s;
}

}  // namespace pod
