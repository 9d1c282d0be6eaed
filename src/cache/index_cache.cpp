#include "cache/index_cache.hpp"

#include <algorithm>

namespace pod {

IndexCache::IndexCache(std::uint64_t capacity_bytes,
                       std::uint64_t ghost_capacity_bytes)
    : entries_(entries_for(capacity_bytes)),
      ghost_(entries_for(ghost_capacity_bytes)) {
  // Both maps run at capacity for the whole replay; sizing them now keeps
  // incremental rehash pauses off the per-chunk insert path.
  entries_.reserve(entries_.capacity());
  ghost_.reserve(ghost_.capacity());
}

const IndexEntry* IndexCache::lookup(const Fingerprint& fp) {
  IndexEntry* e = entries_.get(fp);
  if (e != nullptr) {
    ++hits_;
    ++e->count;
    return e;
  }
  ++misses_;
  return nullptr;
}

const IndexEntry* IndexCache::peek(const Fingerprint& fp) const {
  return entries_.peek(fp);
}

void IndexCache::lookup_fused(std::span<const Fingerprint> fps,
                              const IndexEntry** out) {
  const std::size_t n = fps.size();
  batch_probes_ += n;
  tag_scratch_.resize(n);
  // Three-stage software pipeline with bounded lookahead. Whole-span
  // prefetch phases look tidy but issue 4 lines/key in one burst — far
  // beyond the core's line-fill buffers at DRAM-resident table sizes, so
  // most hints get dropped exactly when they matter. Instead each stage
  // runs a fixed distance ahead of the resolve point:
  //   stage A (i + 2*kD): hash the fingerprint once; prefetch entry-map
  //     and ghost home groups (one tag serves both maps — identical Hash
  //     functor, identical scramble);
  //   stage B (i + kD): prefetch the slot entries the (now warm) home
  //     buckets name, on BOTH maps, so a consumed ghost miss does not eat
  //     the slot's memory latency serially. (Ghost erasures during resolve
  //     can shift slots; a stale hint costs one line, never correctness.)
  //   stage C (i): resolve with the already-computed tag. Entry probe,
  //     then ghost probe_and_consume on miss — the scalar engine's exact
  //     per-chunk interleaving; promotions collect on a detached chain
  //     and publish with one splice. Ghost erasures shift only the ghost
  //     table, and tags are pure functions of the key, so neither loop
  //     invalidates the other.
  constexpr std::size_t kD = 2;  // per-stage lookahead (lines in flight
                                 // stay within one core's fill buffers)
  // Prefetch hints are speculation; don't speculate into a table known to
  // be empty (long consume-only stretches drain the ghost completely).
  const bool ghost_live = ghost_.size() != 0;
  const auto stage_a = [&](std::size_t i) {
    const Tag tag = entries_.hash_tag(fps[i]);
    tag_scratch_[i] = tag;
    entries_.prefetch_tag(tag);
    if (ghost_live) ghost_.prefetch_tag(tag);
  };
  const auto stage_b = [&](std::size_t i) {
    entries_.prefetch_slot_of(tag_scratch_[i]);
    if (ghost_live) ghost_.prefetch_slot_of(tag_scratch_[i]);
  };
  for (std::size_t i = 0; i < std::min(2 * kD, n); ++i) stage_a(i);
  for (std::size_t i = 0; i < std::min(kD, n); ++i) stage_b(i);
  FlatLruMap<Fingerprint, IndexEntry, FingerprintHash>::Chain chain;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 2 * kD < n) stage_a(i + 2 * kD);
    if (i + kD < n) stage_b(i + kD);
    IndexEntry* e = entries_.get_chained(tag_scratch_[i], fps[i], chain);
    out[i] = e;
    if (e != nullptr) {
      ++hits_;
      ++e->count;
    } else {
      ++misses_;
      ghost_.probe_and_consume_tagged(tag_scratch_[i], fps[i]);
    }
  }
  entries_.splice(chain);
}

const IndexEntry* IndexCache::lookup_tagged(Tag tag, const Fingerprint& fp) {
  IndexEntry* e = entries_.get_tagged(tag, fp);
  if (e != nullptr) {
    ++hits_;
    ++e->count;
    return e;
  }
  ++misses_;
  return nullptr;
}

void IndexCache::insert_tagged(Tag tag, const Fingerprint& fp, Pba pba) {
  entries_.put_tagged(tag, fp, IndexEntry{pba, 0},
                      [this](const Fingerprint& evicted, IndexEntry&& entry) {
                        ghost_.remember(evicted);
                        if (evict_hook) evict_hook(evicted, entry);
                      });
}

void IndexCache::insert(const Fingerprint& fp, Pba pba) {
  entries_.put(fp, IndexEntry{pba, 0},
               [this](const Fingerprint& evicted, IndexEntry&& entry) {
                 ghost_.remember(evicted);
                 if (evict_hook) evict_hook(evicted, entry);
               });
}

void IndexCache::insert_batch(const Fingerprint* fps, const Pba* pbas,
                              std::size_t n) {
  if (n == 0) return;
  value_scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) value_scratch_[i] = IndexEntry{pbas[i], 0};
  // Warm the ghost home buckets of the likely victims: the entries the
  // eviction sweep will pop are the current LRU tail, and each evicted key
  // is immediately remembered by the ghost list below.
  if (entries_.size() + n > entries_.capacity()) {
    entries_.for_each_lru(n, [this](const Fingerprint& fp, const IndexEntry&) {
      ghost_.prefetch(fp);
    });
  }
  evicted_fp_scratch_.clear();
  evicted_entry_scratch_.clear();
  entries_.put_batch(fps, value_scratch_.data(), n,
                     [this](const Fingerprint& evicted, IndexEntry&& entry) {
                       evicted_fp_scratch_.push_back(evicted);
                       evicted_entry_scratch_.push_back(entry);
                     });
  if (evicted_fp_scratch_.empty()) return;
  ghost_.remember_batch(evicted_fp_scratch_.data(), evicted_fp_scratch_.size());
  if (evict_hook) {
    for (std::size_t i = 0; i < evicted_fp_scratch_.size(); ++i)
      evict_hook(evicted_fp_scratch_[i], evicted_entry_scratch_[i]);
  }
}

void IndexCache::invalidate(const Fingerprint& fp) { entries_.erase(fp); }

void IndexCache::rebind(const Fingerprint& fp, Pba pba) {
  IndexEntry* e = entries_.get(fp);
  if (e != nullptr) e->pba = pba;
}

void IndexCache::resize(std::uint64_t capacity_bytes) {
  entries_.set_capacity(entries_for(capacity_bytes),
                        [this](const Fingerprint& evicted, IndexEntry&& entry) {
                          ghost_.remember(evicted);
                          if (evict_hook) evict_hook(evicted, entry);
                        });
}

}  // namespace pod
