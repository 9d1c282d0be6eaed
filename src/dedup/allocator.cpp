#include "dedup/allocator.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/packed_pba.hpp"
#include "fault/journal.hpp"

namespace pod {

PoolAllocator::PoolAllocator(Pba pool_start, std::uint64_t pool_blocks)
    : pool_start_(pool_start),
      pool_blocks_(pool_blocks),
      bump_(pool_start),
      free_mask_(static_cast<std::size_t>((pool_blocks + 63) / 64)) {
  POD_CHECK(pool_blocks_ > 0);
}

Pba PoolAllocator::allocate(Pba hint) {
  // Contiguity first: honour the hint when it names a block sitting in the
  // free list (a recycled run) or the current bump position.
  if (hint != kInvalidPba && in_pool(hint)) {
    const std::size_t rel = static_cast<std::size_t>(hint - pool_start_);
    if (hint == bump_) {
      ++bump_;
      ++allocated_;
      return hint;
    }
    if (freed(rel)) {
      set_freed(rel, false);
      // Lazy deletion: the stale free_list_ entry is skipped when popped.
      ++allocated_;
      return hint;
    }
  }
  if (bump_ < pool_start_ + pool_blocks_) {
    ++allocated_;
    return bump_++;
  }
  // Pool exhausted: recycle freed blocks (scattered — models aged storage).
  while (!free_list_.empty()) {
    const Pba pba = free_list_.back();
    free_list_.pop_back();
    const std::size_t rel = static_cast<std::size_t>(pba - pool_start_);
    if (!freed(rel)) continue;  // consumed via hint already
    set_freed(rel, false);
    ++allocated_;
    return pba;
  }
  POD_CHECK(false && "pool exhausted: raise pool_fraction for this workload");
}

void PoolAllocator::free_block(Pba pba) {
  POD_CHECK(in_pool(pba));
  const std::size_t rel = static_cast<std::size_t>(pba - pool_start_);
  POD_CHECK(!freed(rel));
  set_freed(rel, true);
  free_list_.push_back(pba);
  POD_CHECK(allocated_ > 0);
  --allocated_;
}

bool PoolAllocator::is_free(Pba pba) const {
  if (!in_pool(pba)) return false;
  if (pba >= bump_) return true;  // never handed out
  return freed(static_cast<std::size_t>(pba - pool_start_));
}

BlockStore::BlockStore(const Config& cfg)
    : logical_blocks_(cfg.logical_blocks),
      pool_(cfg.logical_blocks,
            std::max<std::uint64_t>(
                1024, static_cast<std::uint64_t>(
                          static_cast<double>(cfg.logical_blocks) *
                          cfg.pool_fraction))),
      refs_(static_cast<std::size_t>(data_region_blocks())),
      fps_(cfg.fingerprints ? static_cast<std::size_t>(data_region_blocks())
                            : 0) {
  POD_CHECK(logical_blocks_ > 0);
  check_packed_pba_range(data_region_blocks());
  map_.reserve(logical_blocks_);
}

bool BlockStore::is_live(Lba lba) const {
  return identity_live(lba) || map_.is_redirected(lba);
}

Pba BlockStore::resolve(Lba lba) const { return map_.resolve(lba); }

void BlockStore::unref(Pba pba) {
  POD_DCHECK(pba < refs_.size());
  std::uint32_t& refs = refs_[static_cast<std::size_t>(pba)];
  POD_DCHECK(refs > 0);
  if (--refs == 0) {
    POD_DCHECK(live_physical_ > 0);
    --live_physical_;
    if (restoring_) return;  // recovery: nothing listed, pool rebuilt later
    // Copy the fingerprint out: the caller may place new content in the
    // block (the same run's next chunk, its own home) before the list is
    // drained, which overwrites fps_[pba].
    freed_.push_back(FreedBlock{
        pba, keeps_fingerprints() ? fps_[static_cast<std::size_t>(pba)]
                                  : Fingerprint{}});
    if (pool_.in_pool(pba)) pool_.free_block(pba);
  }
}

void BlockStore::bind(Lba lba, Pba pba) {
  if (pba == static_cast<Pba>(lba)) {
    map_.set_identity(lba);
  } else {
    map_.set(lba, pba);
  }
}

Pba BlockStore::place_write(Lba lba, const Fingerprint& fp, Pba prev_pba) {
  POD_CHECK(lba < logical_blocks_);
  const Pba old = resolve(lba);
  if (old != kInvalidPba) {
    unref(old);
  } else {
    ++live_count_;
  }

  const Pba home = static_cast<Pba>(lba);
  Pba target;
  if (refcount(home) == 0) {
    // Home block free (or just released by the unref above): in-place.
    target = home;
  } else {
    // Home still referenced by other LBAs: redirect into the pool,
    // preferring contiguity with the previous chunk of this request.
    const Pba hint = prev_pba != kInvalidPba ? prev_pba + 1 : kInvalidPba;
    target = pool_.allocate(hint);
  }

  POD_CHECK(target < refs_.size());
  POD_CHECK(refs_[static_cast<std::size_t>(target)] == 0);
  refs_[static_cast<std::size_t>(target)] = 1;
  set_fingerprint(target, fp);
  ++live_physical_;
  bind(lba, target);
  if (journal_ != nullptr) journal_->bind(lba, target, fp);
  return target;
}

void BlockStore::bind_run(Lba lba0, const Pba* targets, std::size_t n) {
  if (n == 0) return;
  bool identity = true;
  for (std::size_t k = 0; k < n; ++k) {
    if (targets[k] != static_cast<Pba>(lba0 + k)) {
      identity = false;
      break;
    }
  }
  if (identity) {
    map_.set_identity_run(lba0, n);
    return;
  }
  // Sequential redirect: targets form one run that is not the identity run
  // (targets[0] != lba0 implies targets[k] != lba0+k for every k, since
  // both sequences advance in lockstep).
  if (targets[0] != static_cast<Pba>(lba0)) {
    bool sequential = true;
    for (std::size_t k = 1; k < n; ++k) {
      if (targets[k] != targets[0] + k) {
        sequential = false;
        break;
      }
    }
    if (sequential) {
      map_.set_run(lba0, targets[0], n);
      return;
    }
  }
  for (std::size_t k = 0; k < n; ++k) bind(lba0 + k, targets[k]);
}

void BlockStore::place_write_run(Lba lba0, std::span<const Fingerprint> fps,
                                 std::vector<Pba>& out) {
  const std::size_t n = fps.size();
  POD_CHECK(lba0 + n <= logical_blocks_);
  const std::size_t base = out.size();
  out.resize(base + n);
  Pba prev = kInvalidPba;
  for (std::size_t k = 0; k < n; ++k) {
    const Lba lba = lba0 + k;
    const Pba old = resolve(lba);
    if (old != kInvalidPba) {
      unref(old);
    } else {
      ++live_count_;
    }

    const Pba home = static_cast<Pba>(lba);
    Pba target;
    if (refs_[static_cast<std::size_t>(home)] == 0) {
      target = home;
    } else {
      target = pool_.allocate(prev != kInvalidPba ? prev + 1 : kInvalidPba);
    }

    POD_DCHECK(target < refs_.size());
    POD_DCHECK(refs_[static_cast<std::size_t>(target)] == 0);
    refs_[static_cast<std::size_t>(target)] = 1;
    set_fingerprint(target, fps[k]);
    ++live_physical_;
    out[base + k] = target;
    prev = target;
    if (journal_ != nullptr) journal_->bind(lba, target, fps[k]);
  }
  bind_run(lba0, out.data() + base, n);
}

Pba BlockStore::place_chunk_write(Lba lba0, std::uint32_t nblocks,
                                  std::uint64_t bytes, const Fingerprint& fp) {
  POD_CHECK(nblocks > 0 && lba0 + nblocks <= logical_blocks_);
  POD_CHECK(bytes > blocks_to_bytes(nblocks - 1) &&
            bytes <= blocks_to_bytes(nblocks));
  for (std::uint32_t k = 0; k < nblocks; ++k) {
    const Lba lba = lba0 + k;
    POD_DCHECK(!is_live(lba));
    const std::size_t home = static_cast<std::size_t>(lba);
    POD_DCHECK(refs_[home] == 0);
    refs_[home] = 1;
    set_fingerprint(home, fp);
    ++live_physical_;
    ++live_count_;
    if (journal_ != nullptr) journal_->bind(lba, static_cast<Pba>(lba), fp);
  }
  map_.set_identity_run(lba0, nblocks);
  ++chunk_counters_.chunks_placed;
  chunk_counters_.stored_bytes += bytes;
  chunk_counters_.padding_bytes += blocks_to_bytes(nblocks) - bytes;
  return static_cast<Pba>(lba0);
}

bool BlockStore::dedup_chunk_to(Lba lba0, Pba pba0, std::uint32_t nblocks,
                                const Fingerprint& fp) {
  POD_CHECK(nblocks > 0 && lba0 + nblocks <= logical_blocks_);
  if (pba0 + nblocks > refs_.size()) return false;
  for (std::uint32_t k = 0; k < nblocks; ++k) {
    const Fingerprint* live = fingerprint_of(pba0 + k);
    if (live == nullptr || !(*live == fp)) return false;
  }
  for (std::uint32_t k = 0; k < nblocks; ++k) {
    const Lba lba = lba0 + k;
    POD_DCHECK(!is_live(lba));
    ++refs_[static_cast<std::size_t>(pba0 + k)];
    ++live_count_;
    if (journal_ != nullptr) journal_->bind(lba, pba0 + k, fp);
  }
  map_.set_run(lba0, pba0, nblocks);
  ++chunk_counters_.chunks_deduped;
  return true;
}

void BlockStore::dedup_to(Lba lba, Pba pba) {
  POD_CHECK(lba < logical_blocks_);
  POD_CHECK(pba < refs_.size() && refs_[static_cast<std::size_t>(pba)] > 0);
  const Pba old = resolve(lba);
  if (old == pba) return;  // already mapped there (same-content overwrite)
  ++refs_[static_cast<std::size_t>(pba)];
  if (journal_ != nullptr) {
    const Fingerprint* fp = fingerprint_of(pba);
    journal_->bind(lba, pba, fp != nullptr ? *fp : Fingerprint{});
  }
  if (old != kInvalidPba) {
    unref(old);
  } else {
    ++live_count_;
  }
  bind(lba, pba);
}

void BlockStore::discard(Lba lba) {
  const Pba old = resolve(lba);
  if (old == kInvalidPba) return;
  if (journal_ != nullptr) journal_->unbind(lba);
  unref(old);
  map_.clear(lba);
  POD_CHECK(live_count_ > 0);
  --live_count_;
}

void BlockStore::discard_run(Lba lba0, std::uint64_t n) {
  POD_CHECK(lba0 + n <= logical_blocks_);
  for (std::uint64_t k = 0; k < n; ++k) {
    const Lba lba = lba0 + k;
    const Pba old = resolve(lba);
    if (old == kInvalidPba) continue;
    if (journal_ != nullptr) journal_->unbind(lba);
    unref(old);
    POD_CHECK(live_count_ > 0);
    --live_count_;
  }
  map_.clear_run(lba0, static_cast<std::size_t>(n));
}

void BlockStore::restore_bind(Lba lba, Pba pba, const Fingerprint& fp) {
  POD_CHECK(lba < logical_blocks_);
  POD_CHECK(pba < refs_.size());
  restoring_ = true;
  const Pba old = resolve(lba);
  if (old == pba) {
    // In-place content replacement (the live path unrefs to zero and
    // immediately re-places at the same block): refcounts are unchanged,
    // but the block now holds the new content.
    set_fingerprint(pba, fp);
  } else {
    std::uint32_t& refs = refs_[static_cast<std::size_t>(pba)];
    if (refs == 0) {
      set_fingerprint(pba, fp);
      ++live_physical_;
    }
    ++refs;
    if (old != kInvalidPba) {
      unref(old);
    } else {
      ++live_count_;
    }
    bind(lba, pba);
  }
  restoring_ = false;
}

void BlockStore::restore_unbind(Lba lba) {
  POD_CHECK(lba < logical_blocks_);
  restoring_ = true;
  const Pba old = resolve(lba);
  if (old != kInvalidPba) {
    unref(old);
    map_.clear(lba);
    POD_CHECK(live_count_ > 0);
    --live_count_;
  }
  restoring_ = false;
}

void BlockStore::finish_restore() {
  pool_.reset_occupancy([this](Pba pba) { return refcount(pba) > 0; });
}

}  // namespace pod
