// Reference model of IndexCache: three independent LRU maps.
//
// An entry LruMap whose eviction callback remembers the key in a ghost
// list and then puts {fp, entry} into a spill LruMap (lru_map.hpp: node
// maps that share no code with the LruTable they check). This model keeps
// that composition, driven through the scalar per-key calls only, as the
// oracle the unified table is checked against.
#pragma once

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/index_cache.hpp"
#include "hash/fingerprint.hpp"
#include "lru_map.hpp"

namespace pod::testing {

/// A resident entry of the reference model.
struct RefEntry {
  Pba pba = kInvalidPba;
  std::uint32_t count = 0;
};

/// MRU-first contents of the three lists plus the probe counters.
struct IndexCacheState {
  std::vector<std::tuple<Fingerprint, Pba, std::uint32_t>> resident;
  std::vector<Fingerprint> ghost;
  std::vector<std::pair<Fingerprint, Pba>> spill;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t ghost_hits = 0;
  std::uint64_t ghost_near_hits = 0;

  bool operator==(const IndexCacheState&) const = default;
};

class ReferenceIndexCache {
  /// The eviction callback: remember the key, then spill the payload.
  auto evict() {
    return [this](const Fingerprint& fp, RefEntry&& e) {
      ghost_.remember(fp);
      spilled_.put(fp, e);
    };
  }

 public:
  ReferenceIndexCache(std::uint64_t capacity_bytes,
                      std::uint64_t ghost_capacity_bytes)
      : entries_(capacity_bytes / IndexCache::kEntryBytes),
        ghost_(ghost_capacity_bytes / IndexCache::kEntryBytes),
        spilled_(0) {}

  void enable_spill(std::size_t capacity) { spilled_.set_capacity(capacity); }
  void set_ghost_near_threshold(std::uint64_t n) { ghost_.set_near_threshold(n); }

  const RefEntry* lookup(const Fingerprint& fp) {
    RefEntry* e = entries_.get(fp);
    if (e != nullptr) {
      ++hits_;
      ++e->count;
      return e;
    }
    ++misses_;
    return nullptr;
  }

  const RefEntry* peek(const Fingerprint& fp) const { return entries_.peek(fp); }

  bool ghost_probe(const Fingerprint& fp) { return ghost_.probe_and_consume(fp); }
  void ghost_remember(const Fingerprint& fp) { ghost_.remember(fp); }

  void insert(const Fingerprint& fp, Pba pba) {
    entries_.put(fp, RefEntry{pba, 0}, evict());
  }

  void invalidate_if(const Fingerprint& fp, Pba pba) {
    const RefEntry* e = entries_.peek(fp);
    if (e != nullptr && e->pba == pba) entries_.erase(fp);
  }

  void resize(std::uint64_t capacity_bytes) {
    entries_.set_capacity(capacity_bytes / IndexCache::kEntryBytes, evict());
  }

  /// ICache's swap-in as it was: collect up to `want` spilled entries
  /// MRU-first, then erase each from the spill store, forget it in the
  /// ghost list and re-insert it.
  std::vector<std::pair<Fingerprint, Pba>> readmit(std::size_t want) {
    std::vector<std::pair<Fingerprint, Pba>> to_admit;
    spilled_.for_each([&](const Fingerprint& fp, const RefEntry& e) {
      if (to_admit.size() < want) to_admit.emplace_back(fp, e.pba);
    });
    for (const auto& [fp, pba] : to_admit) {
      spilled_.erase(fp);
      ghost_.forget(fp);
      insert(fp, pba);
    }
    return to_admit;
  }

  IndexCacheState state() const {
    IndexCacheState s;
    entries_.for_each([&](const Fingerprint& fp, const RefEntry& e) {
      s.resident.emplace_back(fp, e.pba, e.count);
    });
    ghost_.for_each([&](const Fingerprint& fp) { s.ghost.push_back(fp); });
    spilled_.for_each([&](const Fingerprint& fp, const RefEntry& e) {
      s.spill.emplace_back(fp, e.pba);
    });
    s.hits = hits_;
    s.misses = misses_;
    s.ghost_hits = ghost_.hits();
    s.ghost_near_hits = ghost_.near_hits();
    return s;
  }

 private:
  LruMap<Fingerprint, RefEntry, FingerprintHash> entries_;
  RefGhostList<Fingerprint, FingerprintHash> ghost_;
  LruMap<Fingerprint, RefEntry, FingerprintHash> spilled_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// The same snapshot of the unified cache.
inline IndexCacheState state_of(const IndexCache& c) {
  using Table = FingerprintTable;
  const Table& t = c.table();
  IndexCacheState s;
  t.for_each(Table::kResident, [&](std::uint32_t slot) {
    s.resident.emplace_back(t.key(slot), t.entry(slot).pba(),
                            t.entry(slot).count());
    return true;
  });
  t.for_each(Table::kGhost, [&](std::uint32_t slot) {
    s.ghost.push_back(t.key(slot));
    return true;
  });
  t.for_each(Table::kSpill, [&](std::uint32_t slot) {
    s.spill.emplace_back(t.key(slot), t.spilled_pba(slot));
    return true;
  });
  s.hits = c.hits();
  s.misses = c.misses();
  s.ghost_hits = c.ghost_hits();
  s.ghost_near_hits = c.ghost_near_hits();
  return s;
}

}  // namespace pod::testing
