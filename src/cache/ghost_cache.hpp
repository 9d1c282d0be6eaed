// Ghost cache: an LRU of *metadata only* for recently evicted entries.
//
// iCache (paper §III-C, Figure 7) keeps a ghost index cache and a ghost
// read cache. A hit in a ghost cache means "this access would have been a
// hit had the corresponding actual cache been larger" — the signal the
// cost-benefit estimator uses to repartition memory (same idea as ARC's
// ghost lists). This class is the read cache's ghost list; the index
// cache's ghost list is a list of its FingerprintTable, so an eviction
// there moves the entry instead of inserting it into a second table.
#pragma once

#include <cstdint>
#include <optional>

#include "cache/flat_lru_map.hpp"

namespace pod {

template <typename K, typename Hash = std::hash<K>>
class GhostCache {
 public:
  explicit GhostCache(std::size_t capacity) : entries_(capacity) {}

  /// Pre-sizes the underlying table for the configured capacity.
  void reserve(std::size_t expected) { entries_.reserve(expected); }

  /// Records an eviction from the actual cache.
  void remember(const K& key) {
    entries_.put(key, seq_++, [](const K&, std::uint64_t&&) {});
  }

  /// Probes for `key`; on hit the entry is consumed (the actual cache is
  /// about to re-admit it) and the hit counter advances. A hit also counts
  /// as *near* when at most `near_threshold` newer evictions happened since
  /// the entry was remembered — i.e. the access would have been an actual
  /// hit had the cache been near_threshold entries larger (exact for LRU).
  bool probe_and_consume(const K& key) {
    return probe_and_consume_tagged(entries_.hash_tag(key), key);
  }

  // --- tagged API (fused lookup passes; see FlatLruMap) ---
  //
  // The ghost list shares its Hash functor with the actual cache it
  // shadows, so a fused caller reuses ONE precomputed tag per key across
  // both structures. Tags are pure functions of the key: they stay valid
  // across the table shifts probe_and_consume's erasures cause.

  using Tag = typename FlatLruMap<K, std::uint64_t, Hash>::Tag;

  Tag hash_tag(const K& key) const { return entries_.hash_tag(key); }

  void prefetch_tag(Tag tag) const { entries_.prefetch_tag(tag); }

  /// probe_and_consume() with a precomputed tag.
  bool probe_and_consume_tagged(Tag tag, const K& key) {
    // Consumption can drain the list entirely between refills; skip the
    // table walk (one ctrl line per probe) when there is nothing to find.
    if (entries_.size() == 0) return false;
    const std::optional<std::uint64_t> stored = entries_.take_tagged(tag, key);
    if (!stored.has_value()) return false;
    const std::uint64_t age = seq_ - *stored;
    if (age <= near_threshold_) ++near_hits_;
    ++hits_;
    return true;
  }

  /// Sets the "would a one-step-larger cache have kept it" horizon.
  void set_near_threshold(std::uint64_t entries) { near_threshold_ = entries; }
  std::uint64_t near_threshold() const { return near_threshold_; }

  bool contains(const K& key) const { return entries_.contains(key); }

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return entries_.capacity(); }
  void set_capacity(std::size_t c) { entries_.set_capacity(c); }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t near_hits() const { return near_hits_; }
  /// Hits since the last epoch reset (cost-benefit window).
  std::uint64_t epoch_hits() const { return hits_ - epoch_base_; }
  void begin_epoch() { epoch_base_ = hits_; }

  /// Iterates remembered keys from most- to least-recently evicted.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    entries_.for_each([&fn](const K& key, const std::uint64_t&) { fn(key); });
  }

  /// Drops a specific key (e.g. after swap-in) without counting a hit.
  void forget(const K& key) { entries_.erase(key); }

  void clear() { entries_.clear(); }

 private:
  // Value = eviction sequence number (for hit-age estimation).
  FlatLruMap<K, std::uint64_t, Hash> entries_;
  std::uint64_t seq_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t near_hits_ = 0;
  std::uint64_t near_threshold_ = ~std::uint64_t{0};
  std::uint64_t epoch_base_ = 0;
};

}  // namespace pod
