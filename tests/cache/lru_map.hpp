// Reference LRU map and ghost list: the test oracles the caches' shared
// LruTable (src/cache/lru_table.hpp) is checked against.
//
// LruMap is the plain composition — a std::list in recency order plus a
// std::unordered_map of list iterators: O(1) lookup, insert, touch, and LRU
// eviction through a callback. It shares no code with the table it checks.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"

namespace pod {

template <typename K, typename V, typename Hash = std::hash<K>>
class LruMap {
 public:
  explicit LruMap(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  /// Looks up `key`; promotes to MRU on hit.
  V* get(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Looks up without promoting.
  const V* peek(const K& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second->second;
  }

  bool contains(const K& key) const { return map_.count(key) > 0; }

  /// Inserts or overwrites; promotes to MRU. Evictions (if over capacity)
  /// are reported through `on_evict`. A capacity of 0 means nothing is
  /// retained: the insert is dropped (and reported as evicted).
  template <typename EvictFn>
  void put(const K& key, V value, EvictFn&& on_evict) {
    if (capacity_ == 0) {
      on_evict(key, std::move(value));
      return;
    }
    // Single hash lookup for both the hit and the miss path (the old
    // find + operator[] pair hashed twice on every insert).
    auto [it, inserted] = map_.try_emplace(key);
    if (!inserted) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    it->second = order_.begin();
    while (map_.size() > capacity_) evict_lru(on_evict);
  }

  void put(const K& key, V value) {
    put(key, std::move(value), [](const K&, V&&) {});
  }

  /// Removes a specific key; returns true if it was present.
  bool erase(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    order_.erase(it->second);
    map_.erase(it);
    return true;
  }

  /// Removes `key` and returns its value with a single lookup (replaces
  /// contains()/get() followed by erase()).
  std::optional<V> take(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    std::optional<V> out{std::move(it->second->second)};
    order_.erase(it->second);
    map_.erase(it);
    return out;
  }

  /// Pops the LRU entry (requires non-empty).
  std::pair<K, V> pop_lru() {
    POD_CHECK(!order_.empty());
    auto& back = order_.back();
    std::pair<K, V> out{back.first, std::move(back.second)};
    map_.erase(back.first);
    order_.pop_back();
    return out;
  }

  /// Shrinks/extends the capacity; evicts LRU entries as needed.
  template <typename EvictFn>
  void set_capacity(std::size_t capacity, EvictFn&& on_evict) {
    capacity_ = capacity;
    while (map_.size() > capacity_) evict_lru(on_evict);
  }

  void set_capacity(std::size_t capacity) {
    set_capacity(capacity, [](const K&, V&&) {});
  }

  /// Iterates entries from MRU to LRU.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [k, v] : order_) fn(k, v);
  }

  void clear() {
    map_.clear();
    order_.clear();
  }

  /// Key of the LRU entry (requires non-empty).
  const K& lru_key() const {
    POD_CHECK(!order_.empty());
    return order_.back().first;
  }

 private:
  template <typename EvictFn>
  void evict_lru(EvictFn&& on_evict) {
    auto& back = order_.back();
    K key = back.first;
    V value = std::move(back.second);
    map_.erase(back.first);
    order_.pop_back();
    on_evict(key, std::move(value));
  }

  std::size_t capacity_;
  std::list<std::pair<K, V>> order_;  // front = MRU
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator, Hash> map_;
};

/// Reference ghost list: an LRU of recently evicted keys, each stamped with
/// its eviction sequence number. A probe consumes the key and counts a hit,
/// which is *near* when at most `near_threshold` newer evictions happened
/// since the key was remembered.
template <typename K, typename Hash = std::hash<K>>
class RefGhostList {
 public:
  explicit RefGhostList(std::size_t capacity) : entries_(capacity) {}

  void remember(const K& key) { entries_.put(key, seq_++); }

  bool probe_and_consume(const K& key) {
    const std::optional<std::uint64_t> stored = entries_.take(key);
    if (!stored.has_value()) return false;
    if (seq_ - *stored <= near_threshold_) ++near_hits_;
    ++hits_;
    return true;
  }

  /// Drops a key without counting a hit (swap-in and prefetch).
  void forget(const K& key) { entries_.erase(key); }

  void set_near_threshold(std::uint64_t n) { near_threshold_ = n; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t near_hits() const { return near_hits_; }

  /// Visits remembered keys from most to least recently evicted.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    entries_.for_each([&fn](const K& key, const std::uint64_t&) { fn(key); });
  }

 private:
  LruMap<K, std::uint64_t, Hash> entries_;
  std::uint64_t seq_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t near_hits_ = 0;
  std::uint64_t near_threshold_ = ~std::uint64_t{0};
};

}  // namespace pod
