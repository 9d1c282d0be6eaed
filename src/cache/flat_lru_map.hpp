// Open-addressing LRU map: LruMap's interface over a flat probe table.
//
// LruMap (std::list + std::unordered_map) performs two node allocations per
// insert and chases three pointers per lookup; profiled replays spend more
// time in those maps than in the disks. FlatLruMap keeps entries in a
// stable slot pool threaded onto an intrusive MRU..LRU list and locates
// them through a linear-probe index table of {slot, tag} pairs:
//
//   index_  : CtrlIndex (common/ctrl_group.hpp), a power-of-two array of
//             {32-bit slot index, 32-bit hash tag} buckets plus control
//             bytes
//   slots_  : entry pool; erased slots are recycled via free_, and the
//             intrusive list is threaded by index, so index-table rehashes
//             never move entries. Trivially copyable entries live in OS
//             pages (common/mapped.hpp). Value pointers follow vector
//             rules: valid until an insert grows the pool (use them
//             immediately, as all callers here do; LruMap remains for
//             callers that need unconditional stability).
//
// The tag is the scrambled hash: probes compare tags before touching the
// slot pool at all, so a miss or a displaced-cluster scan costs sequential
// index-table loads only — no dependent cache miss into slots_ per probed
// bucket. The home bucket is recoverable from the tag (home = tag & mask),
// which keeps backward-shift deletion entirely inside the index table.
// The control bytes (0 = empty, else the tag's top 7
// bits) are group-scanned 16 lanes at a time (common/ctrl_group.hpp), so a
// probe reads one cache line of control bytes before it touches even the
// {slot, tag} buckets; candidate order and stop condition are identical to
// the scalar linear probe.
//
// Tags are pure functions of the key (no table state), so the tagged API
// below (hash_tag / get_tagged / take_tagged / put_tagged)
// lets fused callers hash each key once and reuse the tag across this map
// and any sibling map sharing the same Hash — precomputed tags stay valid
// across rehashes and erasures.
//
// Erasures use backward-shift deletion on the index table (only the 8-byte
// table entries move; slot entries stay put), so steady LRU churn leaves no
// tombstones and never forces compaction rebuilds. Keys are scrambled
// with a Fibonacci multiplier so identity hashes (std::hash<uint64_t>,
// FingerprintHash) do not cluster under linear probing.
//
// Semantics match LruMap exactly — same eviction order, same callback
// signature — so callers can switch per-map. The read cache and its ghost
// list use FlatLruMap (the fingerprint index cache keeps its three lists in
// one FingerprintTable); LruMap remains for the cold/irregular callers.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/ctrl_group.hpp"
#include "common/mapped.hpp"

namespace pod {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatLruMap {
 public:
  explicit FlatLruMap(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-sizes the index table and the slot pool for `expected` live
  /// entries. Fixed-capacity caches that always fill (read and ghost
  /// caches) reserve their capacity up front so steady growth pays no
  /// incremental rehashes.
  void reserve(std::size_t expected) {
    std::size_t required = 16;
    while (required < 2 * (expected + 1)) required <<= 1;
    if (index_.buckets() < required) rebuild_table(required);
    slots_.reserve(expected);
  }

  /// Looks up `key`; promotes to MRU on hit.
  V* get(const K& key) {
    const std::uint32_t s = find_slot(key);
    if (s == kNil) return nullptr;
    promote(s);
    return &slots_[s].value;
  }

  /// Looks up without promoting.
  const V* peek(const K& key) const {
    const std::uint32_t s = find_slot(key);
    return s == kNil ? nullptr : &slots_[s].value;
  }

  bool contains(const K& key) const { return find_slot(key) != kNil; }

  // --- tagged API (fused lookup passes) ---
  //
  // A fused caller hashes each key ONCE via hash_tag(), prefetches the
  // home groups of every structure it will probe, then resolves probes
  // with the *_tagged calls — no second hashing pass, no cold home
  // buckets. Tags depend only on the key and the Hash functor, so two
  // maps with the same Hash (e.g. an entry map and its ghost list) share
  // one tag per key.

  using Tag = std::uint32_t;

  /// The scrambled-hash tag for `key` (pure function of the key).
  Tag hash_tag(const K& key) const { return tag_of(key); }

  /// Prefetches the home control-byte group and index bucket for a tag.
  void prefetch_tag(Tag tag) const {
    if (!index_.empty()) index_.prefetch(tag);
  }

  /// get() with a precomputed tag (promotes to MRU on hit).
  V* get_tagged(Tag tag, const K& key) {
    if (index_.empty()) return nullptr;
    const std::uint32_t s = find_slot_tagged(tag, key);
    if (s == kNil) return nullptr;
    promote(s);
    return &slots_[s].value;
  }

  /// take() with a precomputed tag.
  std::optional<V> take_tagged(Tag tag, const K& key) {
    if (index_.empty()) return std::nullopt;
    const std::uint32_t s = find_slot_tagged(tag, key);
    if (s == kNil) return std::nullopt;
    std::optional<V> out{std::move(slots_[s].value)};
    remove_slot(s);
    return out;
  }

  /// Inserts or overwrites; promotes to MRU. Evictions (if over capacity)
  /// are reported through `on_evict`. A capacity of 0 means nothing is
  /// retained: the insert is dropped (and reported as evicted). One probe
  /// pass resolves hit-overwrite and miss-insert alike: the scan that
  /// rules the key out ends exactly at the bucket a new entry belongs in.
  template <typename EvictFn>
  void put(const K& key, V value, EvictFn&& on_evict) {
    put_tagged(tag_of(key), key, std::move(value),
               std::forward<EvictFn>(on_evict));
  }

  void put(const K& key, V value) {
    put(key, std::move(value), [](const K&, V&&) {});
  }

  /// put() with a precomputed tag.
  template <typename EvictFn>
  void put_tagged(Tag tag, const K& key, V value, EvictFn&& on_evict) {
    if (capacity_ == 0) {
      on_evict(key, std::move(value));
      return;
    }
    ensure_table_space();
    const CtrlProbeResult r = probe(tag, key);
    if (r.found) {
      const std::uint32_t hit = index_.at(r.pos).slot;
      slots_[hit].value = std::move(value);
      promote(hit);
      return;
    }
    const std::uint32_t s = alloc_slot(key, std::move(value));
    index_.set(r.pos, s, tag);
    slots_[s].tpos = static_cast<std::uint32_t>(r.pos);
    push_front(s);
    ++size_;
    while (size_ > capacity_) evict_lru(on_evict);
  }

  /// Removes a specific key; returns true if it was present.
  bool erase(const K& key) {
    const std::uint32_t s = find_slot(key);
    if (s == kNil) return false;
    remove_slot(s);
    return true;
  }

  /// Removes `key` and returns its value (single probe — the contains()
  /// + get() + erase() replacement).
  std::optional<V> take(const K& key) {
    const std::uint32_t s = find_slot(key);
    if (s == kNil) return std::nullopt;
    std::optional<V> out{std::move(slots_[s].value)};
    remove_slot(s);
    return out;
  }

  /// Pops the LRU entry (requires non-empty).
  std::pair<K, V> pop_lru() {
    POD_CHECK(size_ > 0);
    const std::uint32_t s = tail_;
    std::pair<K, V> out{slots_[s].key, std::move(slots_[s].value)};
    remove_slot(s);
    return out;
  }

  /// Shrinks/extends the capacity; evicts LRU entries as needed.
  template <typename EvictFn>
  void set_capacity(std::size_t capacity, EvictFn&& on_evict) {
    capacity_ = capacity;
    while (size_ > capacity_) evict_lru(on_evict);
  }

  void set_capacity(std::size_t capacity) {
    set_capacity(capacity, [](const K&, V&&) {});
  }

  /// Iterates entries from MRU to LRU.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t s = head_; s != kNil; s = slots_[s].next)
      fn(slots_[s].key, slots_[s].value);
  }

  void clear() {
    index_.clear();
    slots_.clear();
    free_.clear();
    size_ = 0;
    head_ = tail_ = kNil;
  }

  /// Key of the LRU entry (requires non-empty).
  const K& lru_key() const {
    POD_CHECK(size_ > 0);
    return slots_[tail_].key;
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Slot {
    K key;
    V value;
    std::uint32_t prev;
    std::uint32_t next;
    std::uint32_t tpos;  // current bucket in index_ (updated on shifts)
  };
  /// Trivially copyable entries (every production instantiation) live in
  /// OS pages; others, such as test maps of strings, in a std::vector.
  using SlotPool = std::conditional_t<std::is_trivially_copyable_v<Slot>,
                                      PagedVector<Slot>, std::vector<Slot>>;

  /// Scrambled-hash tag; the home bucket is `tag & mask`.
  std::uint32_t tag_of(const K& key) const {
    return CtrlIndex::tag_of_hash(static_cast<std::uint64_t>(Hash{}(key)));
  }

  /// Group-probes for `key`: found -> its bucket, else the first empty
  /// bucket (exactly where a scalar insert probe would land).
  CtrlProbeResult probe(std::uint32_t tag, const K& key) const {
    return index_.probe(tag,
                        [&](std::uint32_t s) { return slots_[s].key == key; });
  }

  std::uint32_t find_slot(const K& key) const {
    if (index_.empty()) return kNil;
    return find_slot_tagged(tag_of(key), key);
  }

  std::uint32_t find_slot_tagged(std::uint32_t tag, const K& key) const {
    const CtrlProbeResult r = probe(tag, key);
    return r.found ? index_.at(r.pos).slot : kNil;
  }

  void unlink(std::uint32_t s) {
    Slot& slot = slots_[s];
    if (slot.prev != kNil) slots_[slot.prev].next = slot.next;
    else head_ = slot.next;
    if (slot.next != kNil) slots_[slot.next].prev = slot.prev;
    else tail_ = slot.prev;
  }

  void push_front(std::uint32_t s) {
    Slot& slot = slots_[s];
    slot.prev = kNil;
    slot.next = head_;
    if (head_ != kNil) slots_[head_].prev = s;
    head_ = s;
    if (tail_ == kNil) tail_ = s;
  }

  void promote(std::uint32_t s) {
    if (head_ == s) return;
    unlink(s);
    push_front(s);
  }

  /// Places slot `s` (whose key is known absent) into the index table.
  void place(std::uint32_t s) {
    const std::uint32_t tag = tag_of(slots_[s].key);
    const std::size_t pos = index_.first_empty(tag);
    index_.set(pos, s, tag);
    slots_[s].tpos = static_cast<std::uint32_t>(pos);
  }

  void rebuild_table(std::size_t new_size) {
    index_.reset(new_size);
    for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) place(s);
  }

  void ensure_table_space() {
    // Keep live entries under half the table.
    std::size_t required = 16;
    while (required < 2 * (size_ + 1)) required <<= 1;
    if (index_.buckets() < required) rebuild_table(required);
  }

  /// Pops a recycled slot (or grows the pool) and fills in key/value; the
  /// caller links it into the index table and LRU list.
  std::uint32_t alloc_slot(const K& key, V&& value) {
    if (!free_.empty()) {
      const std::uint32_t s = free_.back();
      free_.pop_back();
      slots_[s].key = key;
      slots_[s].value = std::move(value);
      return s;
    }
    const std::uint32_t s = static_cast<std::uint32_t>(slots_.size());
    POD_CHECK(s < kNil);
    slots_.push_back(Slot{key, std::move(value), kNil, kNil, kNil});
    return s;
  }

  void remove_slot(std::uint32_t s) {
    unlink(s);
    detach_table(s);
  }

  /// Removes slot `s` from the index table (backward-shift) and recycles
  /// it. The caller has already unlinked it from the recency list.
  void detach_table(std::uint32_t s) {
    free_.push_back(s);
    --size_;
    index_.erase(slots_[s].tpos, [this](std::uint32_t moved, std::size_t pos) {
      slots_[moved].tpos = static_cast<std::uint32_t>(pos);
    });
  }

  template <typename EvictFn>
  void evict_lru(EvictFn&& on_evict) {
    const std::uint32_t s = tail_;
    K key = slots_[s].key;
    V value = std::move(slots_[s].value);
    remove_slot(s);
    on_evict(key, std::move(value));
  }

  std::size_t capacity_;
  CtrlIndex index_;
  SlotPool slots_;
  std::vector<std::uint32_t> free_;
  std::size_t size_ = 0;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
};

}  // namespace pod
