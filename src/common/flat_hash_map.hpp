// Minimal open-addressing hash map for trivially-small key/value pairs.
//
// Backs the on-disk fingerprint index's in-memory table (and similar flat
// maps) without std::unordered_map's per-node allocation. Probing is
// Swiss-table style: one control byte per bucket (0 = empty, else a 7-bit
// hash tag) lives in a contiguous array scanned a 16-lane group at a time
// (common/ctrl_group.hpp), so a probe touches one cache line of tags
// before any slot and a clean miss touches no slot at all. The group scan
// visits candidates in scalar probe order and stops at the first empty, so
// results are bit-identical to the linear probe it replaces. Erasures use
// backward-shift deletion, so the table carries no tombstones and never
// needs compaction rebuilds under steady insert/erase churn. Keys are
// scrambled with a Fibonacci multiplier so identity hashes do not cluster.
// Slots and control bytes are OS-zeroed arrays (common/mapped.hpp): an
// all-zero slot is an empty one, so a reserve or rehash costs no fill pass
// and buckets the table never reaches never become resident.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>

#include "common/ctrl_group.hpp"
#include "common/mapped.hpp"

namespace pod {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatHashMap {
  static_assert(std::is_trivially_copyable_v<K> &&
                    std::is_trivially_copyable_v<V>,
                "FlatHashMap slots live in OS-zeroed pages");

 public:
  FlatHashMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pointer to the value for `key`, or nullptr.
  const V* find(const K& key) const {
    const std::size_t i = find_index(key);
    return i == kNpos ? nullptr : &slots_[i].second;
  }
  V* find(const K& key) {
    const std::size_t i = find_index(key);
    return i == kNpos ? nullptr : &slots_[i].second;
  }

  bool contains(const K& key) const { return find_index(key) != kNpos; }

  /// Pre-sizes the table for `expected` entries so steady growth to that
  /// size pays no incremental rebuilds.
  void reserve(std::size_t expected) {
    std::size_t required = 16;
    while (required < 2 * (expected + 1)) required <<= 1;
    if (buckets() < required) rebuild(required);
  }

  /// Inserts or overwrites. One probe pass: the scan that rules the key
  /// out ends exactly at the slot a new entry belongs in.
  void insert_or_assign(const K& key, V value) {
    ensure_space();
    const std::uint8_t tag = tag_of(key);
    const CtrlProbeResult r =
        ctrl_probe(state_.data(), mask_, home_of(key), tag, wide_,
                   [&](std::size_t j) { return slots_[j].first == key; });
    if (r.found) {
      slots_[r.pos].second = std::move(value);
      return;
    }
    set_state(r.pos, tag);
    slots_[r.pos] = {key, std::move(value)};
    ++size_;
  }

  /// Removes `key`; returns true if it was present. Backward-shift
  /// deletion: displaced entries slide back toward their home slot so no
  /// tombstone is left behind.
  bool erase(const K& key) {
    const std::size_t i = find_index(key);
    if (i == kNpos) return false;
    erase_at(i);
    return true;
  }

  /// Removes `key` only if `pred(value)` holds; returns true if it did.
  /// One probe for the find-check-erase sequence.
  template <typename Pred>
  bool erase_if(const K& key, Pred&& pred) {
    const std::size_t i = find_index(key);
    if (i == kNpos || !pred(static_cast<const V&>(slots_[i].second)))
      return false;
    erase_at(i);
    return true;
  }

  void clear() {
    slots_ = ZeroedArray<Slot>();
    state_ = ZeroedArray<std::uint8_t>();
    mask_ = 0;
    size_ = 0;
  }

  /// Iterates all entries (unspecified order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < buckets(); ++i)
      if (state_[i] != kEmpty) fn(slots_[i].first, slots_[i].second);
  }

 private:
  static constexpr std::size_t kNpos = ~std::size_t{0};
  static constexpr std::uint8_t kEmpty = 0;

  /// Bucket count; state_ additionally carries kCtrlPad mirror bytes so
  /// group loads starting at any bucket stay in bounds.
  std::size_t buckets() const { return state_.size() == 0 ? 0 : mask_ + 1; }

  /// Writes a control byte, maintaining the wraparound mirror.
  void set_state(std::size_t i, std::uint8_t v) {
    state_[i] = v;
    if (i < kCtrlPad) state_[mask_ + 1 + i] = v;
  }

  std::uint64_t scramble(const K& key) const {
    return static_cast<std::uint64_t>(Hash{}(key)) * 0x9E3779B97F4A7C15ull;
  }

  std::size_t home_of(const K& key) const {
    return static_cast<std::size_t>(scramble(key) >> 32) & mask_;
  }

  /// Nonzero 7-bit tag from the scramble's top bits (independent of the
  /// home bits for any table below 2^25 buckets; harmlessly correlated
  /// above that).
  std::uint8_t tag_of(const K& key) const {
    const std::uint8_t t = static_cast<std::uint8_t>(scramble(key) >> 57);
    return t == kEmpty ? std::uint8_t{0x7F} : t;
  }

  void erase_at(std::size_t i) {
    --size_;
    for (;;) {
      set_state(i, kEmpty);
      std::size_t j = i;
      for (;;) {
        j = (j + 1) & mask_;
        if (state_[j] == kEmpty) return;
        const std::size_t h = home_of(slots_[j].first);
        // Move j back only if its probe path from h passes through i.
        if (((i - h) & mask_) < ((j - h) & mask_)) {
          slots_[i] = std::move(slots_[j]);
          set_state(i, state_[j]);
          i = j;
          break;
        }
      }
    }
  }

  std::size_t find_index(const K& key) const {
    if (state_.size() == 0) return kNpos;
    const CtrlProbeResult r =
        ctrl_probe(state_.data(), mask_, home_of(key), tag_of(key), wide_,
                   [&](std::size_t j) { return slots_[j].first == key; });
    return r.found ? r.pos : kNpos;
  }

  void ensure_space() {
    std::size_t required = 16;
    while (required < 2 * (size_ + 1)) required <<= 1;
    if (buckets() < required) rebuild(required);
  }

  void rebuild(std::size_t new_size) {
    ZeroedArray<Slot> old_slots = std::move(slots_);
    ZeroedArray<std::uint8_t> old_state = std::move(state_);
    const std::size_t old_buckets =
        old_state.size() == 0 ? 0 : old_state.size() - kCtrlPad;
    static_assert(kEmpty == 0, "fresh zero pages must read as empty");
    slots_ = ZeroedArray<Slot>(new_size);
    state_ = ZeroedArray<std::uint8_t>(new_size + kCtrlPad);
    mask_ = new_size - 1;
    wide_ = wide_ctrl_groups();
    for (std::size_t i = 0; i < old_buckets; ++i) {
      if (old_state[i] == kEmpty) continue;
      const CtrlProbeResult r =
          ctrl_probe(state_.data(), mask_, home_of(old_slots[i].first),
                     old_state[i], wide_, [](std::size_t) { return false; });
      set_state(r.pos, old_state[i]);
      slots_[r.pos] = std::move(old_slots[i]);
    }
  }

  struct Slot {
    K first;
    V second;
  };

  ZeroedArray<Slot> slots_;
  ZeroedArray<std::uint8_t> state_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  /// AVX2 continuation groups enabled (cached from the SIMD dispatch at
  /// rebuild time so probes never touch dispatch state).
  bool wide_ = false;
};

}  // namespace pod
