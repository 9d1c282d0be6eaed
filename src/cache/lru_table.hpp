// One LRU table for every cache (paper §III-B/§III-C): the index cache, the
// read cache and I/O-Dedup's content cache, with the shadow lists iCache
// keeps beside them, and Full-Dedupe's complete on-disk fingerprint index
// (§II-B) behind its index cache.
//
// A key can carry four memberships at once:
//
//   resident : the actual cache (Figure 6's Index table, or the blocks of
//              the read cache);
//   ghost    : keys recently evicted from it, for iCache's cost-benefit
//              signal (metadata only, plus an eviction sequence number);
//   spill    : evicted {key, pba} payloads parked in the swap area so that
//              growing the index cache can re-admit them;
//   on disk  : the key's entry in the on-disk index (dedup/ondisk_index.hpp
//              models the disk traffic; the entry itself lives here).
//
// The first three are LRU lists, each with its own intrusive MRU..LRU
// links and its own capacity. On disk has no links, no capacity and no
// order, only a count of the keys that carry it. A slot carries one bit
// per membership, and the key is in the probe table exactly while at least
// one bit is set. So evicting a resident entry is a list move (unlink from
// resident, push onto ghost and spill), not a hash-table insert per shadow
// list; evicting a resident key that is also on disk is only an unlink; a
// probe answers "resident", "ghost", "on disk" or "absent" in one pass; and
// a table delete happens only when a key loses its last membership. The
// ghost and spill lists exist only once iCache enables them (enable_ghost,
// enable_spill): until then evictions leave nothing behind, and a table
// keeps no side array for them. Full-Dedupe's on-disk index sets the
// on-disk bit, and so does the trace scan (trace/trace_stats.cpp), whose
// table of fingerprints seen holds nothing else; a table nobody puts on
// disk behaves as if it had three lists.
//
// One PBA per key: a resident entry and the on-disk entry of the same key
// share the slot's PBA field, so they cannot point at different blocks. A
// freed block drops both in one probe (drop_entry_if).
//
// Layout. The probe table is a CtrlIndex (common/ctrl_group.hpp): {slot,
// tag} buckets plus control bytes group-scanned 16 lanes at a time, linear
// probing, backward-shift deletion. Buckets hold tags, so deletion never
// touches the slot pool, and it runs up to 7/8 load (kMaxLoadNum/
// kMaxLoadDen). Each key's state is split by who reads it:
//
//   slot  (32 B, 32-byte aligned): key, packed PBA, Count, resident links
//         and the four membership bits — all a probe, a resident hit or an
//         on-disk answer reads, in one cache line (a 16-byte fingerprint
//         fills it; an 8-byte block address or content key leaves 8 bytes
//         of padding);
//   ghost (12 B, parallel array): ghost links and the 32-bit eviction
//         sequence number;
//   spill (12 B, parallel array): spill links and the spilled PBA.
//
// All three arrays and the index live in OS pages (common/mapped.hpp),
// reserved up front for the lists' capacities, so only slots in use become
// resident and a freed table leaves the process instead of staying in the
// heap. Keys on disk only grow the table like any other key (doubling).
//
// Membership rules (the semantics of three independent LRU maps plus a
// set):
//   * insert: resident put. A key already resident is overwritten (Count
//     back to 0) and promoted; a new one goes to resident MRU, and resident
//     LRU entries are evicted while the list is over capacity.
//   * resident eviction, in this order: remember the key on the ghost list
//     (a key already there is re-stamped and promoted), then put {key, pba}
//     on the spill list (a key already there is overwritten and promoted).
//     The on-disk bit stays.
//   * a list over capacity drops its LRU member; capacity 0 keeps nothing.
//   * put_on_disk sets the on-disk bit and the key's PBA; Count and list
//     positions stay.
//   * drop(list, key) leaves one list; the other memberships stay.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/check.hpp"
#include "common/ctrl_group.hpp"
#include "common/digest.hpp"
#include "common/mapped.hpp"
#include "common/packed_pba.hpp"
#include "common/prefetch.hpp"
#include "common/types.hpp"

namespace pod {

template <typename K, typename Hash>
class LruTable;

/// A resident or on-disk entry: the block holding the content and its
/// write popularity (Count, paper Figure 6, meaningful while resident; the
/// read and content caches leave both unused). It lives inside the table's
/// probe slot; the word that holds Count also carries the slot's four
/// membership bits, which are the table's business, not the entry's.
class IndexEntry {
 public:
  Pba pba() const { return widen_pba(pba_); }
  /// Hits since the entry was (re)inserted; saturates at kMaxCount.
  std::uint32_t count() const { return word_ & kMaxCount; }

  static constexpr std::uint32_t kCountBits = 28;
  static constexpr std::uint32_t kMaxCount = (1u << kCountBits) - 1;

 private:
  template <typename, typename>
  friend class LruTable;

  PackedPba pba_;
  std::uint32_t word_;  // Count (low kCountBits) | membership bits (top 4)
};
static_assert(sizeof(IndexEntry) == 8);

template <typename K, typename Hash = std::hash<K>>
class LruTable {
 public:
  using Tag = std::uint32_t;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// The memberships a key can carry; each is independent of the others.
  /// kOnDisk is the one without a list: no links, no capacity, no order.
  enum List : std::uint8_t {
    kResident = 0,
    kGhost = 1,
    kSpill = 2,
    kOnDisk = 3,
  };

  /// Probe result: the key's slot (kNil when it has no membership) and its
  /// bucket. `pos` stays valid until the next table mutation.
  struct Found {
    std::uint32_t slot = kNil;
    std::size_t pos = 0;
  };

  explicit LruTable(std::size_t resident_capacity)
      : lists_{ListState{resident_capacity}, ListState{}, ListState{},
               ListState{}} {
    // The resident list runs at capacity for most of a replay: size the
    // index and the slot array for it now, so the insert path neither
    // rehashes nor grows. (+1: an insert adds its key before it evicts.)
    // Reserving costs address space only; pages fill as slots are used.
    reserve_keys(resident_capacity + 1);
  }

  /// Gives the ghost list a capacity and sizes its side array to the slot
  /// pool and the index to both lists at capacity.
  void enable_ghost(std::size_t capacity) {
    POD_CHECK(lists_[kGhost].size == 0);
    lists_[kGhost].capacity = capacity;
    ghost_.clear();
    if (capacity == 0) return;
    reserve_keys(lists_[kResident].capacity + capacity + 1);
    ghost_.extend_to(slots_.size());
  }

  /// Gives the spill list a capacity and sizes its side array to the slot
  /// pool. (The index is not grown for it: every eviction lands on the
  /// ghost and the spill list together, so the two mostly hold the same
  /// keys.)
  void enable_spill(std::size_t capacity) {
    POD_CHECK(lists_[kSpill].size == 0);
    lists_[kSpill].capacity = capacity;
    spill_.clear();
    if (capacity == 0) return;
    spill_.reserve(lists_[kResident].capacity + lists_[kGhost].capacity + 1);
    spill_.extend_to(slots_.size());
  }

  std::size_t size(List l) const { return lists_[l].size; }
  std::size_t capacity(List l) const { return lists_[l].capacity; }
  /// Distinct keys in the table (with at least one membership).
  std::size_t keys() const { return live_; }
  /// Slots ever handed out: the high-water mark of keys(), and the length
  /// of the slot and side arrays.
  std::size_t slots_used() const { return slots_.size(); }

  // --- probing ---

  /// Scrambled-hash tag of `key` (a pure function of the key); the home
  /// bucket is `tag & mask`.
  Tag hash_tag(const K& key) const {
    return CtrlIndex::tag_of_hash(static_cast<std::uint64_t>(Hash{}(key)));
  }

  /// Prefetches the home control-byte group and bucket of a tag.
  void prefetch_tag(Tag tag) const { index_.prefetch(tag); }

  /// Prefetches the slot the tag's home bucket names, if the tag matches
  /// there (second pipeline stage, after prefetch_tag's lines landed).
  void prefetch_slot_of(Tag tag) const {
    const CtrlIndex::Bucket b = index_.home(tag);
    if (b.slot != CtrlIndex::kEmpty && b.tag == tag) prefetch_slot(b.slot);
  }

  Found find(Tag tag, const K& key) const {
    const CtrlProbeResult r = probe(tag, key);
    return r.found ? Found{index_.at(r.pos).slot, r.pos} : Found{};
  }

  bool on(List l, std::uint32_t s) const { return (lists(s) & bit(l)) != 0; }
  /// True when the probe found the key on the resident list.
  bool resident(Found f) const {
    return f.slot != kNil && on(kResident, f.slot);
  }
  const K& key(std::uint32_t s) const { return slots_[s].key; }
  /// The resident or on-disk entry (meaningful while the slot is either).
  const IndexEntry& entry(std::uint32_t s) const { return slots_[s].entry; }
  /// The found key's on-disk PBA, or kInvalidPba when it is not on disk.
  Pba on_disk_pba(Found f) const {
    return f.slot != kNil && on(kOnDisk, f.slot) ? entry(f.slot).pba()
                                                 : kInvalidPba;
  }
  /// The spilled payload's PBA (meaningful while the slot is on spill).
  Pba spilled_pba(std::uint32_t s) const { return widen_pba(spill_[s].pba); }

  // --- mutations ---

  /// Moves a resident slot to resident MRU.
  void promote(std::uint32_t s) { to_front(kResident, s); }

  /// A resident hit: bumps Count (saturating) and promotes.
  const IndexEntry& hit(std::uint32_t s) {
    IndexEntry& e = slots_[s].entry;
    if ((e.word_ & IndexEntry::kMaxCount) != IndexEntry::kMaxCount) ++e.word_;
    promote(s);
    return e;
  }

  /// Resident put of {pba, Count 0}, evicting resident LRU entries into
  /// the ghost and spill lists while the resident list is over capacity.
  void insert(Tag tag, const K& key, Pba pba = 0) {
    if (lists_[kResident].capacity == 0) {
      // Nothing is retained: the insert is evicted on arrival.
      const std::uint32_t s = find_or_add(tag, key);
      shadow_evicted(s, pba);
      release_if_unused(s);
      return;
    }
    reserve(live_ + 1);
    const CtrlProbeResult r = probe(tag, key);
    std::uint32_t s;
    if (r.found) {
      s = index_.at(r.pos).slot;
      reset_entry(s, pba);
      if (on(kResident, s)) {
        promote(s);
        return;
      }
    } else {
      s = add(r.pos, tag, key);
      reset_entry(s, pba);
    }
    link_front(kResident, s);
    while (lists_[kResident].size > lists_[kResident].capacity) evict_resident();
  }

  /// Swap-in of a shadowed key: takes it off the spill and ghost lists
  /// (no ghost hit counted), then insert(tag, key, pba).
  void readmit(Tag tag, const K& key, Pba pba = 0) {
    const Found f = find(tag, key);
    if (f.slot != kNil) {
      for (List l : {kGhost, kSpill})
        if (on(l, f.slot)) unlink(l, f.slot);
      if (lists(f.slot) == 0) erase_at(f.pos);
    }
    insert(tag, key, pba);
  }

  /// Takes the found slot off list `l` (it must be on it); erases the key
  /// when that was its last membership.
  void drop(List l, Found f) {
    unlink(l, f.slot);
    if (lists(f.slot) == 0) erase_at(f.pos);
  }

  /// Puts the key on disk at `pba`. A resident key's entry is the same
  /// entry, so its PBA moves too; Count and list positions stay.
  void put_on_disk(Tag tag, const K& key, Pba pba) {
    const std::uint32_t s = find_or_add(tag, key);
    slots_[s].entry.pba_ = narrow_pba(pba);
    if (!on(kOnDisk, s)) join(kOnDisk, s);
  }

  /// One probe: a key already in the table answers {its slot, true};
  /// an absent key joins the on-disk membership at `pba` and answers {its
  /// new slot, false}. Slots are never recycled while nothing is dropped,
  /// so a table that only grows this way numbers its keys densely.
  std::pair<std::uint32_t, bool> find_or_put_on_disk(Tag tag, const K& key,
                                                     Pba pba) {
    reserve(live_ + 1);
    const CtrlProbeResult r = probe(tag, key);
    if (r.found) return {index_.at(r.pos).slot, true};
    const std::uint32_t s = add(r.pos, tag, key);
    slots_[s].entry.pba_ = narrow_pba(pba);
    join(kOnDisk, s);
    return {s, false};
  }

  /// A freed block: takes the found key off the resident list and off
  /// disk, in one probe, when its entry still points at `pba` (a key whose
  /// entry moved to another block keeps it). Returns whether the key was on
  /// disk.
  bool drop_entry_if(Found f, Pba pba) {
    if (f.slot == kNil) return false;
    const std::uint32_t s = f.slot;
    const bool resident = on(kResident, s);
    const bool disk = on(kOnDisk, s);
    if (!(resident || disk) || entry(s).pba() != pba) return false;
    if (resident) unlink(kResident, s);
    if (disk) leave(kOnDisk, s);
    if (lists(s) == 0) erase_at(f.pos);
    return disk;
  }

  /// Sets the resident capacity, evicting resident LRU entries as needed.
  void set_resident_capacity(std::size_t capacity) {
    lists_[kResident].capacity = capacity;
    while (lists_[kResident].size > capacity) evict_resident();
  }

  static constexpr std::uint8_t bit(List l) {
    return static_cast<std::uint8_t>(1u << l);
  }

  /// Visits the slots of membership `l` until `fn(slot)` returns false:
  /// a list from MRU to LRU, the on-disk keys in slot order.
  template <typename Fn>
  void for_each(List l, Fn&& fn) const {
    if (l == kOnDisk) {
      for (std::uint32_t s = 0; s < slots_.size(); ++s)
        if (on(kOnDisk, s) && !fn(s)) return;
      return;
    }
    for (std::uint32_t s = lists_[l].head; s != kNil; s = links(l, s).next)
      if (!fn(s)) return;
  }

  // --- ghost list: the cost-benefit signal ---

  /// Ghost put without a resident eviction (signal injection in tests).
  void remember(Tag tag, const K& key) {
    if (lists_[kGhost].capacity == 0) return;
    const std::uint32_t s = find_or_add(tag, key);
    ghost_put(s);
    release_if_unused(s);
  }

  /// Consumes the found key's ghost entry, if it has one: a ghost hit,
  /// which also counts as *near* when at most the near threshold of newer
  /// evictions happened since the key was remembered — i.e. the access
  /// would have been an actual hit had the cache been that many entries
  /// larger (exact for LRU).
  bool take_ghost(Found f) {
    if (f.slot == kNil || !on(kGhost, f.slot)) return false;
    const std::uint64_t age = ghost_clock_ - ghost_[f.slot].seq;
    drop(kGhost, f);
    if (age <= ghost_near_threshold_) ++ghost_near_hits_;
    ++ghost_hits_;
    return true;
  }

  /// take_ghost() for a key not probed yet.
  bool probe_ghost(Tag tag, const K& key) {
    // Consumption can drain the list entirely between refills; skip the
    // table walk when there is nothing to find.
    if (lists_[kGhost].size == 0) return false;
    return take_ghost(find(tag, key));
  }

  std::uint64_t ghost_hits() const { return ghost_hits_; }
  std::uint64_t ghost_near_hits() const { return ghost_near_hits_; }
  /// Sets the "would a one-step-larger cache have kept it" horizon.
  void set_ghost_near_threshold(std::uint64_t entries) {
    ghost_near_threshold_ = entries;
  }

  /// A canonical hash of what the table holds: each list from MRU to LRU
  /// with its payloads (resident PBA and Count, ghost sequence number,
  /// spilled PBA) and capacity, the on-disk keys with their PBAs in any
  /// order, and the ghost counters. Slot numbers and bucket layout do not
  /// enter it. Walks every membership: for state checks, not hot paths.
  std::uint64_t state_digest() const {
    StateDigest d;
    for (List l : {kResident, kGhost, kSpill}) {
      d.add(lists_[l].capacity);
      d.add(lists_[l].size);
      for_each(l, [&](std::uint32_t s) {
        d.add_bytes(&slots_[s].key, sizeof(K));
        if (l == kResident) {
          d.add(entry(s).pba());
          d.add(entry(s).count());
        } else {
          d.add(l == kGhost ? ghost_[s].seq : spilled_pba(s));
        }
        return true;
      });
    }
    std::uint64_t on_disk = 0;  // a sum: slot order is not canonical
    for_each(kOnDisk, [&](std::uint32_t s) {
      StateDigest e;
      e.add_bytes(&slots_[s].key, sizeof(K));
      e.add(entry(s).pba());
      on_disk += e.value();
      return true;
    });
    d.add(lists_[kOnDisk].size);
    d.add(on_disk);
    d.add(ghost_clock_);
    d.add(ghost_hits_);
    d.add(ghost_near_hits_);
    return d.value();
  }

 private:
  struct Links {
    std::uint32_t prev;
    std::uint32_t next;
  };

  /// Everything a probe, a resident hit or a resident eviction reads, in
  /// 32 bytes at 32-byte alignment: a slot never straddles two lines.
  struct alignas(32) Slot {
    K key;
    IndexEntry entry;
    Links res;  // resident list; on a free slot, res.next links free slots
  };
  static_assert(sizeof(Slot) == 32);

  /// Ghost side entry, parallel to slots_ while the ghost list has a
  /// capacity.
  struct GhostSide {
    Links link;
    std::uint32_t seq;  // eviction sequence number (< kMaxGhostClock)
  };
  static_assert(sizeof(GhostSide) == 12);

  /// Spill side entry, parallel to slots_ while the spill list has a
  /// capacity.
  struct SpillSide {
    Links link;
    PackedPba pba;
  };
  static_assert(sizeof(SpillSide) == 12);

  /// Ghost remembers a table can stamp (one per resident eviction while
  /// the ghost list has a capacity): the 32-bit sequence field. The mail
  /// replay at POD_SCALE=0.25 stamps about 0.6 million.
  static constexpr std::uint64_t kMaxGhostClock = std::uint64_t{1} << 32;

  struct ListState {
    std::size_t capacity = 0;
    std::size_t size = 0;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// The table grows before live keys pass kMaxLoadNum/kMaxLoadDen of the
  /// buckets.
  static constexpr std::size_t kMaxLoadNum = 7;
  static constexpr std::size_t kMaxLoadDen = 8;

  std::uint32_t lists(std::uint32_t s) const {
    return slots_[s].entry.word_ >> IndexEntry::kCountBits;
  }

  /// {pba, Count 0}, keeping the membership bits.
  void reset_entry(std::uint32_t s, Pba pba) {
    IndexEntry& e = slots_[s].entry;
    e.pba_ = narrow_pba(pba);
    e.word_ &= ~IndexEntry::kMaxCount;
  }

  Links& links(List l, std::uint32_t s) {
    return l == kResident ? slots_[s].res
                          : (l == kGhost ? ghost_[s].link : spill_[s].link);
  }
  const Links& links(List l, std::uint32_t s) const {
    return l == kResident ? slots_[s].res
                          : (l == kGhost ? ghost_[s].link : spill_[s].link);
  }

  /// Takes slot `s` off list `l` and clears its membership bit.
  void unlink(List l, std::uint32_t s) {
    ListState& st = lists_[l];
    const Links n = links(l, s);
    if (n.prev != kNil) links(l, n.prev).next = n.next;
    else st.head = n.next;
    if (n.next != kNil) links(l, n.next).prev = n.prev;
    else st.tail = n.prev;
    leave(l, s);
  }

  /// Counts slot `s` into membership `l` and sets its bit.
  void join(List l, std::uint32_t s) {
    ++lists_[l].size;
    slots_[s].entry.word_ |= std::uint32_t{bit(l)} << IndexEntry::kCountBits;
  }

  /// Counts slot `s` out of membership `l` and clears its bit (all that
  /// leaving the list-less on-disk membership takes).
  void leave(List l, std::uint32_t s) {
    --lists_[l].size;
    slots_[s].entry.word_ &= ~(std::uint32_t{bit(l)} << IndexEntry::kCountBits);
  }

  /// Puts slot `s` at list `l`'s MRU end and sets its membership bit.
  void link_front(List l, std::uint32_t s) {
    ListState& st = lists_[l];
    Links& n = links(l, s);
    n.prev = kNil;
    n.next = st.head;
    if (st.head != kNil) links(l, st.head).prev = s;
    st.head = s;
    if (st.tail == kNil) st.tail = s;
    join(l, s);
  }

  void to_front(List l, std::uint32_t s) {
    if (lists_[l].head == s) return;
    unlink(l, s);
    link_front(l, s);
  }

  /// LRU put on a ghost or spill list (capacity > 0): promote a member,
  /// else push at MRU and drop LRU members while over capacity (erasing
  /// keys that lose their last membership).
  void put(List l, std::uint32_t s) {
    if (on(l, s)) {
      to_front(l, s);
      return;
    }
    link_front(l, s);
    while (lists_[l].size > lists_[l].capacity) {
      const std::uint32_t victim = lists_[l].tail;
      unlink(l, victim);
      release_if_unused(victim);
      prefetch_next_victim(l);
    }
  }

  void evict_resident() {
    const std::uint32_t s = lists_[kResident].tail;
    unlink(kResident, s);
    shadow_evicted(s, slots_[s].entry.pba());
    release_if_unused(s);
    prefetch_next_victim(kResident);
  }

  /// The side entry of list `l` (ghost or spill) for slot `s`.
  const void* side(List l, std::uint32_t s) const {
    return l == kGhost ? static_cast<const void*>(&ghost_[s])
                       : static_cast<const void*>(&spill_[s]);
  }

  /// Warms what the next LRU drops from list `l` touch. Full lists drop
  /// one member per eviction, so each hint has at least an insert's time
  /// to land: the next victim's slot (and, for a resident victim, the
  /// ghost entry its eviction fills), its predecessor's slot and side
  /// entry for the drop after, and the next victim's home group, since a
  /// ghost or spill drop erases the key from the table when that was its
  /// last membership (its slot and side entry, and so its key and links,
  /// were warmed by the previous call).
  void prefetch_next_victim(List l) {
    const std::uint32_t t = lists_[l].tail;
    if (t == kNil) return;
    prefetch_slot(t);
    if (l != kResident) prefetch_tag(hash_tag(slots_[t].key));
    else if (lists_[kGhost].capacity > 0) prefetch_read(&ghost_[t]);
    const std::uint32_t p = links(l, t).prev;
    if (p == kNil) return;
    prefetch_slot(p);
    if (l != kResident) prefetch_read(side(l, p));
  }

  /// A slot sits inside one cache line: one prefetch covers it.
  void prefetch_slot(std::uint32_t s) const { prefetch_read(&slots_[s]); }

  /// What an eviction from the resident list leaves behind: the key on
  /// the ghost list, then {key, pba} on the spill list.
  void shadow_evicted(std::uint32_t s, Pba pba) {
    ghost_put(s);
    if (lists_[kSpill].capacity == 0) return;
    spill_[s].pba = narrow_pba(pba);
    put(kSpill, s);
  }

  /// Stamps slot `s` with the next eviction sequence number and puts it on
  /// the ghost list (a capacity-0 list keeps nothing, so it stamps
  /// nothing either: the clock only orders keys the list holds).
  void ghost_put(std::uint32_t s) {
    if (lists_[kGhost].capacity == 0) return;
    const std::uint64_t seq = ghost_clock_++;
    POD_CHECK(seq < kMaxGhostClock);
    ghost_[s].seq = static_cast<std::uint32_t>(seq);
    put(kGhost, s);
  }

  // --- probe table ---

  CtrlProbeResult probe(Tag tag, const K& key) const {
    return index_.probe(tag,
                        [&](std::uint32_t s) { return slots_[s].key == key; });
  }

  /// Reserves the index, the slot array and the side arrays in use for
  /// `keys` live keys.
  void reserve_keys(std::size_t keys) {
    reserve(keys);
    slots_.reserve(keys);
    if (lists_[kGhost].capacity > 0) ghost_.reserve(keys);
  }

  /// Grows the table (before a probe) so `keys` live keys stay within the
  /// load bound. Every insert runs the bound test, so it stays inline; only
  /// a failing test calls the rehash.
  void reserve(std::size_t keys) {
    if (keys * kMaxLoadDen > index_.buckets() * kMaxLoadNum) [[unlikely]]
      rehash(keys);
  }

  /// Rebuilds the index at the smallest power-of-two size that holds `keys`
  /// live keys within the load bound.
  [[gnu::noinline]] void rehash(std::size_t keys) {
    std::size_t buckets = kCtrlGroup;
    while (buckets * kMaxLoadNum < keys * kMaxLoadDen) buckets <<= 1;
    index_.reset(buckets);
    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
      if (lists(s) == 0) continue;
      const Tag tag = hash_tag(slots_[s].key);
      index_.set(index_.first_empty(tag), s, tag);
    }
  }

  /// Places a new key (known absent) at the probe's empty bucket `pos`,
  /// with no membership yet.
  std::uint32_t add(std::size_t pos, Tag tag, const K& key) {
    std::uint32_t s;
    if (free_ != kNil) {
      s = free_;
      free_ = slots_[s].res.next;
    } else {
      s = static_cast<std::uint32_t>(slots_.size());
      POD_CHECK(s < kNil);
      slots_.push_back(Slot{});
      if (lists_[kGhost].capacity > 0) ghost_.push_back(GhostSide{});
      if (lists_[kSpill].capacity > 0) spill_.push_back(SpillSide{});
    }
    slots_[s].key = key;
    slots_[s].entry.word_ = 0;
    index_.set(pos, s, tag);
    ++live_;
    return s;
  }

  std::uint32_t find_or_add(Tag tag, const K& key) {
    reserve(live_ + 1);
    const CtrlProbeResult r = probe(tag, key);
    return r.found ? index_.at(r.pos).slot : add(r.pos, tag, key);
  }

  /// Erases slot `s` from the table once it has no membership.
  void release_if_unused(std::uint32_t s) {
    if (lists(s) != 0) return;
    const CtrlProbeResult r = index_.probe(
        hash_tag(slots_[s].key), [s](std::uint32_t x) { return x == s; });
    POD_DCHECK(r.found);
    erase_at(r.pos);
  }

  /// Removes the key at bucket `i` and recycles its slot. Buckets carry
  /// their tags, so the backward shift never touches the slot pool.
  void erase_at(std::size_t i) {
    const std::uint32_t s = index_.at(i).slot;
    slots_[s].res.next = free_;
    free_ = s;
    --live_;
    index_.erase(i);
  }

  ListState lists_[4];
  CtrlIndex index_;
  PagedVector<Slot> slots_;
  PagedVector<GhostSide> ghost_;
  PagedVector<SpillSide> spill_;
  std::uint32_t free_ = kNil;
  std::size_t live_ = 0;
  std::uint64_t ghost_clock_ = 0;
  std::uint64_t ghost_hits_ = 0;
  std::uint64_t ghost_near_hits_ = 0;
  std::uint64_t ghost_near_threshold_ = ~std::uint64_t{0};
};

}  // namespace pod
