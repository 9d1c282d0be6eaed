// One fingerprint table for the index cache, its ghost list and the iCache
// spill list (paper §III-B/§III-C).
//
// A fingerprint can be on three LRU lists at once:
//
//   resident : the actual index cache (Figure 6's Index table);
//   ghost    : keys recently evicted from it, for iCache's cost-benefit
//              signal (metadata only, plus an eviction sequence number);
//   spill    : evicted {fp, pba} payloads parked in the swap area so that
//              growing the index cache can re-admit them (iCache only).
//
// Each list has its own intrusive MRU..LRU links and its own capacity, and
// a slot carries one membership bit per list. The key is in the probe table
// exactly while at least one bit is set. So evicting a resident entry is a
// list move (unlink from resident, push onto ghost and spill), not a
// hash-table insert per shadow list; a probe answers "resident", "ghost" or
// "absent" in one pass; and a table delete happens only when a key leaves
// its last list.
//
// Layout. The probe table is the CtrlIndex FlatLruMap also uses
// (common/ctrl_group.hpp): {slot, tag} buckets plus control bytes
// group-scanned 16 lanes at a time, linear probing, backward-shift
// deletion. Buckets hold tags, so deletion never touches the slot pool,
// and it runs up to 7/8 load (kMaxLoadNum/kMaxLoadDen). A slot is 56
// bytes: key, entry, resident and ghost links, and one word holding the
// ghost sequence number and the membership bits. The spill links and
// payload live in a side array that exists only once enable_spill() gives
// the spill list a capacity, so engines without iCache pay nothing for it.
//
// Membership rules (the semantics of three independent LRU maps):
//   * insert: resident put. A key already resident is overwritten (Count
//     back to 0) and promoted; a new one goes to resident MRU, and resident
//     LRU entries are evicted while the list is over capacity.
//   * resident eviction, in this order: remember the key on the ghost list
//     (a key already there is re-stamped and promoted), then put {fp, pba}
//     on the spill list (a key already there is overwritten and promoted).
//   * a list over capacity drops its LRU member; capacity 0 keeps nothing.
//   * drop(list, key) leaves one list; the other memberships stay.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/ctrl_group.hpp"
#include "common/prefetch.hpp"
#include "common/types.hpp"
#include "hash/fingerprint.hpp"

namespace pod {

struct IndexEntry {
  Pba pba = kInvalidPba;
  std::uint32_t count = 0;
};

class FingerprintTable {
 public:
  using Tag = std::uint32_t;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// The lists a key can be on; each is independent of the others.
  enum List : std::uint8_t { kResident = 0, kGhost = 1, kSpill = 2 };

  /// Probe result: the key's slot (kNil when it is on no list) and its
  /// bucket. `pos` stays valid until the next table mutation.
  struct Found {
    std::uint32_t slot = kNil;
    std::size_t pos = 0;
  };

  FingerprintTable(std::size_t resident_capacity, std::size_t ghost_capacity)
      : lists_{ListState{resident_capacity}, ListState{ghost_capacity},
               ListState{0}} {
    // Both lists run at capacity for most of a replay: size the table and
    // the slot pool for them now, so neither rehashes nor reallocates (and
    // copies) on the per-chunk insert path. (+1: an insert adds its key
    // before it evicts.)
    reserve(resident_capacity + ghost_capacity + 1);
    slots_.reserve(resident_capacity + ghost_capacity + 1);
  }

  /// Gives the spill list a capacity and allocates its side array. (The
  /// table is not grown for it: every eviction lands on the ghost and the
  /// spill list together, so the two mostly hold the same keys.)
  void enable_spill(std::size_t capacity) {
    POD_CHECK(lists_[kSpill].size == 0);
    lists_[kSpill].capacity = capacity;
    spill_.assign(capacity > 0 ? slots_.size() : 0, SpillSlot{});
    if (capacity > 0) spill_.reserve(slots_.capacity());
  }

  std::size_t size(List l) const { return lists_[l].size; }
  std::size_t capacity(List l) const { return lists_[l].capacity; }
  /// Distinct keys in the table (on at least one list).
  std::size_t keys() const { return live_; }

  // --- probing ---

  /// Scrambled-hash tag of `fp` (a pure function of the key); the home
  /// bucket is `tag & mask`.
  Tag hash_tag(const Fingerprint& fp) const {
    return CtrlIndex::tag_of_hash(fp.prefix64());
  }

  /// Prefetches the home control-byte group and bucket of a tag.
  void prefetch_tag(Tag tag) const { index_.prefetch(tag); }

  /// Prefetches the slot the tag's home bucket names, if the tag matches
  /// there (second pipeline stage, after prefetch_tag's lines landed).
  void prefetch_slot_of(Tag tag) const {
    const CtrlIndex::Bucket b = index_.home(tag);
    if (b.slot != CtrlIndex::kEmpty && b.tag == tag) prefetch_slot(b.slot);
  }

  Found find(Tag tag, const Fingerprint& fp) const {
    const CtrlProbeResult r = probe(tag, fp);
    return r.found ? Found{index_.at(r.pos).slot, r.pos} : Found{};
  }

  bool on(List l, std::uint32_t s) const {
    return (slots_[s].lists & bit(l)) != 0;
  }
  const Fingerprint& key(std::uint32_t s) const { return slots_[s].key; }
  /// The resident entry (meaningful while the slot is resident).
  IndexEntry& entry(std::uint32_t s) { return slots_[s].entry; }
  const IndexEntry& entry(std::uint32_t s) const { return slots_[s].entry; }
  /// The spilled payload's PBA (meaningful while the slot is on spill).
  Pba spilled_pba(std::uint32_t s) const { return spill_[s].pba; }
  /// Eviction sequence number stamped when the key joined the ghost list.
  std::uint64_t ghost_seq(std::uint32_t s) const { return slots_[s].ghost_seq; }
  /// Ghost remembers so far (the next eviction's sequence number).
  std::uint64_t ghost_clock() const { return ghost_clock_; }

  // --- mutations ---

  /// Moves a resident slot to resident MRU.
  void promote(std::uint32_t s) { to_front(kResident, s); }

  /// Resident put of {pba, Count 0}, evicting resident LRU entries into
  /// the ghost and spill lists while the resident list is over capacity.
  void insert(Tag tag, const Fingerprint& fp, Pba pba) {
    if (lists_[kResident].capacity == 0) {
      // Nothing is retained: the insert is evicted on arrival.
      const std::uint32_t s = find_or_add(tag, fp);
      shadow_evicted(s, pba);
      release_if_unused(s);
      return;
    }
    reserve(live_ + 1);
    const CtrlProbeResult r = probe(tag, fp);
    std::uint32_t s;
    if (r.found) {
      s = index_.at(r.pos).slot;
      slots_[s].entry = IndexEntry{pba, 0};
      if (on(kResident, s)) {
        promote(s);
        return;
      }
    } else {
      s = add(r.pos, tag, fp);
      slots_[s].entry = IndexEntry{pba, 0};
    }
    link_front(kResident, s);
    while (lists_[kResident].size > lists_[kResident].capacity) evict_resident();
  }

  /// Ghost put without a resident eviction (signal injection in tests).
  void remember(Tag tag, const Fingerprint& fp) {
    const std::uint32_t s = find_or_add(tag, fp);
    ghost_put(s);
    release_if_unused(s);
  }

  /// Takes the found slot off list `l` (it must be on it); erases the key
  /// when that was its last list.
  void drop(List l, Found f) {
    unlink(l, f.slot);
    if (slots_[f.slot].lists == 0) erase_at(f.pos);
  }

  /// Takes the found slot off every list in `mask` it is on (one table
  /// delete at most).
  void drop_all(std::uint8_t mask, Found f) {
    for (List l : {kResident, kGhost, kSpill})
      if ((mask & bit(l)) != 0 && on(l, f.slot)) unlink(l, f.slot);
    if (slots_[f.slot].lists == 0) erase_at(f.pos);
  }

  /// Sets the resident capacity, evicting resident LRU entries as needed.
  void set_resident_capacity(std::size_t capacity) {
    lists_[kResident].capacity = capacity;
    while (lists_[kResident].size > capacity) evict_resident();
  }

  static constexpr std::uint8_t bit(List l) {
    return static_cast<std::uint8_t>(1u << l);
  }

  /// Visits the slots of list `l` from MRU to LRU until `fn(slot)` returns
  /// false.
  template <typename Fn>
  void for_each(List l, Fn&& fn) const {
    for (std::uint32_t s = lists_[l].head; s != kNil; s = links(l, s).next)
      if (!fn(s)) return;
  }

 private:
  struct Links {
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  /// Everything a probe, a resident hit or an eviction into the ghost list
  /// touches, in 56 bytes: the membership bits share a word with the ghost
  /// sequence number (kMaxGhostClock bounds it).
  struct Slot {
    Fingerprint key;
    std::uint64_t ghost_seq : 56 = 0;
    std::uint64_t lists : 8 = 0;  // bit(l) set while on list l
    IndexEntry entry;
    Links res;    // resident list; on a free slot, res.next links free slots
    Links ghost;  // ghost list
  };
  static_assert(sizeof(Slot) == 56);

  /// Ghost remembers a table can stamp (one per resident eviction: 2^56 is
  /// decades of evictions at any rate this simulator reaches).
  static constexpr std::uint64_t kMaxGhostClock = std::uint64_t{1} << 56;

  /// Spill side array entry, parallel to slots_ (allocated on demand).
  struct SpillSlot {
    Links link;
    Pba pba = kInvalidPba;
  };

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

  Links& links(List l, std::uint32_t s) {
    return l == kSpill ? spill_[s].link
                       : (l == kResident ? slots_[s].res : slots_[s].ghost);
  }
  const Links& links(List l, std::uint32_t s) const {
    return l == kSpill ? spill_[s].link
                       : (l == kResident ? slots_[s].res : slots_[s].ghost);
  }

  /// Takes slot `s` off list `l` and clears its membership bit.
  void unlink(List l, std::uint32_t s) {
    ListState& st = lists_[l];
    const Links n = links(l, s);
    if (n.prev != kNil) links(l, n.prev).next = n.next;
    else st.head = n.next;
    if (n.next != kNil) links(l, n.next).prev = n.prev;
    else st.tail = n.prev;
    --st.size;
    slots_[s].lists &= ~std::uint64_t{bit(l)};
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
    ++st.size;
    slots_[s].lists |= bit(l);
  }

  void to_front(List l, std::uint32_t s) {
    if (lists_[l].head == s) return;
    unlink(l, s);
    link_front(l, s);
  }

  /// LRU put on a ghost or spill list (capacity > 0): promote a member,
  /// else push at MRU and drop LRU members while over capacity (erasing
  /// keys that leave their last list).
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
    shadow_evicted(s, slots_[s].entry.pba);
    release_if_unused(s);
    prefetch_next_victim(kResident);
  }

  /// Warms what the next LRU drops from list `l` touch. Full lists drop
  /// one member per eviction, so each hint has at least an insert's time
  /// to land: the next victim's slot, its predecessor's slot (and spill
  /// links) for the drop after, and the next victim's home group, since a
  /// ghost or spill drop erases the key from the table when that was its
  /// last list (its slot, and so its key, was warmed by the previous
  /// call).
  void prefetch_next_victim(List l) {
    const std::uint32_t t = lists_[l].tail;
    if (t == kNil) return;
    prefetch_slot(t);
    if (l != kResident) prefetch_tag(hash_tag(slots_[t].key));
    const std::uint32_t p = links(l, t).prev;
    if (p == kNil) return;
    prefetch_slot(p);
    if (l == kSpill) prefetch_read(&spill_[p]);
  }

  /// Prefetches both cache lines a 56-byte slot can straddle.
  void prefetch_slot(std::uint32_t s) const {
    const char* p = reinterpret_cast<const char*>(&slots_[s]);
    prefetch_read(p);
    prefetch_read(p + sizeof(Slot) - 1);
  }

  /// What an eviction from the resident list leaves behind: the key on
  /// the ghost list, then {fp, pba} on the spill list.
  void shadow_evicted(std::uint32_t s, Pba pba) {
    ghost_put(s);
    if (lists_[kSpill].capacity == 0) return;
    spill_[s].pba = pba;
    put(kSpill, s);
  }

  /// Stamps slot `s` with the next eviction sequence number and puts it on
  /// the ghost list (a capacity-0 list keeps nothing but still counts).
  void ghost_put(std::uint32_t s) {
    const std::uint64_t seq = ghost_clock_++;
    POD_CHECK(seq < kMaxGhostClock);
    if (lists_[kGhost].capacity == 0) return;
    slots_[s].ghost_seq = seq;
    put(kGhost, s);
  }

  // --- probe table ---

  CtrlProbeResult probe(Tag tag, const Fingerprint& fp) const {
    return index_.probe(tag,
                        [&](std::uint32_t s) { return slots_[s].key == fp; });
  }

  /// Grows the table (before a probe) so `keys` live keys stay within the
  /// load bound.
  void reserve(std::size_t keys) {
    if (keys * kMaxLoadDen <= index_.buckets() * kMaxLoadNum) return;
    std::size_t buckets = kCtrlGroup;
    while (buckets * kMaxLoadNum < keys * kMaxLoadDen) buckets <<= 1;
    index_.reset(buckets);
    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
      if (slots_[s].lists == 0) continue;
      const Tag tag = hash_tag(slots_[s].key);
      index_.set(index_.first_empty(tag), s, tag);
    }
  }

  /// Places a new key (known absent) at the probe's empty bucket `pos`.
  std::uint32_t add(std::size_t pos, Tag tag, const Fingerprint& fp) {
    std::uint32_t s;
    if (free_ != kNil) {
      s = free_;
      free_ = slots_[s].res.next;
    } else {
      s = static_cast<std::uint32_t>(slots_.size());
      POD_CHECK(s < kNil);
      slots_.emplace_back();
      if (lists_[kSpill].capacity > 0) spill_.emplace_back();
    }
    slots_[s].key = fp;
    slots_[s].lists = 0;
    index_.set(pos, s, tag);
    ++live_;
    return s;
  }

  std::uint32_t find_or_add(Tag tag, const Fingerprint& fp) {
    reserve(live_ + 1);
    const CtrlProbeResult r = probe(tag, fp);
    return r.found ? index_.at(r.pos).slot : add(r.pos, tag, fp);
  }

  /// Erases slot `s` from the table once it is on no list.
  void release_if_unused(std::uint32_t s) {
    if (slots_[s].lists != 0) return;
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
    index_.erase(i, [](std::uint32_t, std::size_t) {});
  }

  ListState lists_[3];
  CtrlIndex index_;
  std::vector<Slot> slots_;
  std::vector<SpillSlot> spill_;
  std::uint32_t free_ = kNil;
  std::size_t live_ = 0;
  std::uint64_t ghost_clock_ = 0;
};

}  // namespace pod
