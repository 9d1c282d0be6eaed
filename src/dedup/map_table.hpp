// The Map table of §III-B: LBA -> PBA redirections for deduplicated blocks.
//
// Only redirected LBAs carry an entry (an unredirected live LBA maps to its
// identity "home" physical block). The relationship is m-to-1: many LBAs
// may point at one physical block, one LBA points at exactly one block.
// The paper stores this table in NVRAM at 20 bytes per entry (§IV-D2);
// bytes()/max_bytes() report that overhead for the overhead bench.
//
// The logical space is dense and bounded, so the table is a flat
// PBA-per-LBA array (kInvalidPba = unredirected) rather than a hash map:
// lookup — the hottest operation on the replay write path — is one
// bounds-checked load. Each slot is the 32-bit packed PBA
// (common/packed_pba.hpp), 4 bytes per LBA. entries()/bytes() still report
// only the redirected count, matching the paper's NVRAM accounting.
//
// The table also tracks which unredirected LBAs are *live at their
// identity home* (written, but mapped to PBA == LBA) using a reserved
// in-slot sentinel. BlockStore::resolve — the single hottest call on the
// replay write path — then needs exactly one load here instead of a
// Map-table probe plus a separate liveness-bitmap load. Identity entries
// are invisible to lookup()/entries()/for_each_entry(): they carry no
// NVRAM cost (no redirection is stored for them in the modelled system).
//
// Slots hold the bitwise complement of the packed value, so the all-zero
// page the OS hands out reads as kPackedInvalid ("dead"): the table is an
// OS-zeroed array (common/mapped.hpp) and sizing it or growing it costs no
// fill pass. Decoding is one NOT on the load; the identity mark is the
// packed form's reserved kPackedMark, so every PBA below kPackedPbaLimit
// can be a redirection target.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/mapped.hpp"
#include "common/packed_pba.hpp"
#include "common/types.hpp"

namespace pod {

class MapTable {
 public:
  static constexpr std::uint64_t kEntryBytes = 20;

  /// Pre-sizes the table for a volume of `logical_blocks` (one slot per
  /// LBA). Optional: set() grows on demand, but pre-sizing avoids
  /// incremental resizes on the hot path.
  void reserve(std::uint64_t logical_blocks);

  /// PBA an LBA redirects to, or kInvalidPba when unredirected (dead or
  /// identity-live — neither carries a stored redirection).
  Pba lookup(Lba lba) const {
    const PackedPba v = raw(lba);
    return v < kIdentityHome ? Pba{v} : kInvalidPba;
  }

  bool is_redirected(Lba lba) const { return raw(lba) < kIdentityHome; }

  /// Physical location of a live LBA in one load: the redirected PBA, the
  /// identity home (PBA == LBA), or kInvalidPba when dead.
  Pba resolve(Lba lba) const {
    const PackedPba v = raw(lba);
    if (v < kIdentityHome) return Pba{v};
    return v == kIdentityHome ? static_cast<Pba>(lba) : kInvalidPba;
  }

  /// True when `lba` is live at its identity home (no redirection stored).
  bool is_identity(Lba lba) const { return raw(lba) == kIdentityHome; }

  /// Run variant of resolve: `out[i] = resolve(lba0 + i)` for i in [0, n).
  /// One bounds check covers the in-table span; the tail past the table is
  /// dead by definition. The in-range loop is branch-light and auto-
  /// vectorizable — read requests resolve their whole extent in one call.
  void resolve_run(Lba lba0, std::size_t n, Pba* out) const {
    const std::size_t start =
        lba0 < table_.size() ? static_cast<std::size_t>(lba0) : table_.size();
    const std::size_t in_range =
        table_.size() - start < n ? table_.size() - start : n;
    for (std::size_t i = 0; i < in_range; ++i) {
      const PackedPba v = ~table_[start + i];
      out[i] = v < kIdentityHome
                   ? Pba{v}
                   : (v == kIdentityHome ? static_cast<Pba>(lba0 + i)
                                         : kInvalidPba);
    }
    for (std::size_t i = in_range; i < n; ++i) out[i] = kInvalidPba;
  }

  /// Installs/overwrites a redirection (`pba` below kPackedPbaLimit).
  void set(Lba lba, Pba pba);

  /// Marks an LBA live at its identity home (drops any redirection).
  void set_identity(Lba lba);

  /// Run variant of set_identity for `n` sequential LBAs from `lba0`.
  void set_identity_run(Lba lba0, std::size_t n);

  /// Removes any mapping — redirection or identity mark — leaving the LBA
  /// dead (never written / discarded).
  void clear(Lba lba);

  /// Run variant of set: redirects `n` sequential LBAs from `lba0` to the
  /// sequential physical run starting at `pba0`. One grow/bounds check;
  /// entry accounting matches n scalar set() calls (the high watermark is
  /// taken once at the end — entries only increase during the run).
  void set_run(Lba lba0, Pba pba0, std::size_t n);

  /// Run variant of clear: drops redirections for `n` sequential LBAs.
  void clear_run(Lba lba0, std::size_t n);

  /// Iterates all redirections in ascending LBA order (cold path: fsck,
  /// recovery verification).
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (std::size_t i = 0; i < table_.size(); ++i) {
      const PackedPba v = ~table_[i];
      if (v < kIdentityHome) fn(static_cast<Lba>(i), Pba{v});
    }
  }

  std::size_t entries() const { return entries_; }
  std::uint64_t bytes() const { return entries_ * kEntryBytes; }
  /// High watermark of bytes() over the table's lifetime: the NVRAM
  /// provisioning requirement reported by the paper (0.8/0.3/1.5 MB).
  std::uint64_t max_bytes() const { return max_entries_ * kEntryBytes; }

 private:
  /// In-slot sentinel for "live at identity home": the packed form's
  /// reserved mark, just under kPackedInvalid. Every real PBA is below it,
  /// so `v < kIdentityHome` tests "stores a redirection".
  static constexpr PackedPba kIdentityHome = kPackedMark;

  /// The decoded packed slot (kPackedInvalid past the table's end).
  PackedPba raw(Lba lba) const {
    return lba < table_.size() ? ~table_[static_cast<std::size_t>(lba)]
                               : kPackedInvalid;
  }

  /// Grows the table to at least `slots` (reserve() makes this a no-op on
  /// the replay path); at least doubles, so set() without reserve stays
  /// amortised O(1). The new tail is zero, so it reads as dead.
  void grow_to(std::size_t slots) {
    if (slots > table_.size())
      table_.resize(std::max(slots, 2 * table_.size()));
  }

  /// Complemented packed values: ~table_[lba] is the decoded slot.
  ZeroedArray<PackedPba> table_;
  std::size_t entries_ = 0;
  std::size_t max_entries_ = 0;
};

}  // namespace pod
