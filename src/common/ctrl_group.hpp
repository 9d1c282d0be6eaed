// Swiss-table-style control-byte group scanning for the flat probe table.
//
// LruTable (through CtrlIndex, below) keeps one control byte per bucket
// (0 = empty, else a nonzero 7-bit tag of the key's hash) in a contiguous
// array. A probe no longer walks that array byte-by-byte: it loads a
// 16-byte group starting at the key's home bucket, compares all lanes
// against the tag at once, and only touches the slot array for lanes whose
// control byte matched — so a probe costs one cache line of tags before
// any slot data, and a miss in a clean neighborhood costs no slot access
// at all.
//
// Sequence-point contract: the group scan visits candidates in ascending
// probe order and stops at the first empty control byte, exactly like the
// scalar `for (;;) { if empty -> miss; if tag match -> compare key; ++i }`
// loop it replaces. Candidate bits past the first empty lane are masked
// off before any key compare, so every key comparison the group probe
// performs is one the scalar loop would also perform, in the same order.
// The two paths are result-identical by construction, not just in
// distribution — which is what lets fig08 replay output stay byte-equal
// across scalar/batch/fused probe modes.
//
// ISA: every group is 16 lanes scanned with SSE2, which is part of the
// x86-64 baseline ABI, so like memcmp's vectorization it needs no runtime
// dispatch; a portable scalar loop covers non-x86 builds. Wider groups buy
// nothing here: only ~2.5% of probes get past the first group.
//
// Wraparound: tables mirror the first kCtrlPad control bytes past the end
// (ctrl[n + i] == ctrl[i] for i < kCtrlPad, n = bucket count, n >= 16 and
// a power of two), so an unaligned group load starting at any home bucket
// reads valid lanes; candidate positions are mapped back with `& mask`.
// Group starts advance by kCtrlGroup, tiling the ring with consecutive
// coverage, and the table keeps load factor <= 7/8, so some group always
// contains an empty byte and every probe terminates.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/mapped.hpp"
#include "common/prefetch.hpp"

#if defined(__SSE2__) || defined(__x86_64__)
#define POD_CTRL_SSE2 1
#include <emmintrin.h>
#endif

namespace pod {

/// Lanes per probe group (SSE2 register width).
inline constexpr std::size_t kCtrlGroup = 16;
/// Mirror bytes a table keeps past its last bucket so an unaligned group
/// load starting at the last bucket stays in bounds.
inline constexpr std::size_t kCtrlPad = kCtrlGroup - 1;

/// 16-lane group scan result; lane i describes ctrl[i].
struct CtrlMatch16 {
  std::uint32_t eq = 0;     ///< bit i set: ctrl[i] == tag
  std::uint32_t empty = 0;  ///< bit i set: ctrl[i] == 0 (empty bucket)
};

inline CtrlMatch16 ctrl_match16(const std::uint8_t* ctrl, std::uint8_t tag) {
  CtrlMatch16 m;
#if defined(POD_CTRL_SSE2)
  const __m128i g = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
  const __m128i t = _mm_set1_epi8(static_cast<char>(tag));
  m.eq = static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(g, t)));
  m.empty = static_cast<std::uint32_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(g, _mm_setzero_si128())));
#else
  for (std::size_t b = 0; b < kCtrlGroup; ++b) {
    if (ctrl[b] == tag) m.eq |= std::uint32_t{1} << b;
    if (ctrl[b] == 0) m.empty |= std::uint32_t{1} << b;
  }
#endif
  return m;
}

/// Candidate lanes a scalar probe would key-compare: tag matches at or
/// before the first empty lane. (The empty lane itself can never be an eq
/// lane — tags are nonzero — so masking through the empty bit is safe.)
inline std::uint32_t ctrl_candidates(std::uint32_t eq, std::uint32_t empty) {
  return empty ? (eq & (empty ^ (empty - 1))) : eq;
}

struct CtrlProbeResult {
  std::size_t pos;  ///< matched bucket, or the first empty bucket
  bool found;       ///< true: `check` accepted `pos`; false: `pos` is empty
};

/// Group-probes the control array from `home` until `check(bucket)`
/// accepts a tag-matching bucket (found) or the first empty bucket ends
/// the cluster (not found; `pos` is exactly where a scalar insert probe
/// would land). `ctrl` must carry the kCtrlPad mirror and the table must
/// hold at least one empty bucket. Result-identical to the scalar linear
/// probe in all cases.
template <typename CheckFn>
inline CtrlProbeResult ctrl_probe(const std::uint8_t* ctrl, std::size_t mask,
                                  std::size_t home, std::uint8_t tag,
                                  CheckFn&& check) {
  std::size_t i = home;
  for (;;) {
    const CtrlMatch16 m = ctrl_match16(ctrl + i, tag);
    std::uint32_t cand = ctrl_candidates(m.eq, m.empty);
    while (cand != 0) {
      const std::size_t j =
          (i + static_cast<std::size_t>(std::countr_zero(cand))) & mask;
      if (check(j)) return {j, true};
      cand &= cand - 1;
    }
    if (m.empty != 0)
      return {(i + static_cast<std::size_t>(std::countr_zero(m.empty))) & mask,
              false};
    i = (i + kCtrlGroup) & mask;
  }
}

/// The probe index of LruTable (cache/lru_table.hpp): a power-of-two array
/// of {slot, tag} buckets plus its control bytes, linear probing,
/// backward-shift deletion. Entries live in the owner's slot pool; a bucket carries the entry's full 32-bit scrambled-hash tag,
/// so a probe compares tags before it touches a slot, the home bucket is
/// `tag & mask`, and deletion never leaves the index. Both arrays are
/// OS-zeroed (common/mapped.hpp) and all-zero means empty: a control byte
/// of 0, and a bucket whose stored slot is the complement of kEmpty. So
/// reset() costs no fill pass, and buckets the table never reaches never
/// become resident.
class CtrlIndex {
 public:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;

  struct Bucket {
    std::uint32_t slot;  // kEmpty when free
    std::uint32_t tag;
  };

  /// The tag of a key hash. The Fibonacci scramble spreads identity hashes
  /// (std::hash<uint64_t>, a fingerprint prefix) over the table; indexes
  /// stay below 2^32 buckets, so the tag's low bits cover the mask.
  static std::uint32_t tag_of_hash(std::uint64_t hash) {
    return static_cast<std::uint32_t>((hash * 0x9E3779B97F4A7C15ull) >> 32);
  }

  std::size_t buckets() const { return table_.size(); }
  Bucket at(std::size_t i) const { return decode(table_[i]); }
  /// The home bucket of a tag (where its probe starts).
  Bucket home(std::uint32_t tag) const { return at(tag & mask_); }

  /// Discards every entry and sizes the index to `buckets` (a power of two,
  /// at least kCtrlGroup), all empty.
  void reset(std::size_t buckets) {
    table_ = ZeroedArray<Stored>(buckets);
    ctrl_ = ZeroedArray<std::uint8_t>(buckets + kCtrlPad);
    mask_ = buckets - 1;
  }

  /// Prefetches the home control-byte group and bucket of a tag.
  void prefetch(std::uint32_t tag) const {
    const std::size_t h = tag & mask_;
    prefetch_read(&ctrl_[h]);
    prefetch_read(&table_[h]);
  }

  /// Group-probes `tag`'s chain: found -> the bucket whose slot satisfies
  /// `slot_eq`, else the first empty bucket (where an insert belongs).
  template <typename SlotEq>
  CtrlProbeResult probe(std::uint32_t tag, SlotEq&& slot_eq) const {
    return ctrl_probe(ctrl_.data(), mask_, tag & mask_, ctrl_of(tag),
                      [&](std::size_t j) {
                        const Stored b = table_[j];
                        return b.tag == tag && slot_eq(~b.nslot);
                      });
  }

  /// The bucket an absent key with `tag` would be inserted at.
  std::size_t first_empty(std::uint32_t tag) const {
    return probe(tag, [](std::uint32_t) { return false; }).pos;
  }

  /// Writes a bucket and its control byte, maintaining the wraparound
  /// mirror of the first kCtrlPad control bytes.
  void set(std::size_t i, std::uint32_t slot, std::uint32_t tag) {
    table_[i] = Stored{~slot, tag};
    const std::uint8_t c = slot == kEmpty ? std::uint8_t{0} : ctrl_of(tag);
    ctrl_[i] = c;
    if (i < kCtrlPad) ctrl_[mask_ + 1 + i] = c;
  }

  /// Empties bucket `i` by backward-shift deletion: displaced successors
  /// slide toward their homes so probe chains stay tombstone-free.
  void erase(std::size_t i) {
    bool shifting = true;
    while (shifting) {
      set(i, kEmpty, 0);
      shifting = false;
      std::size_t j = i;
      for (;;) {
        j = (j + 1) & mask_;
        const Bucket b = at(j);
        if (b.slot == kEmpty) break;
        const std::size_t h = b.tag & mask_;
        if (((i - h) & mask_) < ((j - h) & mask_)) {
          set(i, b.slot, b.tag);
          i = j;
          shifting = true;
          break;
        }
      }
    }
  }

 private:
  /// A bucket as stored: the slot complemented, so a zero page is empty.
  struct Stored {
    std::uint32_t nslot;
    std::uint32_t tag;
  };

  static Bucket decode(Stored b) { return Bucket{~b.nslot, b.tag}; }

  /// Control byte for a tag: its top 7 bits, remapped off 0 (= empty).
  static std::uint8_t ctrl_of(std::uint32_t tag) {
    const std::uint8_t c = static_cast<std::uint8_t>(tag >> 25);
    return c == 0 ? std::uint8_t{0x7F} : c;
  }

  ZeroedArray<Stored> table_;
  /// One control byte per bucket (0 = empty, else ctrl_of(tag)), plus
  /// kCtrlPad wraparound mirror bytes.
  ZeroedArray<std::uint8_t> ctrl_;
  std::size_t mask_ = 0;
};

}  // namespace pod
