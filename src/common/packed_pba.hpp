// The 32-bit storage form of a physical block address.
//
// Pba is 64-bit in every API. The host tables that hold one PBA per block
// or per fingerprint store it in 32 bits instead: MapTable (one per LBA),
// the fingerprint table's resident entry and spill payload, and the
// on-disk index's value. 2^32 blocks of 4 KB is a 16 TiB volume, far past
// any array the simulator builds, and the narrow form halves what those
// tables cost the host per entry.
//
// The two top 32-bit values are reserved: kPackedInvalid is the packed
// kInvalidPba (narrowing all-ones keeps all-ones), and kPackedMark is free
// for a table's own sentinel (MapTable's "live at identity home"). Every
// real PBA below kPackedPbaLimit packs. DedupEngine refuses, at
// construction, a volume with more blocks than that
// (check_packed_pba_range), so narrowing an entry on the hot path needs
// only a debug check.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"
#include "common/types.hpp"

namespace pod {

using PackedPba = std::uint32_t;

inline constexpr PackedPba kPackedInvalid = 0xFFFFFFFFu;
inline constexpr PackedPba kPackedMark = 0xFFFFFFFEu;
/// Block count of the largest volume whose PBAs all pack: [0, limit).
inline constexpr std::uint64_t kPackedPbaLimit = kPackedMark;

/// The packed form of a real PBA or kInvalidPba.
inline PackedPba narrow_pba(Pba pba) {
  POD_DCHECK(pba < kPackedPbaLimit || pba == kInvalidPba);
  return static_cast<PackedPba>(pba);
}

/// The Pba a packed value stands for (kPackedInvalid -> kInvalidPba).
constexpr Pba widen_pba(PackedPba v) {
  return v == kPackedInvalid ? kInvalidPba : Pba{v};
}

/// Aborts with both numbers when a volume of `blocks` blocks has PBAs
/// that do not pack.
inline void check_packed_pba_range(std::uint64_t blocks) {
  if (blocks <= kPackedPbaLimit) return;
  std::fprintf(stderr,
               "POD_CHECK failed: volume of %llu blocks exceeds the "
               "%llu-block range of 32-bit block addresses\n",
               static_cast<unsigned long long>(blocks),
               static_cast<unsigned long long>(kPackedPbaLimit));
  std::abort();
}

}  // namespace pod
