// Crash recovery and consistency verification for dedup metadata.
//
// recover_from_journal() replays a (possibly crash-truncated) metadata
// journal into a FRESH BlockStore and a fresh OnDiskIndex over a fresh
// index cache (resident capacity 0: the engine's own types, nothing
// cached) — the simulated equivalent of mounting after a crash, where only
// journaled state survives. run_fsck() then cross-checks the three
// metadata views against each other: Map-table entries vs per-block
// refcounts vs fingerprint index. The recovery invariant (tested over every crash point): any
// prefix of the journal recovers to a state fsck reports as consistent,
// with at most *repairable* stale index entries — an index put whose
// matching unbind fell past the crash point loses only dedup opportunity,
// never data, and the repair pass drops it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dedup/allocator.hpp"
#include "dedup/ondisk_index.hpp"
#include "fault/journal.hpp"

namespace pod {

/// Replays the journal's surviving records into `store` (and `index`, when
/// the engine has one). The targets must be freshly constructed and must
/// not have a journal attached.
void recover_from_journal(const MetadataJournal& journal, BlockStore& store,
                          OnDiskIndex* index);

struct FsckReport {
  std::uint64_t map_entries_checked = 0;
  std::uint64_t identity_blocks_checked = 0;
  std::uint64_t index_entries_checked = 0;
  std::uint64_t pool_blocks_checked = 0;

  /// Inconsistencies that mean the metadata lies about where data lives
  /// (dangling map entry, refcount mismatch, live block on the free list).
  std::uint64_t hard_errors = 0;
  /// Index entries pointing at dead/replaced content: harmless (only a
  /// missed dedup or a wasted verify), dropped by the repair pass.
  std::uint64_t stale_index_entries = 0;
  std::uint64_t repaired = 0;

  /// First few problems, human-readable (diagnostics, capped).
  std::vector<std::string> messages;

  /// No hard errors (stale index entries may remain unless repaired).
  bool consistent() const { return hard_errors == 0; }
  /// Fully clean: consistent and no unrepaired stale entries.
  bool clean() const {
    return hard_errors == 0 && stale_index_entries == repaired;
  }
};

/// Cross-checks map table, refcounts, fingerprints, pool occupancy and
/// (optionally) the fingerprint index. With `repair`, stale index entries
/// are erased in place.
FsckReport run_fsck(BlockStore& store, OnDiskIndex* index, bool repair);

}  // namespace pod
