// Variable-size-chunk (CDC) ingest path over the BlockStore extent APIs.
//
// CdcStore models a content-addressed object store built from the same
// metadata machinery the block engines use: the Chunker (fixed or Rabin
// CDC) splits each ingested object, the fingerprint index cache is probed
// for every chunk, and unique chunks are appended to fresh LBAs as
// block-rounded extents while duplicates remap onto the existing extent.
// Ingest is append-only — a cursor hands out fresh logical addresses — so
// unique chunks land at their identity home runs (no Map-table entries,
// matching POD's space-frugal mapping) and only deduplicated extents
// consume Map entries.
//
// Probe/insert scheduling mirrors the engines: all index lookups happen up
// front (lookup_fused: one prefetch-pipelined pass), all index inserts are
// the object's final metadata action (one insert_batch). `scalar_probes`
// selects the per-chunk reference path, which performs the same
// lookups-then-inserts sequence through the scalar cache API — final state
// is identical by IndexCache's batch-op equivalence, which the tests
// cross-check.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "cache/index_cache.hpp"
#include "dedup/allocator.hpp"
#include "dedup/chunker.hpp"
#include "hash/hash_engine.hpp"

namespace pod {

struct CdcConfig {
  ChunkingConfig chunking;
  HashEngineConfig hash;
  /// Logical capacity of the append-only extent space, in 4 KB blocks.
  std::uint64_t logical_blocks = 0;
  std::uint64_t index_cache_bytes = 4 * kMiB;
  /// Use the per-chunk scalar cache API instead of the fused lookup and
  /// bulk insert (state-identical; see IndexCache::lookup_fused).
  bool scalar_probes = false;
};

/// Point-in-time ingest accounting (all byte figures are payload bytes
/// unless noted).
struct CdcStats {
  std::uint64_t objects = 0;
  std::uint64_t chunks = 0;
  std::uint64_t unique_chunks = 0;
  std::uint64_t deduped_chunks = 0;
  std::uint64_t logical_bytes = 0;
  /// Payload bytes physically stored (unique chunks only).
  std::uint64_t stored_bytes = 0;
  /// Block-rounding overhead of stored chunks (last-block padding).
  std::uint64_t padding_bytes = 0;
  /// Payload bytes whose write was elided by deduplication.
  std::uint64_t deduped_bytes = 0;
  /// Index hits whose target extent failed revalidation (evicted/reused).
  std::uint64_t stale_hits = 0;
  /// Modelled fingerprinting CPU (per-chunk latency model).
  Duration modelled_cpu = 0;

  /// Logical bytes per physical byte, counting padding against us.
  double dedup_ratio() const {
    const std::uint64_t physical = stored_bytes + padding_bytes;
    return physical ? static_cast<double>(logical_bytes) /
                          static_cast<double>(physical)
                    : 0.0;
  }
  double mean_chunk_bytes() const {
    return chunks ? static_cast<double>(logical_bytes) /
                        static_cast<double>(chunks)
                  : 0.0;
  }
};

class CdcStore {
 public:
  explicit CdcStore(const CdcConfig& cfg);

  /// Ingests one object: chunk, probe, dedup-or-append. Returns false (and
  /// ingests nothing) if the remaining logical space cannot hold the
  /// object's worst-case extent footprint.
  bool ingest(std::span<const std::uint8_t> object);

  CdcStats stats() const;

  std::uint64_t cursor_blocks() const { return cursor_; }
  const BlockStore& store() const { return store_; }
  IndexCache& index_cache() { return index_; }
  const Chunker& chunker() const { return chunker_; }
  const HashEngine& hash_engine() const { return hash_; }

 private:
  CdcConfig cfg_;
  Chunker chunker_;
  HashEngine hash_;
  BlockStore store_;
  IndexCache index_;
  Lba cursor_ = 0;
  CdcStats stats_;
  // Per-object scratch (capacity reaches the largest object and stays).
  std::vector<DataChunk> chunk_scratch_;
  std::vector<Fingerprint> fp_scratch_;
  std::vector<const IndexEntry*> hit_scratch_;
  std::vector<Fingerprint> stage_fps_;
  std::vector<Pba> stage_pbas_;
  // Intra-object duplicate map: fp -> head PBA placed earlier in the same
  // object (index inserts are deferred to object end, so the index cannot
  // see them yet). Cleared per object.
  std::unordered_map<Fingerprint, Pba, FingerprintHash> pending_;
};

}  // namespace pod
