// The full on-disk fingerprint index used by Full-Dedupe.
//
// §II-B: the complete hash index for primary-storage volumes does not fit
// in RAM (8 GB per 1 TB at 4 KB chunks), so most lookups that miss the
// in-memory index cache must read an index bucket from disk — the classic
// index-lookup disk bottleneck. An in-memory Bloom filter (as in Zhu et
// al.'s DDFS, cited as [36]) short-circuits lookups for definitely-new
// fingerprints; bucket updates are write-behind and batched.
//
// OnDiskIndex models the disk side of that index and *plans* its traffic:
// lookup()/insert() report which index-region block the caller must
// read/write; the engine charges those ops to the volume. It keeps no table
// of its own. The authoritative fingerprint->PBA entries are the on-disk
// membership of the index cache's LruTable (cache/lru_table.hpp), so a key
// that is cached and on disk is stored once, with one PBA, and one probe
// of that table answers resident, on disk or absent. This class keeps
// what models the disk: the Bloom filter, the bucket a key hashes to,
// write-behind batching, the journal records, and the traffic counters.
#pragma once

#include <cstdint>
#include <optional>

#include "cache/index_cache.hpp"
#include "common/mapped.hpp"
#include "common/types.hpp"
#include "hash/fingerprint.hpp"

namespace pod {

class MetadataJournal;

class OnDiskIndex {
 public:
  struct Config {
    /// First block of the reserved index region on the volume.
    Pba region_start = 0;
    /// Region size in blocks (buckets).
    std::uint64_t region_blocks = 4096;
    /// Dirty-bucket write-behind: one bucket write is charged per this many
    /// inserts (modelling a small staging buffer; on-disk index maintenance
    /// is a real cost of Full-Dedupe that the selective schemes never pay).
    std::uint32_t insert_batch = 8;
    /// Bloom filter size in bits (in-memory; ~10 bits/entry target).
    std::uint64_t bloom_bits = 1ULL << 24;
    /// When false, every cache-missed lookup pays the in-disk bucket read —
    /// the plain Full-Dedupe of the paper's §II-B. Enabling the Bloom
    /// filter (DDFS-style, [36]) is an ablation.
    bool bloom_enabled = true;
  };

  /// An index whose entries are the on-disk membership of `table` (the
  /// index cache's: IndexCache::table()).
  OnDiskIndex(const Config& cfg, FingerprintTable& table);

  struct Lookup {
    bool found = false;
    Pba pba = kInvalidPba;
    /// Caller must charge a 1-block read at `bucket` before using the
    /// result (Bloom filter said "maybe").
    bool needs_disk_read = false;
    Pba bucket = kInvalidPba;
  };

  /// The cold path of a key the index cache missed. `stored` is the key's
  /// on-disk PBA as the cache's probe found it (IndexCache::lookup's
  /// `on_disk`; kInvalidPba when the key is not on disk), so the lookup
  /// probes nothing. A Bloom negative charges nothing; a "maybe" charges
  /// one bucket read, found or not.
  Lookup lookup(const Fingerprint& fp, Pba stored) const;

  /// Inserts/updates an entry. When the write-behind buffer fills, returns
  /// the bucket block the caller must charge as a disk write.
  std::optional<Pba> insert(const Fingerprint& fp, Pba pba);

  /// Drops an entry, and its resident copy with it (journal recovery's
  /// index_del, fsck's repair). Bloom bits are not cleared — subsequent
  /// lookups may pay a false-positive disk read, as in reality. A freed
  /// block's entry leaves through IndexCache::invalidate_if instead, in
  /// the engine's write tail (DedupEngine::drain_freed).
  void erase(const Fingerprint& fp);

  /// Attaches a write-ahead journal: inserts and erases are recorded as
  /// index_put/index_del before taking effect. Null detaches. (The engine
  /// journals a freed block's index_del itself, from the same journal.)
  void set_journal(MetadataJournal* journal) { journal_ = journal; }

  /// Journal recovery: reinstalls an entry (Bloom bits included) with no
  /// disk-traffic accounting and no re-journaling.
  void restore_entry(const Fingerprint& fp, Pba pba);

  /// Iterates all entries as `fn(fp, pba)` (slot order; cold path: fsck).
  /// No Bloom consultation, no disk-traffic accounting.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    table_.for_each(FingerprintTable::kOnDisk, [&](std::uint32_t s) {
      fn(table_.key(s), table_.entry(s).pba());
      return true;
    });
  }

  std::size_t entries() const { return table_.size(FingerprintTable::kOnDisk); }
  std::uint64_t bloom_negative_hits() const { return bloom_negatives_; }
  std::uint64_t disk_lookups() const { return disk_lookups_; }
  std::uint64_t bucket_writes() const { return bucket_writes_; }

  /// Bytes of RAM the Bloom filter occupies (constant overhead, reported by
  /// the overhead bench; not part of the index-cache/read-cache split).
  std::uint64_t bloom_bytes() const { return bloom_.size() * 8; }

  Pba bucket_of(const Fingerprint& fp) const;

 private:
  bool bloom_maybe(const Fingerprint& fp) const;
  void bloom_set(const Fingerprint& fp);

  Config cfg_;
  FingerprintTable& table_;
  MetadataJournal* journal_ = nullptr;
  ZeroedArray<std::uint64_t> bloom_;
  std::uint32_t pending_inserts_ = 0;
  mutable std::uint64_t bloom_negatives_ = 0;
  mutable std::uint64_t disk_lookups_ = 0;
  std::uint64_t bucket_writes_ = 0;
};

}  // namespace pod
