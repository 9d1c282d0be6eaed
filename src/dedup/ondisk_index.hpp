// The full on-disk fingerprint index used by Full-Dedupe.
//
// §II-B: the complete hash index for primary-storage volumes does not fit
// in RAM (8 GB per 1 TB at 4 KB chunks), so most lookups that miss the
// in-memory index cache must read an index bucket from disk — the classic
// index-lookup disk bottleneck. An in-memory Bloom filter (as in Zhu et
// al.'s DDFS, cited as [36]) short-circuits lookups for definitely-new
// fingerprints; bucket updates are write-behind and batched.
//
// OnDiskIndex holds the authoritative fingerprint->PBA mapping and *plans*
// the disk traffic: lookup()/insert() report which index-region block the
// caller must read/write; the engine charges those ops to the volume.
#pragma once

#include <cstdint>
#include <optional>

#include "common/flat_hash_map.hpp"
#include "common/mapped.hpp"
#include "common/packed_pba.hpp"
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
    /// Expected unique-fingerprint count; pre-sizes the in-memory table so
    /// steady growth pays no incremental rehash pauses (0 = grow on demand).
    std::uint64_t expected_entries = 0;
  };

  explicit OnDiskIndex(const Config& cfg);

  struct Lookup {
    bool found = false;
    Pba pba = kInvalidPba;
    /// Caller must charge a 1-block read at `bucket` before using the
    /// result (Bloom filter said "maybe").
    bool needs_disk_read = false;
    Pba bucket = kInvalidPba;
  };

  Lookup lookup(const Fingerprint& fp) const;

  /// Inserts/updates an entry. When the write-behind buffer fills, returns
  /// the bucket block the caller must charge as a disk write.
  std::optional<Pba> insert(const Fingerprint& fp, Pba pba);

  /// Administrative probe: no Bloom consultation, no disk-traffic
  /// accounting. Returns the stored PBA, if any.
  std::optional<Pba> peek(const Fingerprint& fp) const;

  /// Drops an entry (freed physical block). Bloom bits are not cleared —
  /// subsequent lookups may pay a false-positive disk read, as in reality.
  void erase(const Fingerprint& fp);

  /// erase() only if the entry still maps to `pba` (one probe: the peek +
  /// erase pair of a freed block). Journals exactly what erase() does.
  void erase_if(const Fingerprint& fp, Pba pba);

  /// Attaches a write-ahead journal: inserts and erases are recorded as
  /// index_put/index_del before taking effect. Null detaches.
  void set_journal(MetadataJournal* journal) { journal_ = journal; }

  /// Journal recovery: reinstalls an entry (Bloom bits included) with no
  /// disk-traffic accounting and no re-journaling.
  void restore_entry(const Fingerprint& fp, Pba pba);

  /// Iterates all entries as `fn(fp, pba)` (unspecified order; cold path:
  /// fsck).
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    table_.for_each([&fn](const Fingerprint& fp, PackedPba pba) {
      fn(fp, widen_pba(pba));
    });
  }

  std::size_t entries() const { return table_.size(); }
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
  /// Values are packed PBAs (common/packed_pba.hpp): 20-byte slots.
  FlatHashMap<Fingerprint, PackedPba, FingerprintHash> table_;
  MetadataJournal* journal_ = nullptr;
  ZeroedArray<std::uint64_t> bloom_;
  std::uint32_t pending_inserts_ = 0;
  mutable std::uint64_t bloom_negatives_ = 0;
  mutable std::uint64_t disk_lookups_ = 0;
  std::uint64_t bucket_writes_ = 0;
};

}  // namespace pod
