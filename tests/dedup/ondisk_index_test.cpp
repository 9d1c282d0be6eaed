#include "dedup/ondisk_index.hpp"

#include <gtest/gtest.h>

#include "fault/journal.hpp"

namespace pod {
namespace {

Fingerprint fp(std::uint64_t id) { return Fingerprint::of_content_id(id); }

OnDiskIndex::Config small_cfg() {
  OnDiskIndex::Config cfg;
  cfg.region_start = 10000;
  cfg.region_blocks = 256;
  cfg.insert_batch = 4;
  cfg.bloom_bits = 1 << 16;
  return cfg;
}

/// An on-disk index over an index cache that caches nothing (the shape
/// journal recovery builds): every entry is on disk only.
struct Index {
  explicit Index(const OnDiskIndex::Config& cfg = small_cfg(),
                 std::uint64_t cache_entries = 0)
      : cache(cache_entries * IndexCache::kEntryBytes),
        idx(cfg, cache.table()) {}

  /// The stored PBA, read off the table the way the engine's probe reads
  /// it (kInvalidPba when `f` is not on disk).
  Pba stored(const Fingerprint& f) const {
    const FingerprintTable& t = cache.table();
    return t.on_disk_pba(t.find(t.hash_tag(f), f));
  }
  OnDiskIndex::Lookup lookup(const Fingerprint& f) const {
    return idx.lookup(f, stored(f));
  }

  IndexCache cache;
  OnDiskIndex idx;
};

TEST(OnDiskIndex, MissWithoutInsertIsBloomNegative) {
  Index w;
  const auto l = w.lookup(fp(1));
  EXPECT_FALSE(l.found);
  EXPECT_FALSE(l.needs_disk_read);
  EXPECT_EQ(w.idx.bloom_negative_hits(), 1u);
  EXPECT_EQ(w.idx.disk_lookups(), 0u);
}

TEST(OnDiskIndex, InsertThenLookupNeedsDiskRead) {
  Index w;
  (void)w.idx.insert(fp(1), 42);
  const auto l = w.lookup(fp(1));
  EXPECT_TRUE(l.found);
  EXPECT_EQ(l.pba, 42u);
  EXPECT_TRUE(l.needs_disk_read);
  EXPECT_GE(l.bucket, small_cfg().region_start);
  EXPECT_LT(l.bucket, small_cfg().region_start + small_cfg().region_blocks);
  EXPECT_EQ(w.idx.disk_lookups(), 1u);
}

TEST(OnDiskIndex, BucketDeterministic) {
  Index w;
  EXPECT_EQ(w.idx.bucket_of(fp(7)), w.idx.bucket_of(fp(7)));
}

TEST(OnDiskIndex, InsertBatchingChargesPeriodicWrites) {
  Index w;  // batch = 4
  int flushes = 0;
  for (std::uint64_t i = 0; i < 12; ++i)
    if (w.idx.insert(fp(i), i)) ++flushes;
  EXPECT_EQ(flushes, 3);
  EXPECT_EQ(w.idx.bucket_writes(), 3u);
}

TEST(OnDiskIndex, EraseRemovesEntry) {
  Index w(small_cfg(), 8);
  MetadataJournal journal;
  w.idx.set_journal(&journal);
  (void)w.idx.insert(fp(1), 42);
  w.cache.insert(fp(1), 42);  // resident too: erase drops both
  w.idx.erase(fp(1));
  EXPECT_EQ(w.idx.entries(), 0u);
  EXPECT_EQ(w.cache.size_entries(), 0u);
  EXPECT_EQ(w.cache.table().keys(), 0u);
  ASSERT_EQ(journal.records().size(), 2u);
  EXPECT_EQ(journal.records()[1].op, JournalOp::kIndexDel);
  const auto l = w.lookup(fp(1));
  EXPECT_FALSE(l.found);
  // Bloom bits persist: the lookup still pays the (now futile) disk read.
  EXPECT_TRUE(l.needs_disk_read);
}

// A freed block's entry leaves through the index cache's one probe
// (IndexCache::invalidate_if), which reports an on-disk deletion for the
// engine to journal as index_del.
TEST(OnDiskIndex, EraseIfMatchingPbaErasesAndJournals) {
  Index w(small_cfg(), 8);
  (void)w.idx.insert(fp(1), 42);
  w.cache.insert(fp(1), 42);
  EXPECT_TRUE(w.cache.invalidate_if(fp(1), 42));
  EXPECT_EQ(w.stored(fp(1)), kInvalidPba);
  EXPECT_EQ(w.idx.entries(), 0u);
  EXPECT_EQ(w.cache.size_entries(), 0u);  // both memberships, one probe
  EXPECT_EQ(w.cache.table().keys(), 0u);
  // An entry only resident (another engine's cache) reports no deletion.
  w.cache.insert(fp(2), 7);
  EXPECT_FALSE(w.cache.invalidate_if(fp(2), 7));
  EXPECT_EQ(w.cache.size_entries(), 0u);
}

TEST(OnDiskIndex, EraseIfOtherPbaKeepsEntryAndJournalsNothing) {
  Index w(small_cfg(), 8);
  (void)w.idx.insert(fp(1), 42);
  w.cache.insert(fp(1), 42);
  // The entry already moved to block 42; block 43's release leaves it.
  EXPECT_FALSE(w.cache.invalidate_if(fp(1), 43));
  EXPECT_EQ(w.stored(fp(1)), 42u);
  EXPECT_EQ(w.cache.size_entries(), 1u);
}

TEST(OnDiskIndex, EraseIfAbsentIsNoOp) {
  Index w;
  (void)w.idx.insert(fp(1), 42);
  EXPECT_FALSE(w.cache.invalidate_if(fp(2), 42));
  EXPECT_EQ(w.idx.entries(), 1u);
}

// The administrative reads — the table read the engine's probe makes, and
// fsck's for_each_entry — consult no Bloom filter and charge no traffic.
TEST(OnDiskIndex, PeekDoesNotCharge) {
  Index w;
  (void)w.idx.insert(fp(1), 42);
  EXPECT_EQ(w.stored(fp(1)), 42u);
  EXPECT_EQ(w.stored(fp(2)), kInvalidPba);
  int seen = 0;
  w.idx.for_each_entry([&](const Fingerprint& f, Pba pba) {
    EXPECT_EQ(f, fp(1));
    EXPECT_EQ(pba, 42u);
    ++seen;
  });
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(w.idx.disk_lookups(), 0u);
  EXPECT_EQ(w.idx.bloom_negative_hits(), 0u);
}

TEST(OnDiskIndex, UpdateOverwritesPba) {
  Index w(small_cfg(), 8);
  (void)w.idx.insert(fp(1), 42);
  w.cache.insert(fp(1), 42);
  (void)w.idx.insert(fp(1), 43);
  EXPECT_EQ(w.stored(fp(1)), 43u);
  EXPECT_EQ(w.idx.entries(), 1u);
  // One PBA per key: the resident entry moved with the on-disk one.
  EXPECT_EQ(w.cache.peek(fp(1))->pba(), 43u);
}

TEST(OnDiskIndex, BloomFalsePositiveRateBounded) {
  OnDiskIndex::Config cfg = small_cfg();
  cfg.bloom_bits = 1 << 20;  // ~10 bits per entry below
  Index w(cfg);
  for (std::uint64_t i = 0; i < 100'000; ++i) (void)w.idx.insert(fp(i), i);
  std::uint64_t false_pos = 0;
  const std::uint64_t probes = 20'000;
  for (std::uint64_t i = 0; i < probes; ++i) {
    const auto l = w.lookup(fp(1'000'000 + i));
    if (l.needs_disk_read) ++false_pos;
    EXPECT_FALSE(l.found);
  }
  EXPECT_LT(static_cast<double>(false_pos) / probes, 0.05);
}

TEST(OnDiskIndex, BloomBytesReported) {
  Index w;
  EXPECT_EQ(w.idx.bloom_bytes(), (1u << 16) / 8);
}

}  // namespace
}  // namespace pod
