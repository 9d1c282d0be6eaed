#include "dedup/ondisk_index.hpp"

#include <gtest/gtest.h>

#include <optional>

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

TEST(OnDiskIndex, MissWithoutInsertIsBloomNegative) {
  OnDiskIndex idx(small_cfg());
  const auto l = idx.lookup(fp(1));
  EXPECT_FALSE(l.found);
  EXPECT_FALSE(l.needs_disk_read);
  EXPECT_EQ(idx.bloom_negative_hits(), 1u);
  EXPECT_EQ(idx.disk_lookups(), 0u);
}

TEST(OnDiskIndex, InsertThenLookupNeedsDiskRead) {
  OnDiskIndex idx(small_cfg());
  (void)idx.insert(fp(1), 42);
  const auto l = idx.lookup(fp(1));
  EXPECT_TRUE(l.found);
  EXPECT_EQ(l.pba, 42u);
  EXPECT_TRUE(l.needs_disk_read);
  EXPECT_GE(l.bucket, small_cfg().region_start);
  EXPECT_LT(l.bucket, small_cfg().region_start + small_cfg().region_blocks);
  EXPECT_EQ(idx.disk_lookups(), 1u);
}

TEST(OnDiskIndex, BucketDeterministic) {
  OnDiskIndex idx(small_cfg());
  EXPECT_EQ(idx.bucket_of(fp(7)), idx.bucket_of(fp(7)));
}

TEST(OnDiskIndex, InsertBatchingChargesPeriodicWrites) {
  OnDiskIndex idx(small_cfg());  // batch = 4
  int flushes = 0;
  for (std::uint64_t i = 0; i < 12; ++i)
    if (idx.insert(fp(i), i)) ++flushes;
  EXPECT_EQ(flushes, 3);
  EXPECT_EQ(idx.bucket_writes(), 3u);
}

TEST(OnDiskIndex, EraseRemovesEntry) {
  OnDiskIndex idx(small_cfg());
  (void)idx.insert(fp(1), 42);
  idx.erase(fp(1));
  const auto l = idx.lookup(fp(1));
  EXPECT_FALSE(l.found);
  // Bloom bits persist: the lookup still pays the (now futile) disk read.
  EXPECT_TRUE(l.needs_disk_read);
}

TEST(OnDiskIndex, EraseIfMatchingPbaErasesAndJournals) {
  OnDiskIndex idx(small_cfg());
  MetadataJournal journal;
  idx.set_journal(&journal);
  (void)idx.insert(fp(1), 42);
  idx.erase_if(fp(1), 42);
  EXPECT_EQ(idx.peek(fp(1)), std::nullopt);
  EXPECT_EQ(idx.entries(), 0u);
  // The same index_del record erase() writes.
  ASSERT_EQ(journal.records().size(), 2u);
  EXPECT_EQ(journal.records()[1].op, JournalOp::kIndexDel);
  EXPECT_EQ(journal.records()[1].fp, fp(1));
  EXPECT_EQ(journal.records()[1].pba, kInvalidPba);
}

TEST(OnDiskIndex, EraseIfOtherPbaKeepsEntryAndJournalsNothing) {
  OnDiskIndex idx(small_cfg());
  MetadataJournal journal;
  idx.set_journal(&journal);
  (void)idx.insert(fp(1), 42);
  idx.erase_if(fp(1), 43);  // entry already rebound elsewhere
  ASSERT_NE(idx.peek(fp(1)), std::nullopt);
  EXPECT_EQ(*idx.peek(fp(1)), 42u);
  EXPECT_EQ(journal.records().size(), 1u);
}

TEST(OnDiskIndex, EraseIfAbsentIsNoOp) {
  OnDiskIndex idx(small_cfg());
  MetadataJournal journal;
  idx.set_journal(&journal);
  (void)idx.insert(fp(1), 42);
  idx.erase_if(fp(2), 42);
  EXPECT_EQ(idx.entries(), 1u);
  EXPECT_EQ(journal.records().size(), 1u);
}

TEST(OnDiskIndex, PeekDoesNotCharge) {
  OnDiskIndex idx(small_cfg());
  (void)idx.insert(fp(1), 42);
  const std::optional<Pba> p = idx.peek(fp(1));
  ASSERT_NE(p, std::nullopt);
  EXPECT_EQ(*p, 42u);
  EXPECT_EQ(idx.peek(fp(2)), std::nullopt);
  EXPECT_EQ(idx.disk_lookups(), 0u);
}

TEST(OnDiskIndex, UpdateOverwritesPba) {
  OnDiskIndex idx(small_cfg());
  (void)idx.insert(fp(1), 42);
  (void)idx.insert(fp(1), 43);
  EXPECT_EQ(*idx.peek(fp(1)), 43u);
  EXPECT_EQ(idx.entries(), 1u);
}

TEST(OnDiskIndex, BloomFalsePositiveRateBounded) {
  OnDiskIndex::Config cfg = small_cfg();
  cfg.bloom_bits = 1 << 20;  // ~10 bits per entry below
  OnDiskIndex idx(cfg);
  for (std::uint64_t i = 0; i < 100'000; ++i) (void)idx.insert(fp(i), i);
  std::uint64_t false_pos = 0;
  const std::uint64_t probes = 20'000;
  for (std::uint64_t i = 0; i < probes; ++i) {
    const auto l = idx.lookup(fp(1'000'000 + i));
    if (l.needs_disk_read) ++false_pos;
    EXPECT_FALSE(l.found);
  }
  EXPECT_LT(static_cast<double>(false_pos) / probes, 0.05);
}

TEST(OnDiskIndex, BloomBytesReported) {
  OnDiskIndex idx(small_cfg());
  EXPECT_EQ(idx.bloom_bytes(), (1u << 16) / 8);
}

}  // namespace
}  // namespace pod
