#include "engines/full_dedupe.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "engine_test_util.hpp"
#include "fault/fsck.hpp"
#include "synth/generator.hpp"

namespace pod {
namespace {

using testutil::EngineHarness;
using testutil::make_write;

TEST(FullDedupe, HashesEveryWrittenChunk) {
  EngineHarness h(EngineKind::kFullDedupe);
  (void)h.write(0, {1, 2, 3});
  EXPECT_EQ(h.engine().hash_engine().chunks_hashed(), 3u);
}

TEST(FullDedupe, FullyRedundantWriteEliminated) {
  EngineHarness h(EngineKind::kFullDedupe);
  (void)h.write(0, {1, 2, 3, 4});
  const std::uint64_t writes_before = h.disk_data_writes();
  (void)h.write(100, {1, 2, 3, 4});
  EXPECT_EQ(h.disk_data_writes(), writes_before);
  EXPECT_EQ(h.engine().stats().writes_eliminated, 1u);
  EXPECT_EQ(h.engine().stats().chunks_deduped, 4u);
}

TEST(FullDedupe, EliminatedWriteLatencyIsHashOnly) {
  EngineHarness h(EngineKind::kFullDedupe);
  (void)h.write(0, {1, 2});
  const Duration lat = h.write(100, {1, 2});
  // 2 chunks x 32 us, no disk ops.
  EXPECT_EQ(lat, 2 * us(32));
}

TEST(FullDedupe, DedupsScatteredChunksToo) {
  // Unlike Select-Dedupe, even isolated redundant chunks are deduplicated.
  EngineHarness h(EngineKind::kFullDedupe);
  (void)h.write(0, {1});
  (void)h.write(500, {9});
  (void)h.write(100, {1, 7, 9});  // chunks 0 and 2 dup to scattered blocks
  EXPECT_EQ(h.engine().stats().chunks_deduped, 2u);
  EXPECT_EQ(h.engine().store().resolve(100), 0u);
  EXPECT_EQ(h.engine().store().resolve(102), 500u);
}

TEST(FullDedupe, ScatteredDedupCausesReadAmplification) {
  EngineHarness h(EngineKind::kFullDedupe);
  // Three source blocks far apart.
  (void)h.write(0, {1});
  (void)h.write(1000, {2});
  (void)h.write(2000, {3});
  (void)h.write(100, {1, 2, 3});  // fully dedup'd against scattered copies
  const std::uint64_t before = h.engine().stats().read_ops_issued;
  (void)h.read(100, 3);
  // The logical read fans out into 3 non-contiguous volume reads.
  EXPECT_EQ(h.engine().stats().read_ops_issued - before, 3u);
}

TEST(FullDedupe, MapTableGrowsWithDedup) {
  EngineHarness h(EngineKind::kFullDedupe);
  (void)h.write(0, {1, 2});
  EXPECT_EQ(h.engine().map_table_bytes(), 0u);
  (void)h.write(100, {1, 2});
  EXPECT_EQ(h.engine().map_table_bytes(), 2 * MapTable::kEntryBytes);
}

TEST(FullDedupe, ColdLookupUsesOnDiskIndex) {
  EngineConfig cfg = testutil::small_engine_config();
  cfg.memory_bytes = 64 * IndexCache::kEntryBytes * 2;  // tiny index cache
  EngineHarness h(EngineKind::kFullDedupe, cfg);
  auto& full = static_cast<FullDedupeEngine&>(h.engine());
  // Write enough distinct chunks to evict early entries from the cache.
  for (std::uint64_t i = 0; i < 400; ++i) (void)h.write(i * 2, {100 + i});
  // Re-write the very first content: its cache entry is long gone, but the
  // on-disk index still knows it -> dedup with a charged disk lookup.
  const std::uint64_t disk_lookups_before = full.ondisk_index().disk_lookups();
  (void)h.write(5000, {100});
  EXPECT_GT(full.ondisk_index().disk_lookups(), disk_lookups_before);
  EXPECT_GT(h.engine().stats().index_disk_reads, 0u);
  EXPECT_EQ(h.engine().stats().writes_eliminated, 1u);
}

TEST(FullDedupe, BloomAvoidsDiskLookupsForFreshContent) {
  EngineHarness h(EngineKind::kFullDedupe);
  for (std::uint64_t i = 0; i < 100; ++i) (void)h.write(i * 4, {1000 + i});
  auto& full = static_cast<FullDedupeEngine&>(h.engine());
  // Every lookup was for never-seen content with a warm index cache; the
  // Bloom filter must have answered nearly all cold lookups without disk.
  EXPECT_GT(full.ondisk_index().bloom_negative_hits(), 0u);
  EXPECT_EQ(h.engine().stats().index_disk_reads, 0u);
}

TEST(FullDedupe, IndexMaintenanceWritesCharged) {
  EngineHarness h(EngineKind::kFullDedupe);
  for (std::uint64_t i = 0; i < 200; ++i) (void)h.write(i * 4, {5000 + i});
  EXPECT_GT(h.engine().stats().index_disk_writes, 0u);
}

TEST(FullDedupe, OverwriteInvalidatesStaleIndexEntry) {
  EngineHarness h(EngineKind::kFullDedupe);
  (void)h.write(0, {1});
  (void)h.write(0, {2});  // overwrites in place; fp(1)'s entry is stale
  // Writing content 1 again must NOT dedup against block 0 (it now holds 2).
  (void)h.write(100, {1});
  EXPECT_EQ(h.engine().store().resolve(100), 100u);
  const Fingerprint* f = h.engine().store().fingerprint_of(100);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(*f, Fingerprint::of_content_id(1));
}

TEST(FullDedupe, SharedBlockSurvivesSourceOverwrite) {
  EngineHarness h(EngineKind::kFullDedupe);
  (void)h.write(0, {1});
  (void)h.write(100, {1});       // dedup: lba 100 -> pba 0
  (void)h.write(0, {2});          // source overwritten -> redirected (COW)
  const Fingerprint* f = h.engine().store().fingerprint_of(0);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(*f, Fingerprint::of_content_id(1));  // shared data intact
  EXPECT_EQ(h.engine().store().resolve(100), 0u);
  EXPECT_NE(h.engine().store().resolve(0), 0u);
}

TEST(FullDedupe, CapacitySavingsReported) {
  EngineHarness h(EngineKind::kFullDedupe);
  for (Lba l = 0; l < 20; ++l) (void)h.write(l * 8, {1, 2, 3, 4});
  EXPECT_EQ(h.engine().physical_blocks_used(), 4u);
  EXPECT_EQ(h.engine().stats().writes_eliminated, 19u);
}

TEST(FullDedupe, ResidentKeysStayOnDiskAndJournalRestoresTheIndex) {
  // One fingerprint home: after every request of a replay, each key the
  // index cache holds is also on disk — at the same PBA, since the two
  // share one slot — and points at live content of that fingerprint. At
  // the end, the journal restores the on-disk index exactly into fresh
  // engine types, and fsck finds it clean.
  WorkloadProfile p = tiny_test_profile();
  p.measured_requests = 1500;
  p.warmup_requests = 500;
  const Trace trace = TraceGenerator(p).generate();
  EngineConfig cfg = testutil::small_engine_config();
  cfg.logical_blocks = p.volume_blocks;
  cfg.memory_bytes = 64 * kKiB;  // a small cache: promotions and evictions
  cfg.journal_metadata = true;
  EngineHarness h(EngineKind::kFullDedupe, cfg);
  const auto& full = static_cast<const FullDedupeEngine&>(h.engine());
  const FingerprintTable& t = full.index_cache()->table();

  std::uint64_t resident_checked = 0;
  for (const IoRequest& req : trace.requests) {
    (void)h.run(req);
    t.for_each(FingerprintTable::kResident, [&](std::uint32_t s) {
      EXPECT_TRUE(t.on(FingerprintTable::kOnDisk, s));
      const Fingerprint* live = full.store().fingerprint_of(t.entry(s).pba());
      EXPECT_TRUE(live != nullptr && *live == t.key(s));
      ++resident_checked;
      return !::testing::Test::HasFailure();
    });
    ASSERT_FALSE(HasFailure());
  }
  EXPECT_GT(resident_checked, 0u);
  EXPECT_GT(full.ondisk_index().entries(),
            full.index_cache()->size_entries());  // evictions kept keys

  BlockStore::Config store_cfg;
  store_cfg.logical_blocks = cfg.logical_blocks;
  store_cfg.pool_fraction = cfg.pool_fraction;
  BlockStore recovered(store_cfg);
  IndexCache cache(0);
  OnDiskIndex index(OnDiskIndex::Config{}, cache.table());
  recover_from_journal(*full.metadata_journal(), recovered, &index);
  using Entries = std::unordered_map<Fingerprint, Pba, FingerprintHash>;
  Entries live, restored;
  full.ondisk_index().for_each_entry(
      [&](const Fingerprint& f, Pba pba) { live[f] = pba; });
  index.for_each_entry(
      [&](const Fingerprint& f, Pba pba) { restored[f] = pba; });
  EXPECT_TRUE(restored == live);
  const FsckReport report = run_fsck(recovered, &index, /*repair=*/false);
  EXPECT_TRUE(report.clean())
      << (report.messages.empty() ? "" : report.messages.front());
  EXPECT_EQ(report.stale_index_entries, 0u);
  EXPECT_EQ(report.index_entries_checked, live.size());
}

}  // namespace
}  // namespace pod
