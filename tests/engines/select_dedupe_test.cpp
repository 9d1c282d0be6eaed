#include "engines/select_dedupe.hpp"

#include <gtest/gtest.h>

#include "engine_test_util.hpp"

namespace pod {
namespace {

using testutil::EngineHarness;

std::uint64_t category_count(EngineHarness& h, WriteCategory c) {
  return h.engine().stats().category_counts[static_cast<std::size_t>(c)];
}

TEST(SelectDedupe, SmallFullyRedundantWriteEliminated) {
  // The headline difference vs iDedup: a single-block duplicate write is
  // removed from the I/O path.
  EngineHarness h(EngineKind::kSelectDedupe);
  (void)h.write(0, {1});
  const std::uint64_t before = h.disk_data_writes();
  const Duration lat = h.write(100, {1});
  EXPECT_EQ(h.disk_data_writes(), before);
  EXPECT_EQ(h.engine().stats().writes_eliminated, 1u);
  EXPECT_EQ(lat, us(32));  // hash-only response
  EXPECT_EQ(category_count(h, WriteCategory::kFullSequential), 1u);
}

TEST(SelectDedupe, Category2ScatteredNotDeduped) {
  EngineHarness h(EngineKind::kSelectDedupe);
  (void)h.write(0, {1});
  (void)h.write(500, {2});
  // Two isolated dups inside a 6-block request: category 2, write as-is.
  (void)h.write(100, {1, 30, 31, 2, 32, 33});
  EXPECT_EQ(h.engine().stats().chunks_deduped, 0u);
  EXPECT_EQ(category_count(h, WriteCategory::kPartialBelow), 1u);
}

TEST(SelectDedupe, Category2AvoidsReadAmplification) {
  EngineHarness h(EngineKind::kSelectDedupe);
  (void)h.write(0, {1});
  (void)h.write(1000, {2});
  (void)h.write(100, {1, 40, 2, 41});  // cat 2: written contiguously
  const std::uint64_t before = h.engine().stats().read_ops_issued;
  (void)h.read(100, 4);
  // One contiguous volume read (vs 3+ under Full-Dedupe).
  EXPECT_EQ(h.engine().stats().read_ops_issued - before, 1u);
}

TEST(SelectDedupe, Category3RunDeduped) {
  EngineHarness h(EngineKind::kSelectDedupe);
  (void)h.write(0, {1, 2, 3, 4});
  // 6-block request containing the 4-long sequential dup run.
  (void)h.write(100, {1, 2, 3, 4, 70, 71});
  EXPECT_EQ(h.engine().stats().chunks_deduped, 4u);
  EXPECT_EQ(category_count(h, WriteCategory::kPartialAbove), 1u);
  EXPECT_EQ(h.engine().stats().writes_eliminated, 0u);
}

TEST(SelectDedupe, ThresholdBoundaryExactlyThree) {
  EngineHarness h(EngineKind::kSelectDedupe);  // threshold 3
  (void)h.write(0, {1, 2, 3});
  (void)h.write(100, {1, 2, 3, 80});  // run of exactly 3 qualifies
  EXPECT_EQ(h.engine().stats().chunks_deduped, 3u);

  EngineHarness h2(EngineKind::kSelectDedupe);
  (void)h2.write(0, {1, 2});
  (void)h2.write(100, {1, 2, 80});  // run of 2 < threshold
  EXPECT_EQ(h2.engine().stats().chunks_deduped, 0u);
}

TEST(SelectDedupe, FullyRedundantScatteredNotEliminated) {
  EngineHarness h(EngineKind::kSelectDedupe);
  (void)h.write(0, {1});
  (void)h.write(500, {2});
  (void)h.write(100, {1, 2});  // all redundant, but copies not adjacent
  EXPECT_EQ(h.engine().stats().writes_eliminated, 0u);
  EXPECT_EQ(category_count(h, WriteCategory::kPartialBelow), 1u);
}

TEST(SelectDedupe, SameLbaSameContentOverwriteEliminated) {
  // Pure I/O redundancy: rewriting identical data to the same location.
  EngineHarness h(EngineKind::kSelectDedupe);
  (void)h.write(0, {1, 2});
  const std::uint64_t before = h.disk_data_writes();
  (void)h.write(0, {1, 2});
  EXPECT_EQ(h.disk_data_writes(), before);
  EXPECT_EQ(h.engine().stats().writes_eliminated, 1u);
  // No extra capacity consumed.
  EXPECT_EQ(h.engine().physical_blocks_used(), 2u);
}

TEST(SelectDedupe, UniqueWritesPassThrough) {
  EngineHarness h(EngineKind::kSelectDedupe);
  (void)h.write(0, {1, 2, 3});
  EXPECT_EQ(category_count(h, WriteCategory::kUnique), 1u);
  EXPECT_EQ(h.engine().stats().chunks_written, 3u);
}

TEST(SelectDedupe, CountPreventsReferencedOverwrite) {
  // The Count/refcount consistency rule: data referenced by a dedup'd LBA
  // must survive the source being overwritten.
  EngineHarness h(EngineKind::kSelectDedupe);
  (void)h.write(0, {1, 2, 3});
  (void)h.write(100, {1, 2, 3});  // eliminated: 100 -> blocks 0..2
  (void)h.write(0, {7, 8, 9});    // source overwritten
  // Reading LBA 100 must still see content 1,2,3 at blocks 0..2.
  EXPECT_EQ(h.engine().store().resolve(100), 0u);
  EXPECT_EQ(*h.engine().store().fingerprint_of(0), Fingerprint::of_content_id(1));
  // LBA 0's new data was redirected elsewhere.
  EXPECT_NE(h.engine().store().resolve(0), 0u);
}

TEST(SelectDedupe, IndexMissMeansNoDedupNotDiskLookup) {
  // Unlike Full-Dedupe, a cold fingerprint costs nothing: no on-disk index.
  EngineConfig cfg = testutil::small_engine_config();
  cfg.memory_bytes = 64 * IndexCache::kEntryBytes;  // tiny index cache
  EngineHarness h(EngineKind::kSelectDedupe, cfg);
  for (std::uint64_t i = 0; i < 200; ++i) (void)h.write(i * 4, {300 + i});
  (void)h.write(5000, {300});  // evicted from index long ago
  EXPECT_EQ(h.engine().stats().index_disk_reads, 0u);
  EXPECT_EQ(h.engine().stats().writes_eliminated, 0u);  // missed opportunity
}

TEST(SelectDedupe, GhostProbesSignalMissedDedup) {
  // Select-Dedupe's index misses probe the ghost list, which iCache keeps:
  // under POD (Select-Dedupe + iCache) a miss on a recently evicted
  // fingerprint is a ghost hit, while plain Select-Dedupe keeps no ghost
  // list at all.
  EngineConfig cfg = testutil::small_engine_config();
  cfg.memory_bytes = 64 * IndexCache::kEntryBytes;
  for (const EngineKind kind : {EngineKind::kPod, EngineKind::kSelectDedupe}) {
    EngineHarness h(kind, cfg);
    for (std::uint64_t i = 0; i < 100; ++i) (void)h.write(i * 4, {300 + i});
    // Probe a *recently* evicted entry (the cache holds the newest 32 of
    // 100 inserts; the ghost list remembers the most recently evicted ones).
    (void)h.write(5000, {300 + 60});
    const IndexCache* index = h.engine().index_cache();
    ASSERT_NE(index, nullptr);
    if (kind == EngineKind::kPod) {
      EXPECT_GT(index->ghost_hits(), 0u);
    } else {
      EXPECT_EQ(index->ghost_size(), 0u);
      EXPECT_EQ(index->ghost_hits(), 0u);
    }
  }
}

TEST(SelectDedupe, EliminationChainsThroughDedupedSource) {
  // A dedups against B which deduped against C: the chain must resolve to
  // the same physical blocks.
  EngineHarness h(EngineKind::kSelectDedupe);
  (void)h.write(0, {1, 2});     // C: physical 0,1
  (void)h.write(100, {1, 2});   // B eliminated -> 0,1
  (void)h.write(200, {1, 2});   // A eliminated -> 0,1
  EXPECT_EQ(h.engine().stats().writes_eliminated, 2u);
  EXPECT_EQ(h.engine().store().resolve(200), 0u);
  EXPECT_EQ(h.engine().physical_blocks_used(), 2u);
}

TEST(SelectDedupe, WarmPathBuildsDedupState) {
  EngineHarness h(EngineKind::kSelectDedupe);
  h.warm_write(0, {1, 2});
  EXPECT_EQ(h.disk_ops(), 0u);
  (void)h.write(100, {1, 2});  // timed: eliminated thanks to warm state
  EXPECT_EQ(h.engine().stats().writes_eliminated, 1u);
}

TEST(SelectDedupe, MapTableTracksNvramHighWater) {
  EngineHarness h(EngineKind::kSelectDedupe);
  (void)h.write(0, {1, 2, 3});
  (void)h.write(100, {1, 2, 3});
  EXPECT_EQ(h.engine().map_table_max_bytes(), 3 * MapTable::kEntryBytes);
}

}  // namespace
}  // namespace pod
