// CdcStore: append-only variable-size-chunk ingest over the BlockStore
// extent APIs — dedup correctness, space accounting, intra-object
// duplicates, and bulk/scalar cache-path equivalence.
#include "dedup/cdc_store.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"

namespace pod {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

CdcConfig small_config(ChunkingMode mode) {
  CdcConfig cfg;
  cfg.chunking.mode = mode;
  cfg.hash.algo = HashEngineConfig::Algo::kXx64;
  cfg.logical_blocks = 64 * 1024;  // 256 MB logical space
  cfg.index_cache_bytes = 1 * kMiB;
  return cfg;
}

TEST(CdcStore, IdenticalObjectFullyDedupes) {
  Rng rng(1);
  const auto obj = random_bytes(300 * 1000, rng);
  for (const ChunkingMode mode : {ChunkingMode::kFixed, ChunkingMode::kCdc}) {
    SCOPED_TRACE(to_string(mode));
    CdcStore store(small_config(mode));
    ASSERT_TRUE(store.ingest({obj.data(), obj.size()}));
    const CdcStats after_first = store.stats();
    EXPECT_EQ(after_first.deduped_chunks, 0u);
    EXPECT_EQ(after_first.unique_chunks, after_first.chunks);

    ASSERT_TRUE(store.ingest({obj.data(), obj.size()}));
    const CdcStats s = store.stats();
    // Second copy: every chunk deduplicates, nothing new is stored.
    EXPECT_EQ(s.objects, 2u);
    EXPECT_EQ(s.deduped_chunks, s.chunks - after_first.chunks);
    EXPECT_EQ(s.stored_bytes, after_first.stored_bytes);
    EXPECT_EQ(s.unique_chunks, after_first.unique_chunks);
    EXPECT_GT(s.dedup_ratio(), 1.5);
  }
}

TEST(CdcStore, IntraObjectDuplicatesDedupe) {
  // One object = the same 64 KB segment three times: the 2nd and 3rd
  // copies duplicate chunks placed earlier in the SAME object (the index
  // cannot know them yet — the pending map must catch them).
  Rng rng(2);
  const auto segment = random_bytes(64 * 1024, rng);
  std::vector<std::uint8_t> obj;
  for (int i = 0; i < 3; ++i)
    obj.insert(obj.end(), segment.begin(), segment.end());

  CdcStore store(small_config(ChunkingMode::kFixed));
  ASSERT_TRUE(store.ingest({obj.data(), obj.size()}));
  const CdcStats s = store.stats();
  // 48 fixed 4 KB chunks; 16 unique (first copy), 32 deduped.
  EXPECT_EQ(s.chunks, 48u);
  EXPECT_EQ(s.unique_chunks, 16u);
  EXPECT_EQ(s.deduped_chunks, 32u);
}

TEST(CdcStore, InsertionShiftedVersionStillDedupesUnderCdc) {
  // A 1 KB insertion at the front shifts every downstream byte. Fixed
  // chunking loses all alignment; CDC re-synchronises after ~1 chunk.
  Rng rng(3);
  const auto base = random_bytes(400 * 1000, rng);
  std::vector<std::uint8_t> shifted = random_bytes(1024, rng);
  shifted.insert(shifted.end(), base.begin(), base.end());

  CdcStore fixed(small_config(ChunkingMode::kFixed));
  ASSERT_TRUE(fixed.ingest({base.data(), base.size()}));
  ASSERT_TRUE(fixed.ingest({shifted.data(), shifted.size()}));

  CdcStore cdc(small_config(ChunkingMode::kCdc));
  ASSERT_TRUE(cdc.ingest({base.data(), base.size()}));
  ASSERT_TRUE(cdc.ingest({shifted.data(), shifted.size()}));

  // Fixed: second version shares essentially nothing (random data, new
  // alignment). CDC: nearly everything after the insertion dedupes.
  EXPECT_LT(fixed.stats().deduped_bytes, base.size() / 10);
  EXPECT_GT(cdc.stats().deduped_bytes, base.size() * 7 / 10);
}

TEST(CdcStore, ScalarAndBulkCachePathsAgree) {
  Rng rng(4);
  // Versioned corpus with edits so the index cache sees hits, misses and
  // evictions on both paths.
  std::vector<std::vector<std::uint8_t>> objects;
  auto current = random_bytes(200 * 1000, rng);
  objects.push_back(current);
  for (int v = 0; v < 6; ++v) {
    for (int e = 0; e < 4; ++e) {
      const std::size_t at = static_cast<std::size_t>(
          rng.uniform(0, current.size() - 129));
      for (std::size_t i = 0; i < 128; ++i)
        current[at + i] = static_cast<std::uint8_t>(rng.next());
    }
    objects.push_back(current);
  }

  for (const ChunkingMode mode : {ChunkingMode::kFixed, ChunkingMode::kCdc}) {
    SCOPED_TRACE(to_string(mode));
    CdcConfig bulk_cfg = small_config(mode);  // fused lookup + bulk insert
    bulk_cfg.index_cache_bytes = 8 * 1024;  // tight: force evictions
    CdcConfig scalar_cfg = bulk_cfg;
    scalar_cfg.scalar_probes = true;

    CdcStore bulk(bulk_cfg), scalar(scalar_cfg);
    for (const auto& obj : objects) {
      ASSERT_TRUE(bulk.ingest({obj.data(), obj.size()}));
      ASSERT_TRUE(scalar.ingest({obj.data(), obj.size()}));
    }
    const CdcStats b = bulk.stats(), s = scalar.stats();
    EXPECT_EQ(b.chunks, s.chunks);
    EXPECT_EQ(b.unique_chunks, s.unique_chunks);
    EXPECT_EQ(b.deduped_chunks, s.deduped_chunks);
    EXPECT_EQ(b.stored_bytes, s.stored_bytes);
    EXPECT_EQ(b.padding_bytes, s.padding_bytes);
    EXPECT_EQ(b.deduped_bytes, s.deduped_bytes);
    EXPECT_EQ(b.stale_hits, s.stale_hits);
    EXPECT_EQ(bulk.cursor_blocks(), scalar.cursor_blocks());
    // And the physical stores agree block for block.
    EXPECT_EQ(bulk.store().live_physical_blocks(),
              scalar.store().live_physical_blocks());
    EXPECT_EQ(bulk.store().live_logical_blocks(),
              scalar.store().live_logical_blocks());
  }
}

TEST(CdcStore, AccountingInvariants) {
  Rng rng(6);
  CdcStore store(small_config(ChunkingMode::kCdc));
  for (int i = 0; i < 4; ++i) {
    const auto obj = random_bytes(100 * 1000 + i * 7919, rng);
    ASSERT_TRUE(store.ingest({obj.data(), obj.size()}));
  }
  const CdcStats s = store.stats();
  EXPECT_EQ(s.unique_chunks + s.deduped_chunks, s.chunks);
  EXPECT_EQ(s.stored_bytes + s.deduped_bytes, s.logical_bytes);
  // Physical footprint is block-rounded: padding completes the last block
  // of each stored chunk.
  EXPECT_EQ((s.stored_bytes + s.padding_bytes) % kBlockSize, 0u);
  EXPECT_EQ(bytes_to_blocks(s.stored_bytes + s.padding_bytes),
            store.store().live_physical_blocks());
  EXPECT_EQ(s.modelled_cpu, static_cast<Duration>(s.chunks) * us(32));
}

TEST(CdcStore, RefusesOverflowWithoutMutating) {
  Rng rng(7);
  CdcConfig cfg = small_config(ChunkingMode::kFixed);
  cfg.logical_blocks = 8;  // 32 KB space
  CdcStore store(cfg);
  const auto small = random_bytes(4 * 4096, rng);
  ASSERT_TRUE(store.ingest({small.data(), small.size()}));
  const CdcStats before = store.stats();
  const auto big = random_bytes(8 * 4096, rng);
  EXPECT_FALSE(store.ingest({big.data(), big.size()}));
  const CdcStats after = store.stats();
  EXPECT_EQ(after.objects, before.objects);
  EXPECT_EQ(after.chunks, before.chunks);
  EXPECT_EQ(store.cursor_blocks(), 4u);
}

}  // namespace
}  // namespace pod
