#include <gtest/gtest.h>

#include "engines/engine.hpp"
#include "engine_test_util.hpp"

namespace pod {
namespace {

TEST(EngineStats, DeltaSubtractsEveryCounter) {
  EngineStats before;
  before.write_requests = 10;
  before.read_requests = 5;
  before.write_blocks = 30;
  before.read_blocks = 12;
  before.writes_eliminated = 4;
  before.small_writes_eliminated = 3;
  before.chunks_deduped = 9;
  before.chunks_written = 21;
  before.category_counts[1] = 3;
  before.index_disk_reads = 2;
  before.index_disk_writes = 1;
  before.read_ops_issued = 7;

  EngineStats after = before;
  after.write_requests += 100;
  after.read_requests += 50;
  after.write_blocks += 300;
  after.read_blocks += 120;
  after.writes_eliminated += 40;
  after.small_writes_eliminated += 25;
  after.chunks_deduped += 90;
  after.chunks_written += 210;
  after.category_counts[1] += 30;
  after.index_disk_reads += 20;
  after.index_disk_writes += 10;
  after.read_ops_issued += 70;

  const EngineStats d = EngineStats::delta(after, before);
  EXPECT_EQ(d.write_requests, 100u);
  EXPECT_EQ(d.read_requests, 50u);
  EXPECT_EQ(d.write_blocks, 300u);
  EXPECT_EQ(d.read_blocks, 120u);
  EXPECT_EQ(d.writes_eliminated, 40u);
  EXPECT_EQ(d.small_writes_eliminated, 25u);
  EXPECT_EQ(d.chunks_deduped, 90u);
  EXPECT_EQ(d.chunks_written, 210u);
  EXPECT_EQ(d.category_counts[1], 30u);
  EXPECT_EQ(d.category_counts[0], 0u);
  EXPECT_EQ(d.index_disk_reads, 20u);
  EXPECT_EQ(d.index_disk_writes, 10u);
  EXPECT_EQ(d.read_ops_issued, 70u);
}

TEST(EngineStats, SmallWritesEliminatedCountsWritesOfAtMostTwoBlocks) {
  testutil::EngineHarness h(EngineKind::kSelectDedupe);
  (void)h.write(0, {1, 2, 3, 4});
  (void)h.write(100, {1});           // 1 block, eliminated: small
  (void)h.write(200, {1, 2});        // 2 blocks, eliminated: small
  (void)h.write(300, {1, 2, 3});     // 3 blocks, eliminated: large
  (void)h.write(400, {9, 10});       // new content: written
  const EngineStats& s = h.engine().stats();
  EXPECT_EQ(s.writes_eliminated, 3u);
  EXPECT_EQ(s.small_writes_eliminated, 2u);
}

TEST(EngineStats, RemovedWritePct) {
  EngineStats s;
  EXPECT_DOUBLE_EQ(s.removed_write_pct(), 0.0);
  s.write_requests = 200;
  s.writes_eliminated = 50;
  EXPECT_DOUBLE_EQ(s.removed_write_pct(), 25.0);
}

TEST(EngineStats, DedupRatio) {
  EngineStats s;
  EXPECT_DOUBLE_EQ(s.dedup_ratio(), 0.0);
  s.chunks_deduped = 30;
  s.chunks_written = 70;
  EXPECT_DOUBLE_EQ(s.dedup_ratio(), 0.3);
}

TEST(EngineConfig, RequiredVolumeCoversAllRegions) {
  EngineConfig cfg;
  cfg.logical_blocks = 100'000;
  cfg.pool_fraction = 0.25;
  cfg.index_region_blocks = 5000;
  cfg.swap_region_blocks = 3000;
  EXPECT_EQ(required_volume_blocks(cfg), 100'000 + 25'000 + 5000 + 3000);
}

TEST(EngineConfig, TinyLogicalSpaceStillGetsMinimumPool) {
  EngineConfig cfg;
  cfg.logical_blocks = 100;
  cfg.pool_fraction = 0.25;
  // Pool floors at 1024 blocks so redirects never starve.
  EXPECT_GE(required_volume_blocks(cfg),
            100 + 1024 + cfg.index_region_blocks + cfg.swap_region_blocks);
}

}  // namespace
}  // namespace pod
