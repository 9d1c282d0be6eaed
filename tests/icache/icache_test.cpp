#include "icache/icache.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace pod {
namespace {

Fingerprint fp(std::uint64_t id) { return Fingerprint::of_content_id(id); }

struct Fixture {
  static constexpr std::uint64_t kTotal = 64 * kBlockSize;  // 256 KiB budget

  // Each cache's ghost list is ICache's to enable (make() below).
  Fixture() : index(kTotal), read(kTotal) {}

  ICacheConfig config() {
    ICacheConfig cfg;
    cfg.total_bytes = kTotal;
    cfg.interval = ms(100);
    cfg.step_fraction = 0.1;
    cfg.min_fraction = 0.1;
    return cfg;
  }

  IndexCache index;
  ReadCache read;
  std::vector<std::pair<OpType, std::uint64_t>> swaps;

  ICache make(ICacheConfig cfg) {
    return ICache(cfg, index, read, [this](OpType t, std::uint64_t b) {
      swaps.emplace_back(t, b);
    });
  }
  ICache make() { return make(config()); }

  /// Ghost-signal injectors. Probing right after remembering gives age ~0,
  /// so these hits always count as "near".
  void index_ghost_signal(std::uint64_t base, int n = 50) {
    for (int i = 0; i < n; ++i) {
      index.ghost_remember(fp(base + static_cast<std::uint64_t>(i)));
      EXPECT_TRUE(index.ghost_probe(fp(base + static_cast<std::uint64_t>(i))));
    }
  }
  void read_ghost_signal(Pba base, int n = 50) {
    for (int i = 0; i < n; ++i) {
      read.ghost_remember(base + static_cast<Pba>(i));
      EXPECT_TRUE(read.ghost_probe(base + static_cast<Pba>(i)));
    }
  }
};

/// Adaptation requires two consecutive epochs agreeing; drive both.
template <typename SignalFn>
void drive(ICache& ic, SignalFn&& signal) {
  for (int round = 0; round < 2; ++round) {
    signal(round);
    ic.adapt();
  }
}

TEST(ICache, InitialSplitApplied) {
  Fixture f;
  ICache ic = f.make();
  EXPECT_NEAR(ic.index_fraction(), 0.5, 0.02);
  EXPECT_EQ(ic.index_bytes() + ic.read_bytes(), Fixture::kTotal);
}

TEST(ICache, CustomInitialFraction) {
  Fixture f;
  ICacheConfig cfg = f.config();
  cfg.initial_index_fraction = 0.2;
  ICache ic = f.make(cfg);
  EXPECT_NEAR(ic.index_fraction(), 0.2, 0.02);
}

TEST(ICache, HoldWithoutGhostSignal) {
  Fixture f;
  ICache ic = f.make();
  ic.adapt();
  ic.adapt();
  EXPECT_EQ(ic.stats().adaptations, 2u);
  EXPECT_NEAR(ic.index_fraction(), 0.5, 0.02);
  EXPECT_EQ(ic.stats().grew_index + ic.stats().grew_read, 0u);
}

TEST(ICache, SingleEpochSignalDoesNotMoveMemory) {
  // The consecutive-decision filter: one noisy epoch must not repartition.
  Fixture f;
  ICache ic = f.make();
  f.index_ghost_signal(0);
  ic.adapt();
  EXPECT_EQ(ic.stats().grew_index, 0u);
  // Silence next epoch: still nothing.
  ic.adapt();
  EXPECT_EQ(ic.stats().grew_index, 0u);
}

TEST(ICache, IndexGhostHitsShiftMemoryToIndex) {
  Fixture f;
  ICache ic = f.make();
  drive(ic, [&](int round) { f.index_ghost_signal(1000u * round); });
  EXPECT_GT(ic.index_fraction(), 0.5);
  EXPECT_EQ(ic.stats().grew_index, 1u);
  // Capacities quantise to whole entries/blocks; the sum stays within one
  // quantum of the budget and never exceeds it.
  EXPECT_LE(ic.index_bytes() + ic.read_bytes(), Fixture::kTotal);
  EXPECT_GE(ic.index_bytes() + ic.read_bytes(),
            Fixture::kTotal - kBlockSize - IndexCache::kEntryBytes);
}

TEST(ICache, ReadGhostHitsShiftMemoryToRead) {
  Fixture f;
  ICache ic = f.make();
  drive(ic, [&](int round) { f.read_ghost_signal(1000u * round); });
  EXPECT_LT(ic.index_fraction(), 0.5);
  EXPECT_EQ(ic.stats().grew_read, 1u);
}

TEST(ICache, FractionBoundsRespected) {
  Fixture f;
  ICacheConfig cfg = f.config();
  cfg.min_fraction = 0.25;
  cfg.max_fraction = 0.75;
  cfg.step_fraction = 0.3;
  ICache ic = f.make(cfg);
  for (int round = 0; round < 8; ++round) {
    f.index_ghost_signal(1000u * round);
    ic.adapt();
  }
  EXPECT_LE(ic.index_fraction(), 0.76);
  for (int round = 0; round < 10; ++round) {
    f.read_ghost_signal(100000 + 1000u * round);
    ic.adapt();
  }
  EXPECT_GE(ic.index_fraction(), 0.24);
}

TEST(ICache, SpilledIndexEntriesReadmittedOnGrow) {
  Fixture f;
  ICache ic = f.make();
  // Overfill the index cache so entries spill (eviction -> spill list).
  const std::size_t cap = f.index.capacity_bytes() / IndexCache::kEntryBytes;
  for (std::uint64_t i = 0; i < cap + 100; ++i) f.index.insert(fp(i), i);
  drive(ic, [&](int round) { f.index_ghost_signal(500000u + 1000u * round); });
  EXPECT_GT(ic.stats().index_entries_readmitted, 0u);
  // Re-admitted entries are queryable again.
  std::uint64_t found = 0;
  for (std::uint64_t i = 0; i < 100; ++i)
    if (f.index.peek(fp(i)) != nullptr) ++found;
  EXPECT_GT(found, 0u);
}

TEST(ICache, ReadmitReinsertsSpilledPayloadsMruFirst) {
  Fixture f;
  ICache ic = f.make();
  const std::size_t cap = f.index.capacity_bytes() / IndexCache::kEntryBytes;
  // The first 100 inserts are evicted, in order, onto the spill list.
  for (std::uint64_t i = 0; i < cap + 100; ++i) f.index.insert(fp(i), 1000 + i);
  std::vector<std::pair<Fingerprint, Pba>> spilled;
  f.index.collect_spilled(f.index.spill_size(), spilled);
  ASSERT_EQ(spilled.size(), 100u);
  EXPECT_EQ(spilled.front(), std::make_pair(fp(99), Pba{1099}));  // MRU
  // fp(99) becomes resident again with a newer PBA while its old payload
  // stays spilled; the insert evicts fp(100) onto the spill list's MRU.
  f.index.insert(fp(99), 7);
  f.index.collect_spilled(1, spilled);
  EXPECT_EQ(spilled.back(), std::make_pair(fp(100), Pba{1100}));
  drive(ic, [&](int round) { f.index_ghost_signal(500000u + 1000u * round); });
  ASSERT_EQ(ic.stats().grew_index, 1u);
  // One step grows the cache by more than 101 entries: every spilled
  // payload comes back with the PBA it was spilled with — fp(99) included.
  EXPECT_EQ(ic.stats().index_entries_readmitted, 101u);
  EXPECT_EQ(f.index.spill_size(), 0u);
  for (std::uint64_t i = 0; i <= 100; ++i) {
    const IndexEntry* e = f.index.peek(fp(i));
    ASSERT_NE(e, nullptr) << i;
    EXPECT_EQ(e->pba(), 1000 + i);
  }
}

TEST(ICache, GhostReadBlocksPrefetchedOnGrow) {
  Fixture f;
  ICache ic = f.make();
  const std::size_t cap = f.read.capacity_bytes() / kBlockSize;
  for (Pba p = 0; p < cap + 20; ++p) f.read.insert(p);
  drive(ic, [&](int round) { f.read_ghost_signal(100000 + 1000u * round); });
  EXPECT_GT(ic.stats().read_blocks_prefetched, 0u);
}

TEST(ICache, SwapTrafficCharged) {
  Fixture f;
  ICache ic = f.make();
  drive(ic, [&](int round) { f.read_ghost_signal(1000u * round); });
  // Grow read: spills index metadata (writes) + prefetches blocks (reads).
  EXPECT_FALSE(f.swaps.empty());
  bool has_write = false;
  for (const auto& [t, blocks] : f.swaps) {
    EXPECT_GT(blocks, 0u);
    if (t == OpType::kWrite) has_write = true;
  }
  EXPECT_TRUE(has_write);
}

TEST(ICache, MaybeAdaptHonoursInterval) {
  Fixture f;
  ICache ic = f.make();
  ic.maybe_adapt(ms(50));  // before the first interval boundary
  EXPECT_EQ(ic.stats().adaptations, 0u);
  ic.maybe_adapt(ms(150));
  EXPECT_EQ(ic.stats().adaptations, 1u);
  ic.maybe_adapt(ms(160));  // within the new interval
  EXPECT_EQ(ic.stats().adaptations, 1u);
  ic.maybe_adapt(ms(300));
  EXPECT_EQ(ic.stats().adaptations, 2u);
}

TEST(ICache, EpochResetsAfterAdaptation) {
  Fixture f;
  ICache ic = f.make();
  drive(ic, [&](int round) { f.index_ghost_signal(1000u * round); });
  const double frac_after = ic.index_fraction();
  ic.adapt();  // no new ghost hits this epoch: hold
  ic.adapt();
  EXPECT_DOUBLE_EQ(ic.index_fraction(), frac_after);
}

TEST(ICache, DeepReadGhostHitsDoNotGrowRead) {
  // Hits far from the eviction boundary (age > near threshold) must not
  // argue for read-cache growth.
  Fixture f;
  ICacheConfig cfg = f.config();
  ICache ic = f.make(cfg);
  // near threshold = 4 * step(6.4K->1 block... compute: 0.1*256K*4/4096=25.
  // Remember 200 pbas, then probe only the OLDEST ones: age ~200 > 25.
  // Ghost capacity is 64 blocks; near threshold = 4*step = 25 evictions.
  // Fill the ghost, then probe only the oldest entries (age ~64 > 25).
  drive(ic, [&](int round) {
    const Pba base = 10000 + 1000u * static_cast<Pba>(round);
    for (Pba p = 0; p < 64; ++p) f.read.ghost_remember(base + p);
    for (Pba p = 0; p < 10; ++p) EXPECT_TRUE(f.read.ghost_probe(base + p));
  });
  EXPECT_EQ(ic.stats().grew_read, 0u);
}

}  // namespace
}  // namespace pod
