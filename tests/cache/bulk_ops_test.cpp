// Request-scoped bulk mutation ops (put_batch / remember_batch /
// insert_batch) must be observationally identical to the scalar loops they
// replace: same final contents, same recency order, same eviction
// sequence, same ghost-list state. These tests drive a bulk map
// and a scalar map through identical operation streams — including the
// edge cases that stress the deferred machinery (evictions landing mid-
// batch, duplicate keys within one batch, batches straddling the index
// growth boundary) — and require bit-for-bit agreement.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "cache/flat_lru_map.hpp"
#include "cache/ghost_cache.hpp"
#include "cache/index_cache.hpp"
#include "common/rng.hpp"
#include "hash/fingerprint.hpp"

namespace pod {
namespace {

using Map = FlatLruMap<std::uint64_t, std::uint64_t>;

/// MRU-first snapshot of contents + recency order.
std::vector<std::pair<std::uint64_t, std::uint64_t>> snapshot(const Map& m) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  m.for_each([&](const std::uint64_t& k, const std::uint64_t& v) {
    out.emplace_back(k, v);
  });
  return out;
}

/// Applies one batch to `scalar` via the per-key API and to `bulk` via
/// put_batch, then requires identical state and eviction sequences.
void check_batch(Map& scalar, Map& bulk,
                 const std::vector<std::uint64_t>& keys,
                 const std::vector<std::uint64_t>& values) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ev_scalar, ev_bulk;
  for (std::size_t i = 0; i < keys.size(); ++i)
    scalar.put(keys[i], values[i],
               [&](const std::uint64_t& k, std::uint64_t&& v) {
                 ev_scalar.emplace_back(k, v);
               });
  bulk.put_batch(keys.data(), values.data(), keys.size(),
                 [&](const std::uint64_t& k, std::uint64_t&& v) {
                   ev_bulk.emplace_back(k, v);
                 });
  EXPECT_EQ(ev_scalar, ev_bulk);
  EXPECT_EQ(snapshot(scalar), snapshot(bulk));
}

TEST(BulkOps, PutBatchMidBatchEvictionMatchesScalar) {
  // Capacity 3, batch of 8: five evictions must fire *during* the batch,
  // first draining the pre-batch LRU tail, then batch-internal entries.
  Map scalar(3), bulk(3);
  for (std::uint64_t k = 100; k < 103; ++k) {
    scalar.put(k, k);
    bulk.put(k, k);
  }
  std::vector<std::uint64_t> keys, values;
  for (std::uint64_t k = 0; k < 8; ++k) {
    keys.push_back(k);
    values.push_back(k * 10);
  }
  check_batch(scalar, bulk, keys, values);
  EXPECT_EQ(bulk.size(), 3u);
}

TEST(BulkOps, PutBatchDuplicateKeysInBatch) {
  // The same key appears three times in one batch: later occurrences must
  // overwrite (not duplicate) and end up most-recent exactly once.
  Map scalar(4), bulk(4);
  const std::vector<std::uint64_t> keys = {7, 8, 7, 9, 7, 8};
  const std::vector<std::uint64_t> values = {1, 2, 3, 4, 5, 6};
  check_batch(scalar, bulk, keys, values);
  EXPECT_EQ(*bulk.get(7), 5u);
  EXPECT_EQ(*bulk.get(8), 6u);
}

TEST(BulkOps, PutBatchDuplicatesUnderEvictionPressure) {
  // Duplicates + capacity 2: an entry can be inserted, promoted by its
  // duplicate, evicted, and re-inserted within one batch.
  Map scalar(2), bulk(2);
  const std::vector<std::uint64_t> keys = {1, 2, 1, 3, 4, 1, 2, 1};
  const std::vector<std::uint64_t> values = {10, 20, 11, 30, 40, 12, 21, 13};
  check_batch(scalar, bulk, keys, values);
}

TEST(BulkOps, PutBatchAcrossReserveBoundary) {
  // A batch that forces the index table to grow mid-stream (reserve runs
  // up front in put_batch; scalar rebuilds when it must). Final state must
  // still agree.
  Map scalar(1024), bulk(1024);
  for (std::uint64_t k = 0; k < 13; ++k) {
    scalar.put(k, k);
    bulk.put(k, k);
  }
  std::vector<std::uint64_t> keys, values;
  for (std::uint64_t k = 13; k < 200; ++k) {
    keys.push_back(k);
    values.push_back(k + 1000);
  }
  check_batch(scalar, bulk, keys, values);
}

TEST(BulkOps, PutBatchZeroCapacityForwardsEverything) {
  Map bulk(0);
  const std::vector<std::uint64_t> keys = {1, 2, 3};
  const std::vector<std::uint64_t> values = {10, 20, 30};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> evicted;
  bulk.put_batch(keys.data(), values.data(), keys.size(),
                 [&](const std::uint64_t& k, std::uint64_t&& v) {
                   evicted.emplace_back(k, v);
                 });
  EXPECT_EQ(evicted.size(), 3u);
  EXPECT_EQ(bulk.size(), 0u);
}

TEST(BulkOps, RandomizedPutBatchEquivalence) {
  // 200 batches of random size over a small key universe at tight
  // capacity: every batch cross-checked against the scalar loop.
  Rng rng(42);
  Map scalar(64), bulk(64);
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform(0, 31));
    std::vector<std::uint64_t> keys, values;
    for (std::size_t i = 0; i < n; ++i) {
      keys.push_back(rng.uniform(0, 255));
      values.push_back(rng.next());
    }
    check_batch(scalar, bulk, keys, values);
  }
}

TEST(BulkOps, GhostRememberBatchMatchesScalar) {
  GhostCache<std::uint64_t> scalar(64 * 16), bulk(64 * 16);
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform(0, 15));
    std::vector<std::uint64_t> keys;
    for (std::size_t i = 0; i < n; ++i) keys.push_back(rng.uniform(0, 511));
    for (const std::uint64_t k : keys) scalar.remember(k);
    bulk.remember_batch(keys.data(), keys.size());
    // Probe a few keys on both — consuming hits must agree (sequence
    // numbers advanced identically).
    for (int p = 0; p < 4; ++p) {
      const std::uint64_t k = rng.uniform(0, 511);
      EXPECT_EQ(scalar.probe_and_consume(k), bulk.probe_and_consume(k));
    }
  }
  EXPECT_EQ(scalar.hits(), bulk.hits());
}

Fingerprint fp_of(std::uint64_t i) { return Fingerprint::of_prefix(i); }

TEST(BulkOps, IndexCacheInsertBatchMatchesScalar) {
  // Tight cache (32 entries) so insert batches continually evict into the
  // ghost and spill lists; the spill list (sized to hold every key, so its
  // MRU-first order is the eviction order) and the ghost state must match
  // the scalar insert loop exactly.
  const std::uint64_t cap = 32 * IndexCache::kEntryBytes;
  const std::uint64_t ghost_cap = 64 * 16;
  IndexCache scalar(cap, ghost_cap), bulk(cap, ghost_cap);
  scalar.enable_spill(256);
  bulk.enable_spill(256);

  Rng rng(99);
  for (int round = 0; round < 100; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform(0, 15));
    std::vector<Fingerprint> fps;
    std::vector<Pba> pbas;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = rng.uniform(0, 255);
      fps.push_back(fp_of(k));
      pbas.push_back(k * 8);
    }
    for (std::size_t i = 0; i < n; ++i) scalar.insert(fps[i], pbas[i]);
    bulk.insert_batch(fps.data(), pbas.data(), n);

    // Interleave lookups so Count/promotion state also stays in lockstep.
    for (int p = 0; p < 4; ++p) {
      const Fingerprint fp = fp_of(rng.uniform(0, 255));
      const IndexEntry* a = scalar.lookup(fp);
      const IndexEntry* b = bulk.lookup(fp);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a != nullptr) {
        EXPECT_EQ(a->pba, b->pba);
        EXPECT_EQ(a->count, b->count);
      }
      if (a == nullptr)
        EXPECT_EQ(scalar.ghost_probe(fp), bulk.ghost_probe(fp));
    }
  }
  std::vector<std::pair<Fingerprint, Pba>> spill_scalar, spill_bulk;
  scalar.collect_spilled(256, spill_scalar);
  bulk.collect_spilled(256, spill_bulk);
  EXPECT_FALSE(spill_scalar.empty());
  EXPECT_EQ(spill_scalar, spill_bulk);
  EXPECT_EQ(scalar.ghost_size(), bulk.ghost_size());
  EXPECT_EQ(scalar.size_entries(), bulk.size_entries());
  EXPECT_EQ(scalar.ghost_hits(), bulk.ghost_hits());
  EXPECT_EQ(scalar.hits(), bulk.hits());
  EXPECT_EQ(scalar.misses(), bulk.misses());
}

}  // namespace
}  // namespace pod
