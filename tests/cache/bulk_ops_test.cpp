// The request-scoped bulk index insert (IndexCache::insert_batch) must be
// observationally identical to the scalar insert loop it replaces: same
// resident contents and recency order, same eviction sequence into the
// ghost and spill lists. The test drives a bulk cache and a scalar cache
// through identical operation streams — evictions landing mid-batch and
// duplicate keys within one batch included — and requires bit-for-bit
// agreement.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "cache/index_cache.hpp"
#include "common/rng.hpp"
#include "hash/fingerprint.hpp"

namespace pod {
namespace {

Fingerprint fp_of(std::uint64_t i) { return Fingerprint::of_prefix(i); }

TEST(BulkOps, IndexCacheInsertBatchMatchesScalar) {
  // Tight cache (32 entries) so insert batches continually evict into the
  // ghost and spill lists; the spill list (sized to hold every key, so its
  // MRU-first order is the eviction order) and the ghost state must match
  // the scalar insert loop exactly.
  const std::uint64_t cap = 32 * IndexCache::kEntryBytes;
  IndexCache scalar(cap), bulk(cap);
  for (IndexCache* c : {&scalar, &bulk}) {
    c->enable_ghost(32);
    c->enable_spill(256);
  }

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
        EXPECT_EQ(a->pba(), b->pba());
        EXPECT_EQ(a->count(), b->count());
      }
      if (a == nullptr) {
        EXPECT_EQ(scalar.ghost_probe(fp), bulk.ghost_probe(fp));
      }
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
