// Seeded randomized differential test: IndexCache (one FingerprintTable
// holding the resident, ghost and spill lists) against the reference model
// of three independent LRU maps (index_cache_reference.hpp).
//
// Every operation the engines and iCache perform — scalar, fused and tagged
// lookups, ghost probes, single and batched inserts, invalidations,
// resizes and swap-in re-admission — runs against both at small
// capacities, where keys are constantly on several lists at once. After
// every operation the hit/miss/ghost/near counters and all three lists in
// MRU order must agree. The iCache variants also replay ICache's own
// step (shrink and spill, or grow and re-admit the spilled MRU), and the
// largest one holds many more keys than the constructor reserved, so the
// slot and side arrays grow and freed slots are reused.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cache/index_cache.hpp"
#include "common/rng.hpp"
#include "index_cache_reference.hpp"

namespace pod {
namespace {

using testing::IndexCacheState;
using testing::ReferenceIndexCache;
using testing::state_of;

constexpr std::uint64_t kE = IndexCache::kEntryBytes;

Fingerprint fp(std::uint64_t id) { return Fingerprint::of_content_id(id); }

void expect_same(const IndexCache& c, const ReferenceIndexCache& ref,
                 int seed, int op) {
  const IndexCacheState got = state_of(c);
  const IndexCacheState want = ref.state();
  ASSERT_EQ(got.hits, want.hits) << "seed " << seed << " op " << op;
  ASSERT_EQ(got.misses, want.misses) << "seed " << seed << " op " << op;
  ASSERT_EQ(got.ghost_hits, want.ghost_hits) << "seed " << seed << " op " << op;
  ASSERT_EQ(got.ghost_near_hits, want.ghost_near_hits)
      << "seed " << seed << " op " << op;
  ASSERT_TRUE(got.resident == want.resident) << "seed " << seed << " op " << op;
  ASSERT_TRUE(got.ghost == want.ghost) << "seed " << seed << " op " << op;
  ASSERT_TRUE(got.spill == want.spill) << "seed " << seed << " op " << op;
  ASSERT_EQ(c.size_entries(), want.resident.size());
  ASSERT_EQ(c.ghost_size(), want.ghost.size());
  ASSERT_EQ(c.spill_size(), want.spill.size());
}

void expect_same_entry(const IndexEntry* a, const testing::RefEntry* b) {
  ASSERT_EQ(a == nullptr, b == nullptr);
  if (a != nullptr) {
    EXPECT_EQ(a->pba(), b->pba);
    EXPECT_EQ(a->count(), b->count);
  }
}

/// Shape of one seeded run. The defaults are the small-capacity runs; the
/// iCache runs add ICache-style resize steps, and can scale up the spill
/// list and key universe past what the constructor reserves.
struct RunShape {
  bool spill = false;
  bool icache_steps = false;
  std::uint64_t max_spill = 18;
  std::uint64_t max_keys = 40;
  std::uint64_t max_resident = 12;
  int ops = 1500;
};

/// Statistics of one run, for assertions about the table's growth.
struct RunStats {
  std::size_t reserved = 0;    // keys the constructor sized the table for
  std::size_t slots_used = 0;  // slots the table handed out
  std::size_t max_keys = 0;    // most keys on the table after an op
  std::size_t inserts = 0;     // insert and readmit calls
};

void run_seed(int seed, const RunShape& shape, RunStats* out = nullptr) {
  Rng rng(0xD1FFu + static_cast<std::uint64_t>(seed));
  const std::uint64_t res = rng.uniform(0, 10);
  const std::uint64_t ghost = rng.uniform(0, 14);
  const std::uint64_t spill_cap =
      shape.spill ? rng.uniform(0, shape.max_spill) : 0;
  const std::uint64_t keys = 8 + rng.uniform(0, shape.max_keys);
  RunStats stats;
  stats.reserved = res + ghost + 1;
  IndexCache c(res * kE);
  c.enable_ghost(ghost);
  ReferenceIndexCache ref(res * kE, ghost * kE);
  const std::uint64_t near = rng.uniform(0, 6);
  c.set_ghost_near_threshold(near);
  ref.set_ghost_near_threshold(near);
  if (shape.spill) {
    c.enable_spill(spill_cap);
    ref.enable_spill(spill_cap);
  }
  const auto key = [&] { return fp(rng.uniform(0, keys - 1)); };
  const auto pba = [&] { return static_cast<Pba>(rng.uniform(0, 7)); };
  std::uint64_t resident_cap = res;

  for (int op = 0; op < shape.ops; ++op) {
    switch (rng.uniform(0, shape.icache_steps ? 13 : 12)) {
      case 0:
      case 1: {  // scalar lookup (+ ghost probe on miss, like the engines)
        const Fingerprint k = key();
        const IndexEntry* a = c.lookup(k);
        const testing::RefEntry* b = ref.lookup(k);
        expect_same_entry(a, b);
        if (a == nullptr && rng.uniform(0, 1) == 0) {
          ASSERT_EQ(c.ghost_probe(k), ref.ghost_probe(k));
        }
        break;
      }
      case 2: {  // fused span vs the scalar per-chunk loop
        std::vector<Fingerprint> span(rng.uniform(0, 12));
        for (Fingerprint& f : span) f = key();
        std::vector<const IndexEntry*> out(span.size());
        c.lookup_fused(span, out.data());
        for (std::size_t i = 0; i < span.size(); ++i) {
          const testing::RefEntry* b = ref.lookup(span[i]);
          if (b == nullptr) ref.ghost_probe(span[i]);
          ASSERT_EQ(out[i] == nullptr, b == nullptr) << i;
          if (b != nullptr) {
            EXPECT_EQ(out[i]->pba(), b->pba);
          }
        }
        break;
      }
      case 3: {  // tagged lookup, then a tagged promotion on some misses
        const Fingerprint k = key();
        const IndexCache::Tag tag = c.hash_tag(k);
        c.prefetch_tag(tag);
        const IndexEntry* a = c.lookup_tagged(tag, k);
        const testing::RefEntry* b = ref.lookup(k);
        if (b == nullptr) ref.ghost_probe(k);
        expect_same_entry(a, b);
        if (a == nullptr && rng.uniform(0, 1) == 0) {
          const Pba p = pba();
          c.insert_tagged(tag, k, p);
          ref.insert(k, p);
        }
        break;
      }
      case 4: {
        const Fingerprint k = key();
        ASSERT_EQ(c.ghost_probe(k), ref.ghost_probe(k));
        break;
      }
      case 5:
      case 6: {
        const Fingerprint k = key();
        const Pba p = pba();
        c.insert(k, p);
        ref.insert(k, p);
        ++stats.inserts;
        break;
      }
      case 7: {
        const std::size_t n = rng.uniform(0, 10);
        std::vector<Fingerprint> fps(n);
        std::vector<Pba> pbas(n);
        for (std::size_t i = 0; i < n; ++i) {
          fps[i] = key();
          pbas[i] = pba();
        }
        c.insert_batch(fps.data(), pbas.data(), n);
        for (std::size_t i = 0; i < n; ++i) ref.insert(fps[i], pbas[i]);
        stats.inserts += n;
        break;
      }
      case 8:
      case 9: {
        const Fingerprint k = key();
        const Pba p = pba();
        EXPECT_FALSE(c.invalidate_if(k, p));  // nothing here is on disk
        ref.invalidate_if(k, p);
        break;
      }
      case 10: {
        resident_cap = rng.uniform(0, shape.max_resident);
        c.resize(resident_cap * kE);
        ref.resize(resident_cap * kE);
        break;
      }
      case 11: {  // iCache swap-in
        const std::size_t want = rng.uniform(0, 6);
        std::vector<std::pair<Fingerprint, Pba>> got;
        c.collect_spilled(want, got);
        const auto expected = ref.readmit(want);
        ASSERT_TRUE(got == expected) << "op " << op;
        for (const auto& [f, p] : got) c.readmit(f, p);
        stats.inserts += got.size();
        break;
      }
      case 12: {
        const Fingerprint k = key();
        c.ghost_remember(k);
        ref.ghost_remember(k);
        break;
      }
      case 13: {  // one ICache step (ICache::apply_target)
        const std::uint64_t target = rng.uniform(0, shape.max_resident);
        c.resize(target * kE);
        ref.resize(target * kE);
        if (target > resident_cap) {
          // Grow: re-admit up to the new room, MRU-first, the way
          // ICache::readmit_index_entries collects before it re-inserts.
          const std::size_t budget = target - resident_cap;
          std::vector<std::pair<Fingerprint, Pba>> got;
          c.collect_spilled(std::min(budget, c.spill_size()), got);
          const auto expected = ref.readmit(budget);
          ASSERT_TRUE(got == expected) << "op " << op;
          for (const auto& [f, p] : got) c.readmit(f, p);
          stats.inserts += got.size();
        }
        resident_cap = target;
        break;
      }
    }
    expect_same(c, ref, seed, op);
    if (::testing::Test::HasFatalFailure()) return;
    stats.max_keys = std::max(stats.max_keys, c.table().keys());
    const Fingerprint k = key();
    expect_same_entry(c.peek(k), ref.peek(k));
  }
  stats.slots_used = c.table().slots_used();
  if (out != nullptr) *out = stats;
}

TEST(IndexCacheDiff, MatchesThreeMapModelWithoutSpill) {
  for (int seed = 0; seed < 40; ++seed) {
    run_seed(seed, RunShape{});
    if (HasFatalFailure()) return;
  }
}

TEST(IndexCacheDiff, MatchesThreeMapModelWithSpill) {
  RunShape shape;
  shape.spill = true;
  for (int seed = 0; seed < 60; ++seed) {
    run_seed(seed, shape);
    if (HasFatalFailure()) return;
  }
}

TEST(IndexCacheDiff, MatchesThreeMapModelThroughICacheSteps) {
  RunShape shape;
  shape.spill = true;
  shape.icache_steps = true;
  for (int seed = 0; seed < 60; ++seed) {
    run_seed(100 + seed, shape);
    if (HasFatalFailure()) return;
  }
}

TEST(IndexCacheDiff, GrowsPastReserveAndReusesSlots) {
  // A spill list and a resident list far larger than the constructor's
  // reserve (resident + ghost + 1 keys): the slot, ghost and spill arrays
  // grow mid-run and the probe index rehashes, while the
  // model keeps agreeing after every operation. Slots are reused: the
  // table hands out no more slots than it ever held keys (+1 for an
  // insert's key before its eviction), over many more inserts than that.
  RunShape shape;
  shape.spill = true;
  shape.icache_steps = true;
  shape.max_spill = 600;
  shape.max_keys = 1200;
  shape.max_resident = 300;
  shape.ops = 6000;
  bool grew = false;
  for (int seed = 0; seed < 8; ++seed) {
    RunStats st;
    run_seed(200 + seed, shape, &st);
    if (HasFatalFailure()) return;
    EXPECT_LE(st.slots_used, st.max_keys + 1) << "seed " << seed;
    EXPECT_GT(st.inserts, 4 * st.slots_used) << "seed " << seed;
    grew = grew || st.slots_used > 2 * st.reserved;
  }
  EXPECT_TRUE(grew);
}

TEST(IndexCacheDiff, TableHoldsEachKeyOnce) {
  // A key on several lists occupies one slot: the table's key count is the
  // size of the union of the three lists.
  IndexCache c(2 * kE);
  c.enable_ghost(4);
  c.enable_spill(4);
  for (std::uint64_t k = 0; k < 4; ++k) c.insert(fp(k), k);
  // fp(0), fp(1) evicted: each on ghost and spill; fp(2), fp(3) resident.
  EXPECT_EQ(c.table().keys(), 4u);
  c.insert(fp(0), 9);  // resident again; still on ghost and spill
  EXPECT_EQ(c.table().keys(), 4u);
  EXPECT_TRUE(c.ghost_contains(fp(0)));
  std::vector<std::pair<Fingerprint, Pba>> spilled;
  c.collect_spilled(8, spilled);
  // The spilled payload keeps its own PBA while the resident entry moved on.
  ASSERT_EQ(spilled.size(), 3u);  // fp(2) was evicted by the re-insert
  EXPECT_EQ(spilled[0].first, fp(2));
  EXPECT_EQ(spilled[2], std::make_pair(fp(0), Pba{0}));
  EXPECT_EQ(c.peek(fp(0))->pba(), 9u);
}

}  // namespace
}  // namespace pod
