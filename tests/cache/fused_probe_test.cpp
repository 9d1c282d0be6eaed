// The fused single-pass probe paths must be observationally identical to
// the scalar per-chunk loops they replace: IndexCache::lookup_fused ≡
// lookup-then-ghost_probe per chunk, the tagged sequential API ≡ its
// untagged twins (lookup_tagged ≡ lookup-then-ghost_probe; same
// promotions, same ghost consumption, same mid-request insert
// visibility), and ReadCache's tagged loop ≡ the
// per-block original. The fused forms may only differ in memory-latency
// behaviour (one hash per key, span-wide prefetching), never in results or
// cache state.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/index_cache.hpp"
#include "cache/read_cache.hpp"
#include "common/rng.hpp"
#include "hash/fingerprint.hpp"

namespace pod {
namespace {

Fingerprint fp(std::uint64_t id) { return Fingerprint::of_content_id(id); }

// Scalar reference for lookup_fused: the per-chunk engine probe loop
// (lookup each chunk in order; ghost-probe immediately on each miss — the
// fused pass keeps this interleaving).
void scalar_probe(IndexCache& c, const std::vector<Fingerprint>& fps,
                  std::vector<const IndexEntry*>& out) {
  out.assign(fps.size(), nullptr);
  for (std::size_t i = 0; i < fps.size(); ++i) {
    out[i] = c.lookup(fps[i]);
    if (out[i] == nullptr) (void)c.ghost_probe(fps[i]);
  }
}

void expect_same_state(IndexCache& a, IndexCache& b, std::uint64_t key_range) {
  EXPECT_EQ(a.hits(), b.hits());
  EXPECT_EQ(a.misses(), b.misses());
  EXPECT_EQ(a.ghost_hits(), b.ghost_hits());
  EXPECT_EQ(a.ghost_near_hits(), b.ghost_near_hits());
  EXPECT_EQ(a.size_entries(), b.size_entries());
  EXPECT_EQ(a.ghost_size(), b.ghost_size());
  for (std::uint64_t k = 0; k < key_range; ++k) {
    const IndexEntry* ea = a.peek(fp(k));
    const IndexEntry* eb = b.peek(fp(k));
    ASSERT_EQ(ea == nullptr, eb == nullptr) << k;
    if (ea != nullptr) {
      EXPECT_EQ(ea->pba(), eb->pba());
      EXPECT_EQ(ea->count(), eb->count());
    }
    ASSERT_EQ(a.ghost_contains(fp(k)), b.ghost_contains(fp(k))) << k;
  }
}

// Identical insert pressure must then evict in the same order — the LRU
// lists (including the fused pass's promotions) agree. Each cache gets a
// spill list sized to hold all `n` evictions, so its MRU-first contents are
// the eviction sequence.
void expect_same_eviction_order(IndexCache& a, IndexCache& b,
                                std::uint64_t fresh_base, std::size_t n) {
  a.enable_spill(n);
  b.enable_spill(n);
  for (std::uint64_t k = 0; k < n; ++k) {
    a.insert(fp(fresh_base + k), fresh_base + k);
    b.insert(fp(fresh_base + k), fresh_base + k);
  }
  std::vector<std::pair<Fingerprint, Pba>> ev_a, ev_b;
  a.collect_spilled(n, ev_a);
  b.collect_spilled(n, ev_b);
  EXPECT_EQ(ev_a.size(), n);
  EXPECT_EQ(ev_a, ev_b);
}

TEST(IndexCacheFused, MatchesScalarWithEvictedKeysInGhost) {
  constexpr std::uint64_t kEntries = 8;
  IndexCache fused(kEntries * IndexCache::kEntryBytes);
  fused.enable_ghost(kEntries);
  IndexCache scalar(kEntries * IndexCache::kEntryBytes);
  scalar.enable_ghost(kEntries);
  for (std::uint64_t k = 0; k < 16; ++k) {
    fused.insert(fp(k), 100 + k);
    scalar.insert(fp(k), 100 + k);
  }

  // Mixes resident hits (8..15), ghost hits (0..7), and cold misses.
  std::vector<Fingerprint> request;
  for (std::uint64_t k = 0; k < 24; ++k) request.push_back(fp(k));

  std::vector<const IndexEntry*> out_f(request.size());
  fused.lookup_fused(request, out_f.data());
  std::vector<const IndexEntry*> out_s;
  scalar_probe(scalar, request, out_s);

  for (std::size_t i = 0; i < request.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(out_f[i] == nullptr, out_s[i] == nullptr);
    if (out_f[i] != nullptr) {
      EXPECT_EQ(out_f[i]->pba(), out_s[i]->pba());
      EXPECT_EQ(out_f[i]->count(), out_s[i]->count());
    }
  }
  expect_same_state(fused, scalar, 24);
  expect_same_eviction_order(fused, scalar, 1000, kEntries);
  EXPECT_EQ(fused.batch_probes(), request.size());
}

TEST(IndexCacheFused, DuplicateFingerprintsConsumeGhostOnce) {
  // Duplicate misses in one span: the first consumes the ghost entry, the
  // second finds it gone — exactly the scalar interleaving. (This is where
  // a naive "batch the ghost probes too" fusion would diverge.)
  IndexCache fused(8 * IndexCache::kEntryBytes);
  fused.enable_ghost(8);
  IndexCache scalar(8 * IndexCache::kEntryBytes);
  scalar.enable_ghost(8);
  for (IndexCache* c : {&fused, &scalar}) {
    c->insert(fp(2), 22);
    c->insert(fp(1), 11);
    for (std::uint64_t k = 10; k < 17; ++k) c->insert(fp(k), k);
  }
  ASSERT_EQ(fused.peek(fp(2)), nullptr);   // evicted → ghost
  ASSERT_NE(fused.peek(fp(1)), nullptr);   // resident

  const std::vector<Fingerprint> request = {fp(1), fp(2), fp(1), fp(2), fp(3)};
  std::vector<const IndexEntry*> out_f(request.size());
  fused.lookup_fused(request, out_f.data());
  std::vector<const IndexEntry*> out_s;
  scalar_probe(scalar, request, out_s);

  for (std::size_t i = 0; i < request.size(); ++i)
    ASSERT_EQ(out_f[i] == nullptr, out_s[i] == nullptr) << i;
  expect_same_state(fused, scalar, 20);
  EXPECT_EQ(fused.peek(fp(1))->count(), 2u);
  EXPECT_EQ(fused.ghost_hits(), 1u);  // fp(2)'s entry consumed exactly once
}

TEST(IndexCacheFused, LongRandomSequenceMatchesScalar) {
  constexpr std::uint64_t kEntries = 32;
  IndexCache fused(kEntries * IndexCache::kEntryBytes);
  fused.enable_ghost(kEntries);
  IndexCache scalar(kEntries * IndexCache::kEntryBytes);
  scalar.enable_ghost(kEntries);
  Rng rng(42);
  for (int round = 0; round < 60; ++round) {
    const std::uint64_t k = rng.next() % 128;
    fused.insert(fp(k), k);
    scalar.insert(fp(k), k);

    std::vector<Fingerprint> request;
    const std::size_t len = 1 + rng.next() % 40;
    for (std::size_t i = 0; i < len; ++i)
      request.push_back(fp(rng.next() % 128));

    std::vector<const IndexEntry*> out_f(request.size());
    fused.lookup_fused(request, out_f.data());
    std::vector<const IndexEntry*> out_s;
    scalar_probe(scalar, request, out_s);
    for (std::size_t i = 0; i < request.size(); ++i)
      ASSERT_EQ(out_f[i] == nullptr, out_s[i] == nullptr);
  }
  expect_same_state(fused, scalar, 128);
  expect_same_eviction_order(fused, scalar, 2000, kEntries);
}

TEST(IndexCacheTagged, SequentialTaggedApiMatchesUntagged) {
  // The Full-Dedupe shape: lookups interleaved with mid-request inserts
  // (promotions later duplicates must see). Tags precomputed up front stay
  // valid across those inserts.
  constexpr std::uint64_t kEntries = 16;
  IndexCache tagged(kEntries * IndexCache::kEntryBytes);
  tagged.enable_ghost(kEntries);
  IndexCache plain(kEntries * IndexCache::kEntryBytes);
  plain.enable_ghost(kEntries);
  for (std::uint64_t k = 0; k < 24; ++k) {
    tagged.insert(fp(k), k);
    plain.insert(fp(k), k);
  }

  Rng rng(7);
  for (int round = 0; round < 40; ++round) {
    std::vector<Fingerprint> request;
    const std::size_t len = 1 + rng.next() % 24;
    for (std::size_t i = 0; i < len; ++i)
      request.push_back(fp(rng.next() % 64));

    std::vector<IndexCache::Tag> tags(len);
    for (std::size_t i = 0; i < len; ++i) {
      tags[i] = tagged.hash_tag(request[i]);
      tagged.prefetch_tag(tags[i]);
    }
    for (std::size_t i = 0; i < len; ++i) {
      const IndexEntry* et = tagged.lookup_tagged(tags[i], request[i]);
      const IndexEntry* ep = plain.lookup(request[i]);
      ASSERT_EQ(et == nullptr, ep == nullptr) << i;
      if (et == nullptr) {
        // The tagged lookup consumed any ghost entry in its own probe.
        (void)plain.ghost_probe(request[i]);
        ASSERT_EQ(tagged.ghost_hits(), plain.ghost_hits()) << i;
        // "Promote from on-disk" on every third miss: the insert must be
        // visible to later duplicates in the same request.
        if (i % 3 == 0) {
          tagged.insert_tagged(tags[i], request[i], 500 + i);
          plain.insert(request[i], 500 + i);
        }
      }
    }
  }
  expect_same_state(tagged, plain, 64);
  expect_same_eviction_order(tagged, plain, 3000, kEntries);
}

TEST(ReadCacheTagged, TaggedLoopMatchesPerBlockOriginal) {
  // The fused read-plan loop: one tagged probe answers hit, ghost hit or
  // miss, then a miss inserts, with tags precomputed for the whole request.
  // Inserts and ghost consumption inside the loop must behave exactly like
  // the untagged per-block path (lookup → miss → ghost probe → insert).
  ReadCache tagged(16 * kBlockSize);
  tagged.enable_ghost(32);
  ReadCache plain(16 * kBlockSize);
  plain.enable_ghost(32);
  Rng rng(99);
  for (int round = 0; round < 80; ++round) {
    std::vector<Pba> req;
    const std::size_t len = 1 + rng.next() % 16;
    for (std::size_t i = 0; i < len; ++i) req.push_back(rng.next() % 64);

    std::vector<ReadCache::Tag> tags(len);
    for (std::size_t i = 0; i < len; ++i) {
      tags[i] = tagged.hash_tag(req[i]);
      tagged.prefetch_tag(tags[i]);
    }
    for (std::size_t i = 0; i < len; ++i) {
      const bool hit_t = tagged.lookup_tagged(tags[i], req[i]);
      const bool hit_p = plain.lookup(req[i]);
      ASSERT_EQ(hit_t, hit_p) << "round " << round << " block " << i;
      if (!hit_t) {
        // The tagged lookup consumed any ghost entry in its own probe.
        (void)plain.ghost_probe(req[i]);
        ASSERT_EQ(tagged.ghost_hits(), plain.ghost_hits()) << i;
        ASSERT_EQ(tagged.ghost_near_hits(), plain.ghost_near_hits()) << i;
        tagged.insert_tagged(tags[i], req[i]);
        plain.insert(req[i]);
      }
    }
  }
  EXPECT_EQ(tagged.hits(), plain.hits());
  EXPECT_EQ(tagged.misses(), plain.misses());
  EXPECT_EQ(tagged.ghost_hits(), plain.ghost_hits());
  EXPECT_EQ(tagged.size_blocks(), plain.size_blocks());
}

}  // namespace
}  // namespace pod
