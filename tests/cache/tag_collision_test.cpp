// Adversarial tag-collision storms for the group-probing tables.
//
// The Swiss-table ctrl arrays compare 7-bit tags 16 lanes at a time; a
// probe only touches a slot when its tag matches. These tests construct key
// sets that all share the SAME tag AND the SAME home bucket, so every probe
// walks a maximal candidate chain: multiple full groups of false-positive
// lanes, wraparound on the ring, and backward-shift deletes that slide
// colliding entries across group boundaries. Everything is cross-checked
// against ground truth (a mirror of expected contents) and, for the fused
// path, a scalar twin.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cache/index_cache.hpp"
#include "cache/lru_table.hpp"
#include "common/rng.hpp"
#include "hash/fingerprint.hpp"

namespace pod {
namespace {

// Brute-forces `n` uint64 keys whose scrambled tags agree in the ctrl byte
// (tag >> 25) and the low `home_bits` bits — i.e. identical 7-bit group
// tag and identical home bucket for any table of <= 2^home_bits buckets.
// Uses the table's own public hash_tag so the test tracks the real tag
// derivation.
std::vector<std::uint64_t> colliding_keys(std::size_t n, int home_bits) {
  const LruTable<std::uint64_t> probe(1);
  const std::uint32_t want = probe.hash_tag(0x1234567);
  const std::uint32_t home_mask = (1u << home_bits) - 1;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 1; keys.size() < n; ++k) {
    const std::uint32_t tag = probe.hash_tag(k);
    if ((tag >> 25) == (want >> 25) && (tag & home_mask) == (want & home_mask))
      keys.push_back(k);
  }
  return keys;
}

TEST(TagCollisionStorm, LruTableOnDiskPutDropChurn) {
  // 96 same-tag same-home keys carrying the list-less on-disk membership,
  // in a table that grows to 128 buckets: every probe scans 6+ full groups
  // of tag-positive lanes. A small resident list promotes some of them, as
  // Full-Dedupe's on-disk hits do, and evicts them again — which must leave
  // every on-disk key in the table at its PBA.
  using Table = LruTable<std::uint64_t>;
  const std::vector<std::uint64_t> keys = colliding_keys(96, 9);
  Table t(8);
  std::unordered_map<std::uint64_t, Pba> truth;
  const auto find = [&](std::uint64_t k) { return t.find(t.hash_tag(k), k); };
  const auto check = [&] {
    for (std::uint64_t k : keys) {
      const auto it = truth.find(k);
      ASSERT_EQ(t.on_disk_pba(find(k)),
                it == truth.end() ? kInvalidPba : it->second)
          << k;
    }
    EXPECT_EQ(t.size(Table::kOnDisk), truth.size());
    // Only on-disk keys were promoted, so the table holds no other key.
    EXPECT_EQ(t.keys(), truth.size());
  };

  for (std::uint64_t k : keys) {
    t.put_on_disk(t.hash_tag(k), k, k * 3);
    truth[k] = k * 3;
  }
  check();

  // Backward-shift delete every other colliding key (a freed block at the
  // key's PBA), then overwrite and re-probe the survivors. Deleting from
  // the middle of a same-tag chain shifts later same-home entries down
  // across group boundaries.
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    EXPECT_TRUE(t.drop_entry_if(find(keys[i]), keys[i] * 3));
    truth.erase(keys[i]);
  }
  for (std::size_t i = 1; i < keys.size(); i += 2) {
    t.put_on_disk(t.hash_tag(keys[i]), keys[i], keys[i] + 7);
    truth[keys[i]] = keys[i] + 7;
  }
  check();

  // Random churn across the colliding set, mirrored into the truth map:
  // on-disk puts, freed blocks at the stored or another PBA, promotions,
  // and freed blocks of keys on disk only.
  Rng rng(0xC0111DE);
  for (int round = 0; round < 2000; ++round) {
    const std::uint64_t k = keys[rng.uniform(0, keys.size() - 1)];
    const auto it = truth.find(k);
    switch (rng.uniform(0, 3)) {
      case 0: {
        const Pba p = k ^ static_cast<std::uint64_t>(round);
        t.put_on_disk(t.hash_tag(k), k, p);
        truth[k] = p;
        break;
      }
      case 1: {
        const bool match = it != truth.end() && rng.uniform(0, 1) == 0;
        const Pba p = match ? it->second : k + 1'000'000;
        EXPECT_EQ(t.drop_entry_if(find(k), p), match) << k;
        if (match) truth.erase(it);
        break;
      }
      case 2:
        if (it != truth.end()) t.insert(t.hash_tag(k), k, it->second);
        break;
      default: {
        const Table::Found f = find(k);
        if (it != truth.end() && !t.resident(f)) {
          EXPECT_TRUE(t.drop_entry_if(f, it->second)) << k;
          truth.erase(it);
        }
      }
    }
  }
  check();
  t.for_each(Table::kResident, [&](std::uint32_t s) {
    EXPECT_TRUE(t.on(Table::kOnDisk, s)) << t.key(s);
    return true;
  });
}

TEST(TagCollisionStorm, LruTableProbeEvictDropChurn) {
  using Table = LruTable<std::uint64_t>;
  const std::vector<std::uint64_t> keys = colliding_keys(96, 9);
  constexpr std::size_t kCap = 64;
  const std::size_t evicted = keys.size() - kCap;
  Table t(kCap);
  t.enable_ghost(keys.size());
  const auto find = [&](std::uint64_t k) { return t.find(t.hash_tag(k), k); };

  // Fill past capacity: the 32 oldest colliding keys must evict, in insert
  // order, onto the ghost list (MRU first: the last evicted), leaving
  // exactly the 64 newest resident.
  for (std::uint64_t k : keys) t.insert(t.hash_tag(k), k, k + 1);
  std::vector<std::uint64_t> ghosts;
  t.for_each(Table::kGhost, [&](std::uint32_t s) {
    ghosts.push_back(t.key(s));
    return true;
  });
  ASSERT_EQ(ghosts.size(), evicted);
  for (std::size_t i = 0; i < evicted; ++i)
    EXPECT_EQ(ghosts[i], keys[evicted - 1 - i]);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Table::Found f = find(keys[i]);
    ASSERT_NE(f.slot, Table::kNil) << keys[i];
    if (i < evicted) {
      EXPECT_FALSE(t.resident(f)) << keys[i];
      EXPECT_TRUE(t.on(Table::kGhost, f.slot)) << keys[i];
    } else {
      ASSERT_TRUE(t.resident(f)) << keys[i];
      EXPECT_EQ(t.entry(f.slot).pba(), keys[i] + 1);
    }
  }

  // Drops from the middle of the same-tag chain (erase + backward shift):
  // every third resident key leaves the resident list, and every other
  // ghost key is consumed by a ghost probe. Probes must agree with the
  // model throughout.
  std::size_t dropped = 0;
  for (std::size_t i = evicted; i < keys.size(); i += 3) {
    const Table::Found f = find(keys[i]);
    ASSERT_TRUE(t.resident(f)) << keys[i];
    t.drop(Table::kResident, f);
    ++dropped;
    EXPECT_EQ(find(keys[i]).slot, Table::kNil);  // erased: on no list
  }
  std::size_t consumed = 0;
  for (std::size_t i = 0; i < evicted; i += 2) {
    EXPECT_TRUE(t.probe_ghost(t.hash_tag(keys[i]), keys[i])) << keys[i];
    EXPECT_FALSE(t.probe_ghost(t.hash_tag(keys[i]), keys[i])) << keys[i];
    ++consumed;
  }
  EXPECT_EQ(t.ghost_hits(), consumed);
  EXPECT_EQ(t.size(Table::kResident), kCap - dropped);
  EXPECT_EQ(t.size(Table::kGhost), evicted - consumed);
  EXPECT_EQ(t.keys(), kCap - dropped + evicted - consumed);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Table::Found f = find(keys[i]);
    if (i < evicted) {
      EXPECT_EQ(f.slot != Table::kNil, i % 2 == 1) << keys[i];
    } else {
      const bool live = (i - evicted) % 3 != 0;
      ASSERT_EQ(t.resident(f), live) << keys[i];
      if (live) {
        EXPECT_EQ(t.entry(f.slot).pba(), keys[i] + 1);
      }
    }
  }
}

Fingerprint fp(std::uint64_t id) { return Fingerprint::of_content_id(id); }

// Content ids whose *fingerprint* tags all collide (same ctrl byte, same
// home for tables <= 2^home_bits buckets), via IndexCache's public
// hash_tag.
std::vector<std::uint64_t> colliding_content_ids(std::size_t n,
                                                 int home_bits) {
  const IndexCache probe(IndexCache::kEntryBytes);
  const std::uint32_t want = probe.hash_tag(fp(1));
  const std::uint32_t home_mask = (1u << home_bits) - 1;
  std::vector<std::uint64_t> ids;
  for (std::uint64_t k = 1; ids.size() < n; ++k) {
    const std::uint32_t tag = probe.hash_tag(fp(k));
    if ((tag >> 25) == (want >> 25) && (tag & home_mask) == (want & home_mask))
      ids.push_back(k);
  }
  return ids;
}

TEST(TagCollisionStorm, FusedLookupMatchesScalarUnderCollisions) {
  // The fused pass's probe chains are at their worst when every key of the
  // span lands in one group chain — including the ghost consumption order
  // on duplicate misses (a consumed ghost entry backward-shifts its
  // colliding neighbours mid-span).
  const std::vector<std::uint64_t> ids = colliding_content_ids(48, 9);
  constexpr std::uint64_t kEntries = 16;
  IndexCache fused(kEntries * IndexCache::kEntryBytes);
  fused.enable_ghost(kEntries);
  IndexCache scalar(kEntries * IndexCache::kEntryBytes);
  scalar.enable_ghost(kEntries);
  // Insert all 48: 32 spill to the ghost list, 16 stay resident — all in
  // one collision chain in both tables.
  for (std::uint64_t id : ids) {
    fused.insert(fp(id), id);
    scalar.insert(fp(id), id);
  }

  Rng rng(0x57083);
  for (int round = 0; round < 30; ++round) {
    std::vector<Fingerprint> request;
    const std::size_t len = 1 + rng.next() % 24;
    for (std::size_t i = 0; i < len; ++i)
      request.push_back(fp(ids[rng.uniform(0, ids.size() - 1)]));

    std::vector<const IndexEntry*> out_f(request.size());
    fused.lookup_fused(request, out_f.data());
    for (std::size_t i = 0; i < request.size(); ++i) {
      const IndexEntry* e = scalar.lookup(request[i]);
      ASSERT_EQ(out_f[i] == nullptr, e == nullptr) << "round " << round;
      if (e == nullptr) (void)scalar.ghost_probe(request[i]);
      else EXPECT_EQ(out_f[i]->pba(), e->pba());
    }
    // Keep churn flowing through the chain.
    const std::uint64_t id = ids[rng.uniform(0, ids.size() - 1)];
    fused.insert(fp(id), id + 1000);
    scalar.insert(fp(id), id + 1000);
  }
  EXPECT_EQ(fused.hits(), scalar.hits());
  EXPECT_EQ(fused.misses(), scalar.misses());
  EXPECT_EQ(fused.ghost_hits(), scalar.ghost_hits());
  EXPECT_EQ(fused.size_entries(), scalar.size_entries());
  for (std::uint64_t id : ids) {
    const IndexEntry* ef = fused.peek(fp(id));
    const IndexEntry* es = scalar.peek(fp(id));
    ASSERT_EQ(ef == nullptr, es == nullptr) << id;
    if (ef != nullptr) {
      EXPECT_EQ(ef->pba(), es->pba());
    }
  }
}

}  // namespace
}  // namespace pod
