// Seeded randomized differential test: ReadCache (one LruTable holding the
// resident and ghost lists) against a reference of two independent LRU
// maps — a resident LruMap whose eviction callback remembers the block in
// a reference ghost list (lru_map.hpp), the composition the read cache
// had before it moved onto the shared table.
//
// Every operation the engines and iCache perform on a read cache — scalar
// lookups with ghost probes, the fused read plan's tagged lookups, inserts,
// invalidations, resizes, ghost signal injection and iCache's ghost
// prefetch (collect the ghost MRU, then re-admit) — runs against both at
// small capacities. After every operation the hit, miss, ghost-hit and
// near-hit counters and both lists in MRU order must agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/read_cache.hpp"
#include "common/rng.hpp"
#include "lru_map.hpp"

namespace pod {
namespace {

/// MRU-first contents of both lists plus the probe counters.
struct ReadCacheState {
  std::vector<Pba> resident;
  std::vector<Pba> ghost;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t ghost_hits = 0;
  std::uint64_t ghost_near_hits = 0;

  bool operator==(const ReadCacheState&) const = default;
};

class ReferenceReadCache {
  struct Unit {};

  auto evict() {
    return [this](const Pba& block, Unit&&) { ghost_.remember(block); };
  }

 public:
  ReferenceReadCache(std::size_t capacity_blocks, std::size_t ghost_blocks)
      : entries_(capacity_blocks), ghost_(ghost_blocks) {}

  void set_ghost_near_threshold(std::uint64_t n) {
    ghost_.set_near_threshold(n);
  }

  bool lookup(Pba block) {
    if (entries_.get(block) != nullptr) {
      ++hits_;
      return true;
    }
    ++misses_;
    return false;
  }

  bool ghost_probe(Pba block) { return ghost_.probe_and_consume(block); }
  void ghost_remember(Pba block) { ghost_.remember(block); }
  void insert(Pba block) { entries_.put(block, Unit{}, evict()); }
  void invalidate(Pba block) { entries_.erase(block); }
  void resize(std::size_t blocks) { entries_.set_capacity(blocks, evict()); }

  /// ICache's ghost prefetch as it was: collect up to `want` ghost blocks
  /// MRU-first, then forget each in the ghost list and insert it.
  std::vector<Pba> prefetch(std::size_t want) {
    std::vector<Pba> to_fetch;
    ghost_.for_each([&](const Pba& block) {
      if (to_fetch.size() < want) to_fetch.push_back(block);
    });
    for (Pba block : to_fetch) {
      ghost_.forget(block);
      insert(block);
    }
    return to_fetch;
  }

  ReadCacheState state() const {
    ReadCacheState s;
    entries_.for_each([&](const Pba& block, const Unit&) {
      s.resident.push_back(block);
    });
    ghost_.for_each([&](const Pba& block) { s.ghost.push_back(block); });
    s.hits = hits_;
    s.misses = misses_;
    s.ghost_hits = ghost_.hits();
    s.ghost_near_hits = ghost_.near_hits();
    return s;
  }

 private:
  LruMap<Pba, Unit> entries_;
  RefGhostList<Pba> ghost_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

ReadCacheState state_of(const ReadCache& c) {
  const BlockTable& t = c.table();
  ReadCacheState s;
  t.for_each(BlockTable::kResident, [&](std::uint32_t slot) {
    s.resident.push_back(t.key(slot));
    return true;
  });
  t.for_each(BlockTable::kGhost, [&](std::uint32_t slot) {
    s.ghost.push_back(t.key(slot));
    return true;
  });
  s.hits = c.hits();
  s.misses = c.misses();
  s.ghost_hits = c.ghost_hits();
  s.ghost_near_hits = c.ghost_near_hits();
  return s;
}

void expect_same(const ReadCache& c, const ReferenceReadCache& ref, int seed,
                 int op) {
  const ReadCacheState got = state_of(c);
  const ReadCacheState want = ref.state();
  ASSERT_EQ(got.hits, want.hits) << "seed " << seed << " op " << op;
  ASSERT_EQ(got.misses, want.misses) << "seed " << seed << " op " << op;
  ASSERT_EQ(got.ghost_hits, want.ghost_hits) << "seed " << seed << " op " << op;
  ASSERT_EQ(got.ghost_near_hits, want.ghost_near_hits)
      << "seed " << seed << " op " << op;
  ASSERT_TRUE(got.resident == want.resident) << "seed " << seed << " op " << op;
  ASSERT_TRUE(got.ghost == want.ghost) << "seed " << seed << " op " << op;
  ASSERT_EQ(c.size_blocks(), want.resident.size());
  ASSERT_EQ(c.ghost_size(), want.ghost.size());
}

void run_seed(int seed) {
  Rng rng(0x2EADu + static_cast<std::uint64_t>(seed));
  std::uint64_t cap = rng.uniform(0, 10);
  const std::uint64_t ghost = rng.uniform(0, 14);
  const std::uint64_t blocks = 8 + rng.uniform(0, 40);
  ReadCache c(cap * kBlockSize);
  c.enable_ghost(ghost);
  ReferenceReadCache ref(cap, ghost);
  const std::uint64_t near = rng.uniform(0, 6);
  c.set_ghost_near_threshold(near);
  ref.set_ghost_near_threshold(near);
  const auto block = [&] {
    return static_cast<Pba>(rng.uniform(0, blocks - 1));
  };
  // The engine's per-block read step on the reference: lookup, then on a
  // miss a ghost probe and an insert.
  const auto ref_read = [&](Pba b) {
    if (ref.lookup(b)) return true;
    ref.ghost_probe(b);
    ref.insert(b);
    return false;
  };
  // iCache's ghost prefetch on both.
  const auto prefetch = [&](std::size_t want, int op) {
    std::vector<Pba> got;
    c.collect_ghosts(want, got);
    const std::vector<Pba> expected = ref.prefetch(want);
    ASSERT_TRUE(got == expected) << "seed " << seed << " op " << op;
    for (Pba b : got) c.readmit(b);
  };

  for (int op = 0; op < 1500; ++op) {
    switch (rng.uniform(0, 10)) {
      case 0:
      case 1: {  // scalar read step (lookup, ghost probe, insert)
        const Pba b = block();
        const bool hit = c.lookup(b);
        ASSERT_EQ(hit, ref.lookup(b));
        if (!hit) {
          ASSERT_EQ(c.ghost_probe(b), ref.ghost_probe(b));
          c.insert(b);
          ref.insert(b);
        }
        break;
      }
      case 2: {  // the fused read plan: tags up front, one probe per block
        std::vector<Pba> req(rng.uniform(0, 12));
        for (Pba& b : req) b = block();
        std::vector<ReadCache::Tag> tags(req.size());
        for (std::size_t i = 0; i < req.size(); ++i) {
          tags[i] = c.hash_tag(req[i]);
          c.prefetch_tag(tags[i]);
        }
        for (std::size_t i = 0; i < req.size(); ++i) {
          const bool hit = c.lookup_tagged(tags[i], req[i]);
          ASSERT_EQ(hit, ref_read(req[i])) << i;
          if (!hit) c.insert_tagged(tags[i], req[i]);
        }
        break;
      }
      case 3: {  // a tagged lookup with no insert after a miss
        const Pba b = block();
        const bool hit = c.lookup_tagged(c.hash_tag(b), b);
        ASSERT_EQ(hit, ref.lookup(b));
        if (!hit) ref.ghost_probe(b);
        break;
      }
      case 4: {
        const Pba b = block();
        ASSERT_EQ(c.ghost_probe(b), ref.ghost_probe(b));
        break;
      }
      case 5:
      case 6: {  // insert without a ghost probe (a block can be on both lists)
        const Pba b = block();
        c.insert(b);
        ref.insert(b);
        break;
      }
      case 7: {
        const Pba b = block();
        c.invalidate(b);
        ref.invalidate(b);
        break;
      }
      case 8: {
        const Pba b = block();
        c.ghost_remember(b);
        ref.ghost_remember(b);
        break;
      }
      case 9: {  // iCache prefetch of the ghost MRU
        prefetch(rng.uniform(0, 6), op);
        break;
      }
      case 10: {  // one iCache step: resize, and after a grow prefetch
        const std::uint64_t target = rng.uniform(0, 12);
        c.resize(target * kBlockSize);
        ref.resize(target);
        if (target > cap) prefetch(target - cap, op);
        cap = target;
        break;
      }
    }
    expect_same(c, ref, seed, op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ReadCacheDiff, MatchesResidentAndGhostModel) {
  for (int seed = 0; seed < 100; ++seed) {
    run_seed(seed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace pod
