// Seeded randomized differential test of Full-Dedupe's folded fingerprint
// index: the index cache's LruTable carrying the resident list and the
// on-disk membership, with OnDiskIndex modelling the disk over it, against
// a model of two separate stores — an LruMap of resident keys and a
// std::unordered_map of on-disk keys — that shares no code with the table.
//
// The operations are the ones Full-Dedupe and recovery perform: the write
// loop's one-probe lookup (scalar or tagged) with its Bloom-guarded cold
// path, Bloom filter on or off per seed, and the promotion of a valid
// on-disk hit; written chunks put on disk and then into the cache; block
// releases through the store (overwrites, discards, dedup remaps) and
// explicit releases at a matching or another PBA; resident evictions by
// resize; journal restore from a crash prefix followed by fsck repair; and
// fsck of the live state. After every operation the resident list in MRU
// order, the hit and miss counters, the on-disk entries, the disk-traffic
// counters and the journal's index records must agree with the model, and
// every resident key must be on disk.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "../cache/lru_map.hpp"
#include "cache/index_cache.hpp"
#include "common/rng.hpp"
#include "dedup/allocator.hpp"
#include "dedup/ondisk_index.hpp"
#include "fault/fsck.hpp"
#include "fault/journal.hpp"

namespace pod {
namespace {

constexpr std::uint64_t kE = IndexCache::kEntryBytes;
constexpr std::uint64_t kLogical = 128;

Fingerprint fp(std::uint64_t id) { return Fingerprint::of_content_id(id); }

BlockStore::Config store_config() {
  BlockStore::Config cfg;
  cfg.logical_blocks = kLogical;
  cfg.pool_fraction = 1.0;  // a pool as large as the volume never runs dry
  return cfg;
}

using Entries = std::unordered_map<Fingerprint, Pba, FingerprintHash>;
using IndexRecord = std::tuple<JournalOp, Fingerprint, Pba>;

Entries entries_of(const OnDiskIndex& index) {
  Entries out;
  index.for_each_entry([&](const Fingerprint& f, Pba pba) { out[f] = pba; });
  return out;
}

std::vector<IndexRecord> index_records(const MetadataJournal& journal) {
  std::vector<IndexRecord> out;
  for (const JournalRecord& r : journal.records())
    if (r.op == JournalOp::kIndexPut || r.op == JournalOp::kIndexDel)
      out.emplace_back(r.op, r.fp, r.pba);
  return out;
}

/// The model: resident keys and on-disk keys in two separate stores. The
/// Bloom filter is modelled as the set of keys ever put on disk; the real
/// filter is sized so that no false positive occurs at these key counts.
struct Model {
  struct Resident {
    Pba pba = kInvalidPba;
    std::uint32_t count = 0;
  };
  struct Cold {
    bool found = false;
    bool disk_read = false;
    Pba pba = kInvalidPba;
  };

  Model(std::size_t resident_cap, bool bloom, std::uint32_t batch)
      : resident(resident_cap), bloom_enabled(bloom), insert_batch(batch) {}

  const Resident* lookup(const Fingerprint& f) {
    Resident* e = resident.get(f);
    if (e == nullptr) {
      ++misses;
      return nullptr;
    }
    ++hits;
    ++e->count;
    return e;
  }

  Cold cold(const Fingerprint& f) {
    if (bloom_enabled && bloom.count(f) == 0) {
      ++bloom_negatives;
      return {};
    }
    ++disk_lookups;
    const auto it = disk.find(f);
    return it == disk.end() ? Cold{false, true, kInvalidPba}
                            : Cold{true, true, it->second};
  }

  /// An on-disk put; returns whether it charges a bucket write.
  bool put(const Fingerprint& f, Pba pba) {
    journal.emplace_back(JournalOp::kIndexPut, f, pba);
    disk[f] = pba;
    bloom.insert(f);
    if (++pending < insert_batch) return false;
    pending = 0;
    ++bucket_writes;
    return true;
  }

  void cache(const Fingerprint& f, Pba pba) { resident.put(f, Resident{pba, 0}); }

  /// A block's release; returns whether an on-disk entry went.
  bool content_gone(const Fingerprint& f, Pba pba) {
    const Resident* e = resident.peek(f);
    if (e != nullptr && e->pba == pba) resident.erase(f);
    const auto it = disk.find(f);
    if (it == disk.end() || it->second != pba) return false;
    disk.erase(it);
    journal.emplace_back(JournalOp::kIndexDel, f, kInvalidPba);
    return true;
  }

  LruMap<Fingerprint, Resident, FingerprintHash> resident;
  Entries disk;
  std::unordered_set<Fingerprint, FingerprintHash> bloom;
  std::vector<IndexRecord> journal;
  bool bloom_enabled;
  std::uint32_t insert_batch;
  std::uint32_t pending = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bloom_negatives = 0;
  std::uint64_t disk_lookups = 0;
  std::uint64_t bucket_writes = 0;
};

OnDiskIndex::Config index_config(bool bloom, std::uint32_t batch) {
  OnDiskIndex::Config cfg;
  cfg.region_start = 1 << 16;  // outside the data region
  cfg.region_blocks = 64;
  cfg.insert_batch = batch;
  cfg.bloom_bits = 1 << 20;
  cfg.bloom_enabled = bloom;
  return cfg;
}

/// Full-Dedupe's index: a cache of `resident_cap` entries and the on-disk
/// index over its table, journaled like the engine's.
struct Index {
  Index(std::size_t resident_cap, const OnDiskIndex::Config& cfg)
      : cache(resident_cap * kE), index(cfg, cache.table()) {}
  IndexCache cache;
  OnDiskIndex index;
};

void expect_same(const Index& w, const Model& m, const MetadataJournal& journal,
                 int seed, int op) {
  const FingerprintTable& t = w.cache.table();
  std::vector<std::tuple<Fingerprint, Pba, std::uint32_t>> got, want;
  t.for_each(FingerprintTable::kResident, [&](std::uint32_t s) {
    got.emplace_back(t.key(s), t.entry(s).pba(), t.entry(s).count());
    // Every resident key is on disk (at the same PBA: the slot has one).
    EXPECT_TRUE(t.on(FingerprintTable::kOnDisk, s));
    return true;
  });
  m.resident.for_each([&](const Fingerprint& f, const Model::Resident& e) {
    want.emplace_back(f, e.pba, e.count);
  });
  ASSERT_TRUE(got == want) << "seed " << seed << " op " << op;
  ASSERT_EQ(w.cache.hits(), m.hits) << "seed " << seed << " op " << op;
  ASSERT_EQ(w.cache.misses(), m.misses) << "seed " << seed << " op " << op;
  ASSERT_EQ(w.index.entries(), m.disk.size()) << "seed " << seed << " op " << op;
  ASSERT_TRUE(entries_of(w.index) == m.disk) << "seed " << seed << " op " << op;
  ASSERT_EQ(w.index.disk_lookups(), m.disk_lookups)
      << "seed " << seed << " op " << op;
  ASSERT_EQ(w.index.bloom_negative_hits(), m.bloom_negatives)
      << "seed " << seed << " op " << op;
  ASSERT_EQ(w.index.bucket_writes(), m.bucket_writes)
      << "seed " << seed << " op " << op;
  ASSERT_TRUE(index_records(journal) == m.journal)
      << "seed " << seed << " op " << op;
}

/// A journal holding the first `n` records of `from` (a crash after `n`).
MetadataJournal prefix_of(const MetadataJournal& from, std::size_t n) {
  MetadataJournal out;
  for (std::size_t i = 0; i < n; ++i) {
    const JournalRecord& r = from.records()[i];
    switch (r.op) {
      case JournalOp::kBind:
        out.bind(r.lba, r.pba, r.fp);
        break;
      case JournalOp::kUnbind:
        out.unbind(r.lba);
        break;
      case JournalOp::kIndexPut:
        out.index_put(r.fp, r.pba);
        break;
      case JournalOp::kIndexDel:
        out.index_del(r.fp);
        break;
    }
  }
  return out;
}

/// Recovers a crash prefix into fresh engine types, checks the restored
/// index against the prefix's records, then fsck-repairs it and checks the
/// repair dropped exactly the entries whose content the prefix replaced.
void check_recovery(const MetadataJournal& journal, std::size_t n,
                    bool full, int seed, int op) {
  const MetadataJournal crashed = prefix_of(journal, n);
  BlockStore store(store_config());
  Index r(0, index_config(true, 1));
  recover_from_journal(crashed, store, &r.index);

  Entries want;
  for (const JournalRecord& rec : crashed.records()) {
    if (rec.op == JournalOp::kIndexPut) want[rec.fp] = rec.pba;
    if (rec.op == JournalOp::kIndexDel) want.erase(rec.fp);
  }
  ASSERT_TRUE(entries_of(r.index) == want) << "seed " << seed << " op " << op;
  std::uint64_t stale = 0;
  for (auto it = want.begin(); it != want.end();) {
    const Fingerprint* live = store.fingerprint_of(it->second);
    if (live != nullptr && *live == it->first) {
      ++it;
      continue;
    }
    ++stale;
    it = want.erase(it);
  }
  if (full) {
    ASSERT_EQ(stale, 0u) << "seed " << seed << " op " << op;
  }

  const FsckReport report = run_fsck(store, &r.index, /*repair=*/true);
  ASSERT_TRUE(report.consistent()) << "seed " << seed << " op " << op;
  ASSERT_EQ(report.stale_index_entries, stale) << "seed " << seed << " op " << op;
  ASSERT_EQ(report.repaired, stale) << "seed " << seed << " op " << op;
  ASSERT_TRUE(entries_of(r.index) == want) << "seed " << seed << " op " << op;
  ASSERT_TRUE(run_fsck(store, &r.index, true).clean())
      << "seed " << seed << " op " << op;
}

void run_seed(int seed) {
  Rng rng(0x0D15Cu + static_cast<std::uint64_t>(seed));
  std::size_t resident_cap = rng.uniform(0, 10);
  const bool bloom = seed % 2 == 0;
  const auto batch = static_cast<std::uint32_t>(rng.uniform(1, 4));
  const std::uint64_t keys = 8 + rng.uniform(0, 40);

  Index w(resident_cap, index_config(bloom, batch));
  Model m(resident_cap, bloom, batch);
  BlockStore store(store_config());
  MetadataJournal journal;
  store.set_journal(&journal);
  w.index.set_journal(&journal);
  // The engine's write tail, run after every store call and mirrored into
  // the model: each released block leaves the index in free order.
  const auto release_freed = [&] {
    for (const BlockStore::FreedBlock& f : store.freed()) {
      if (w.cache.invalidate_if(f.fp, f.pba)) journal.index_del(f.fp);
      (void)m.content_gone(f.fp, f.pba);
    }
    store.clear_freed();
  };

  const auto key = [&] { return fp(rng.uniform(0, keys - 1)); };
  const auto lba = [&] { return static_cast<Lba>(rng.uniform(0, kLogical - 1)); };

  for (int op = 0; op < 400; ++op) {
    switch (rng.uniform(0, 9)) {
      case 0:
      case 1:
      case 2: {  // the write loop's probe, its cold path and a promotion
        const Fingerprint k = key();
        const bool tagged = rng.uniform(0, 1) == 0;
        const IndexCache::Tag tag = w.cache.hash_tag(k);
        Pba on_disk = kInvalidPba;
        const IndexEntry* e = tagged ? w.cache.lookup_tagged(tag, k, &on_disk)
                                     : w.cache.lookup(k, &on_disk);
        const Model::Resident* me = m.lookup(k);
        ASSERT_EQ(e == nullptr, me == nullptr) << "seed " << seed << " op " << op;
        if (e != nullptr) {
          ASSERT_EQ(e->pba(), me->pba);
          ASSERT_EQ(e->count(), me->count);
          break;
        }
        const OnDiskIndex::Lookup l = w.index.lookup(k, on_disk);
        const Model::Cold c = m.cold(k);
        ASSERT_EQ(l.found, c.found) << "seed " << seed << " op " << op;
        ASSERT_EQ(l.needs_disk_read, c.disk_read);
        if (l.needs_disk_read) {
          ASSERT_EQ(l.bucket, w.index.bucket_of(k));
        }
        if (!l.found) break;
        ASSERT_EQ(l.pba, c.pba);
        const Fingerprint* live = store.fingerprint_of(l.pba);
        if (live != nullptr && *live == k) {
          if (tagged) w.cache.insert_tagged(tag, k, l.pba);
          else w.cache.insert(k, l.pba);
          m.cache(k, l.pba);
        }
        break;
      }
      case 3:
      case 4: {  // a write of 1..4 chunks: placed, put on disk, then cached
        const std::size_t n = rng.uniform(1, 4);
        const Lba first = static_cast<Lba>(rng.uniform(0, kLogical - n));
        std::vector<Fingerprint> fps(n);
        std::vector<Pba> pbas(n);
        for (std::size_t i = 0; i < n; ++i) {
          fps[i] = key();
          pbas[i] = store.place_write(first + i, fps[i]);
        }
        release_freed();
        for (std::size_t i = 0; i < n; ++i) {
          const std::optional<Pba> flush = w.index.insert(fps[i], pbas[i]);
          ASSERT_EQ(flush.has_value(), m.put(fps[i], pbas[i]));
          if (flush) {
            ASSERT_EQ(*flush, w.index.bucket_of(fps[i]));
          }
        }
        w.cache.insert_batch(fps.data(), pbas.data(), n);
        for (std::size_t i = 0; i < n; ++i) m.cache(fps[i], pbas[i]);
        break;
      }
      case 5: {  // a dedup remap onto live content (may release a block)
        const Fingerprint k = key();
        const auto it = m.disk.find(k);
        if (it == m.disk.end()) break;
        const Lba target = lba();
        if (store.resolve(target) != it->second) store.dedup_to(target, it->second);
        release_freed();
        break;
      }
      case 6:
        store.discard(lba());
        release_freed();
        break;
      case 7: {  // a release at the stored PBA or at another block
        const Fingerprint k = key();
        const auto it = m.disk.find(k);
        const bool match = it != m.disk.end() && rng.uniform(0, 1) == 0;
        const Pba p = match ? it->second : rng.uniform(0, 2 * kLogical - 1);
        const bool dropped = w.cache.invalidate_if(k, p);
        if (dropped) journal.index_del(k);
        ASSERT_EQ(dropped, m.content_gone(k, p))
            << "seed " << seed << " op " << op;
        break;
      }
      case 8:  // resident evictions (or room to grow)
        resident_cap = rng.uniform(0, 10);
        w.cache.resize(resident_cap * kE);
        m.resident.set_capacity(resident_cap);
        break;
      case 9: {  // crash, restore, fsck repair; and fsck of the live state
        const std::size_t total = journal.records().size();
        const std::size_t n =
            rng.uniform(0, 1) == 0 ? total : rng.uniform(0, total);
        check_recovery(journal, n, n == total, seed, op);
        if (::testing::Test::HasFatalFailure()) return;
        const FsckReport live = run_fsck(store, &w.index, /*repair=*/false);
        ASSERT_TRUE(live.clean()) << "seed " << seed << " op " << op;
        break;
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
    expect_same(w, m, journal, seed, op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(OnDiskIndexDiff, MatchesResidentAndOnDiskModel) {
  for (int seed = 0; seed < 100; ++seed) {
    run_seed(seed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace pod
