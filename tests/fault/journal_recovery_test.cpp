// Crash-consistency of the dedup metadata journal: a deterministic workload
// is journaled, the journal is truncated at EVERY possible crash point, and
// each truncated prefix must recover (into fresh metadata) to a state fsck
// reports as consistent — with at most repairable stale index entries.
#include "fault/fsck.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "cache/index_cache.hpp"
#include "dedup/allocator.hpp"
#include "dedup/ondisk_index.hpp"
#include "fault/journal.hpp"
#include "replay/replayer.hpp"
#include "synth/generator.hpp"

namespace pod {
namespace {

constexpr std::uint64_t kLogicalBlocks = 64;

BlockStore::Config store_config() {
  BlockStore::Config cfg;
  cfg.logical_blocks = kLogicalBlocks;
  cfg.pool_fraction = 0.5;
  return cfg;
}

OnDiskIndex::Config index_config() {
  OnDiskIndex::Config cfg;
  cfg.region_start = 1 << 16;  // outside the data region
  cfg.region_blocks = 256;
  return cfg;
}

Fingerprint fp_of(std::uint64_t id) { return Fingerprint::of_prefix(id); }

struct World {
  BlockStore store;
  IndexCache cache{8 * IndexCache::kEntryBytes};
  OnDiskIndex index{index_config(), cache.table()};
  MetadataJournal journal;

  World() : store(store_config()) {
    store.set_journal(&journal);
    index.set_journal(&journal);
  }

  /// The engine's write tail, run after every store call: each released
  /// block's index entry, if it still points there, leaves the index cache
  /// and the disk in one probe, and the on-disk deletion is journaled.
  void release_freed() {
    for (const BlockStore::FreedBlock& f : store.freed())
      if (cache.invalidate_if(f.fp, f.pba)) journal.index_del(f.fp);
    store.clear_freed();
  }
};

/// A deterministic metadata workload exercising every journaled mutation:
/// unique writes (home + redirected), dedup remaps (which unref the old
/// block), overwrites, and discards.
void run_workload(World& w) {
  BlockStore& store = w.store;
  OnDiskIndex& index = w.index;
  // Unique content on LBAs 0..15.
  for (Lba lba = 0; lba < 16; ++lba) {
    const Pba target = store.place_write(lba, fp_of(100 + lba));
    w.release_freed();
    (void)index.insert(fp_of(100 + lba), target);
  }
  // LBAs 16..23 duplicate 0..7 (refcounts climb to 2).
  for (Lba lba = 16; lba < 24; ++lba) {
    store.dedup_to(lba, store.resolve(lba - 16));
    w.release_freed();
  }
  // Overwrite half the shared originals: content must redirect to the pool
  // (home still referenced by the duplicate), old mapping unrefs.
  for (Lba lba = 0; lba < 4; ++lba) {
    const Pba target = store.place_write(lba, fp_of(200 + lba));
    w.release_freed();
    (void)index.insert(fp_of(200 + lba), target);
  }
  // Dedup again onto redirected content.
  store.dedup_to(30, store.resolve(1));
  w.release_freed();
  // Discards: one shared, one exclusive, one never-written (no-op).
  store.discard(16);
  store.discard(8);
  store.discard(50);
  w.release_freed();
  // Index entry whose content is then replaced — a crash between the put
  // and the eventual del is the "stale entry" case fsck must repair.
  for (Lba lba = 9; lba < 12; ++lba) {
    const Pba target = store.place_write(lba, fp_of(300 + lba));
    w.release_freed();
    (void)index.insert(fp_of(300 + lba), target);
  }
}

using IndexEntries = std::unordered_map<Fingerprint, Pba, FingerprintHash>;

IndexEntries entries_of(const OnDiskIndex& index) {
  IndexEntries out;
  index.for_each_entry([&](const Fingerprint& fp, Pba pba) { out[fp] = pba; });
  return out;
}

/// What recovery builds and fsck checks: an on-disk index over a fresh
/// index cache that caches nothing (the engine's own types).
struct RecoveredIndex {
  IndexCache cache{0};
  OnDiskIndex index{index_config(), cache.table()};
};


TEST(JournalRecovery, FullJournalRestoresExactState) {
  World w;
  run_workload(w);
  ASSERT_GT(w.journal.appended(), 0u);
  EXPECT_EQ(w.journal.lost(), 0u);

  BlockStore recovered(store_config());
  RecoveredIndex r;
  OnDiskIndex& rindex = r.index;
  recover_from_journal(w.journal, recovered, &rindex);

  EXPECT_EQ(recovered.live_logical_blocks(), w.store.live_logical_blocks());
  EXPECT_EQ(recovered.live_physical_blocks(), w.store.live_physical_blocks());
  for (Lba lba = 0; lba < kLogicalBlocks; ++lba) {
    EXPECT_EQ(recovered.resolve(lba), w.store.resolve(lba)) << "lba " << lba;
    EXPECT_EQ(recovered.is_live(lba), w.store.is_live(lba)) << "lba " << lba;
  }
  for (Pba pba = 0; pba < recovered.data_region_blocks(); ++pba)
    EXPECT_EQ(recovered.refcount(pba), w.store.refcount(pba)) << "pba " << pba;
  EXPECT_EQ(entries_of(rindex), entries_of(w.index));

  const FsckReport report = run_fsck(recovered, &rindex, /*repair=*/false);
  EXPECT_TRUE(report.consistent())
      << (report.messages.empty() ? "" : report.messages.front());
  EXPECT_EQ(report.stale_index_entries, 0u);
}

TEST(JournalRecovery, RecoveredPoolAcceptsNewWrites) {
  World w;
  run_workload(w);
  BlockStore recovered(store_config());
  recover_from_journal(w.journal, recovered, nullptr);

  // Occupancy was re-derived, so post-recovery writes must not collide
  // with live content: place fresh data everywhere and re-verify.
  for (Lba lba = 0; lba < kLogicalBlocks; ++lba)
    (void)recovered.place_write(lba, fp_of(900 + lba));
  const FsckReport report = run_fsck(recovered, nullptr, false);
  EXPECT_TRUE(report.consistent());
  EXPECT_EQ(recovered.live_logical_blocks(), kLogicalBlocks);
}

TEST(JournalRecovery, EveryCrashPointRecoversConsistent) {
  // Total record count of the full run (the workload is deterministic).
  World full;
  run_workload(full);
  const std::uint64_t total = full.journal.appended();
  ASSERT_GT(total, 20u);

  for (std::uint64_t crash = 0; crash <= total; ++crash) {
    World w;
    w.journal.set_crash_point(static_cast<std::int64_t>(crash));
    run_workload(w);
    ASSERT_EQ(w.journal.appended(), total);
    ASSERT_EQ(w.journal.lost(), total - crash);

    BlockStore recovered(store_config());
    RecoveredIndex r;
    OnDiskIndex& rindex = r.index;
    recover_from_journal(w.journal, recovered, &rindex);

    FsckReport report = run_fsck(recovered, &rindex, /*repair=*/true);
    EXPECT_TRUE(report.consistent())
        << "crash point " << crash << ": "
        << (report.messages.empty() ? "?" : report.messages.front());
    EXPECT_TRUE(report.clean())
        << "crash point " << crash << " left unrepaired stale entries";
    // Repair is idempotent: a second pass finds nothing.
    const FsckReport again = run_fsck(recovered, &rindex, true);
    EXPECT_EQ(again.stale_index_entries, 0u) << "crash point " << crash;
    EXPECT_EQ(again.hard_errors, 0u) << "crash point " << crash;
  }
}

TEST(JournalRecovery, FsckDetectsRefcountDamage) {
  // fsck must actually be able to fail: recover, then corrupt the map
  // table behind the store's back by binding an LBA to an unreferenced
  // pool block.
  World w;
  run_workload(w);
  BlockStore recovered(store_config());
  recover_from_journal(w.journal, recovered, nullptr);

  Pba dangling = kInvalidPba;
  for (Pba p = kLogicalBlocks; p < recovered.data_region_blocks(); ++p) {
    if (recovered.refcount(p) == 0) {
      dangling = p;
      break;
    }
  }
  ASSERT_NE(dangling, kInvalidPba);
  recovered.map_table().set(40, dangling);

  const FsckReport report = run_fsck(recovered, nullptr, false);
  EXPECT_FALSE(report.consistent());
  EXPECT_GT(report.hard_errors, 0u);
  EXPECT_FALSE(report.messages.empty());
}

TEST(JournalRecovery, StaleIndexEntryIsRepairedNotFatal) {
  World w;
  // One write, indexed, then overwritten. Crash right after the second
  // bind's records but before the index_del would have landed… the
  // simplest stale shape: index points at replaced content.
  const Pba first = w.store.place_write(0, fp_of(1));
  (void)w.index.insert(fp_of(1), first);

  BlockStore recovered(store_config());
  RecoveredIndex r;
  OnDiskIndex& rindex = r.index;
  recover_from_journal(w.journal, recovered, &rindex);
  // Replace the content *after* recovery so the index entry goes stale
  // without a journaled del.
  (void)recovered.place_write(0, fp_of(2));

  FsckReport report = run_fsck(recovered, &rindex, /*repair=*/false);
  EXPECT_TRUE(report.consistent());
  EXPECT_EQ(report.stale_index_entries, 1u);
  EXPECT_EQ(report.repaired, 0u);
  EXPECT_FALSE(report.clean());

  report = run_fsck(recovered, &rindex, /*repair=*/true);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(rindex.entries(), 0u);
}

TEST(JournalRecovery, CrashPointZeroIsEmptyButConsistent) {
  World w;
  w.journal.set_crash_point(0);
  run_workload(w);
  EXPECT_EQ(w.journal.records().size(), 0u);
  EXPECT_EQ(w.journal.lost(), w.journal.appended());

  BlockStore recovered(store_config());
  RecoveredIndex r;
  OnDiskIndex& rindex = r.index;
  recover_from_journal(w.journal, recovered, &rindex);
  EXPECT_EQ(recovered.live_logical_blocks(), 0u);
  EXPECT_TRUE(run_fsck(recovered, &rindex, true).clean());
}

/// A Native engine's BlockStore keeps no fingerprints, but its journal
/// still records every bind and unbind. Replays a small trace with the
/// journal crashed at `crash` records (-1: no crash) and returns the
/// engine with its journal.
std::unique_ptr<DedupEngine> replay_native(Simulator& sim, const Trace& trace,
                                           std::unique_ptr<Volume>& volume,
                                           const RunSpec& spec,
                                           std::int64_t crash) {
  volume = make_volume(sim, spec);
  std::unique_ptr<DedupEngine> engine = make_engine(sim, *volume, spec);
  engine->metadata_journal()->set_crash_point(crash);
  Replayer replayer;
  (void)replayer.replay(sim, *engine, trace);
  return engine;
}

TEST(JournalRecovery, NativeRecoversWithoutFingerprints) {
  WorkloadProfile p = tiny_test_profile();
  p.measured_requests = 1500;
  p.warmup_requests = 500;
  const Trace trace = TraceGenerator(p).generate();
  RunSpec spec;
  spec.engine = EngineKind::kNative;
  spec.engine_cfg.logical_blocks = p.volume_blocks;
  spec.engine_cfg.memory_bytes = 2 * kMiB;
  spec.engine_cfg.journal_metadata = true;
  BlockStore::Config store_cfg;
  store_cfg.logical_blocks = spec.engine_cfg.logical_blocks;
  store_cfg.pool_fraction = spec.engine_cfg.pool_fraction;
  store_cfg.fingerprints = false;

  // Full journal: recovery reproduces the live store exactly.
  Simulator sim;
  std::unique_ptr<Volume> volume;
  const auto full = replay_native(sim, trace, volume, spec, -1);
  ASSERT_FALSE(full->store().keeps_fingerprints());
  const MetadataJournal& journal = *full->metadata_journal();
  const std::uint64_t total = journal.appended();
  ASSERT_GT(total, 1000u);
  {
    BlockStore recovered(store_cfg);
    recover_from_journal(journal, recovered, nullptr);
    EXPECT_EQ(recovered.live_logical_blocks(),
              full->store().live_logical_blocks());
    EXPECT_EQ(recovered.live_physical_blocks(),
              full->store().live_physical_blocks());
    for (Lba lba = 0; lba < store_cfg.logical_blocks; ++lba)
      ASSERT_EQ(recovered.resolve(lba), full->store().resolve(lba)) << lba;
    EXPECT_TRUE(run_fsck(recovered, nullptr, /*repair=*/false).clean());
  }

  // Crashes at random records: every prefix recovers fsck-clean.
  Rng rng(0x4E47u);
  for (int i = 0; i < 6; ++i) {
    const auto crash = static_cast<std::int64_t>(rng.uniform(0, total));
    Simulator csim;
    std::unique_ptr<Volume> cvolume;
    const auto engine = replay_native(csim, trace, cvolume, spec, crash);
    ASSERT_EQ(engine->metadata_journal()->appended(), total);
    BlockStore recovered(store_cfg);
    recover_from_journal(*engine->metadata_journal(), recovered, nullptr);
    const FsckReport report = run_fsck(recovered, nullptr, /*repair=*/true);
    EXPECT_TRUE(report.clean())
        << "crash point " << crash << ": "
        << (report.messages.empty() ? "?" : report.messages.front());
  }
}

}  // namespace
}  // namespace pod
