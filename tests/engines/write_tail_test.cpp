// The write tail: blocks a request frees leave the read cache and the
// index (resident and on disk) at the request's last store mutation, in
// free order, before its first index write. Each hazard below is checked
// with the fused index probes and bulk inserts around the drain and with
// the scalar reference path (scalar_probes), and the two must end in the
// same engine state.
#include <gtest/gtest.h>

#include <vector>

#include "engine_test_util.hpp"
#include "engines/full_dedupe.hpp"
#include "fault/fsck.hpp"
#include "synth/generator.hpp"

namespace pod {
namespace {

using testutil::EngineHarness;

Fingerprint fp(std::uint64_t id) { return Fingerprint::of_content_id(id); }

EngineConfig tail_config(bool scalar) {
  EngineConfig cfg = testutil::small_engine_config();
  cfg.scalar_probes = scalar;
  cfg.journal_metadata = true;
  return cfg;
}

/// The on-disk PBA of `f` in `h`'s index (kInvalidPba when not on disk).
Pba on_disk_pba(EngineHarness& h, const Fingerprint& f) {
  const FingerprintTable& t = h.engine().index_cache()->table();
  return t.on_disk_pba(t.find(t.hash_tag(f), f));
}

/// The index records journaled from record `from` on, as (op, fp, pba).
struct IndexRecord {
  JournalOp op;
  Fingerprint fp;
  Pba pba;
  bool operator==(const IndexRecord&) const = default;
};
std::vector<IndexRecord> index_records(const MetadataJournal& j,
                                       std::size_t from) {
  std::vector<IndexRecord> out;
  for (std::size_t i = from; i < j.records().size(); ++i) {
    const JournalRecord& r = j.records()[i];
    if (r.op == JournalOp::kIndexPut || r.op == JournalOp::kIndexDel)
      out.push_back({r.op, r.fp, r.pba});
  }
  return out;
}

TEST(WriteTail, FingerprintFreedEarlyIsReinsertedLater) {
  // Chunk 0 dedups onto block 10 and so frees block 0, which held A; chunk
  // 1's candidate for A was that block, so A is written afresh at block 1
  // and indexed there. A's old entry must leave before the new one goes in.
  const Fingerprint a = fp(1);
  std::uint64_t digests[2];
  for (const bool scalar : {false, true}) {
    SCOPED_TRACE(scalar ? "scalar" : "fused");
    EngineHarness h(EngineKind::kFullDedupe, tail_config(scalar));
    (void)h.write(0, {1});
    (void)h.write(10, {3});
    const MetadataJournal& j = *h.engine().metadata_journal();
    const std::size_t mark = j.records().size();
    (void)h.write(0, {3, 1});

    const BlockStore& store = h.engine().store();
    EXPECT_EQ(store.resolve(0), 10u);
    EXPECT_EQ(store.resolve(1), 1u);
    EXPECT_EQ(store.refcount(0), 0u);
    ASSERT_NE(h.engine().index_cache()->peek(a), nullptr);
    EXPECT_EQ(h.engine().index_cache()->peek(a)->pba(), 1u);
    EXPECT_EQ(on_disk_pba(h, a), 1u);
    const std::vector<IndexRecord> want = {
        {JournalOp::kIndexDel, a, kInvalidPba}, {JournalOp::kIndexPut, a, 1}};
    EXPECT_EQ(index_records(j, mark), want);
    digests[scalar] = h.engine().state_digest();
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(WriteTail, HomeBlockFreedAndReusedWithinOneRun) {
  // One run overwrites LBAs 0..3 in place: each home block is freed with
  // its old content and reused for the new content in the same
  // place_write_run. The old fingerprints and the cached reads must go;
  // the new fingerprints, indexed after the drain, must stay.
  std::uint64_t digests[2];
  for (const bool scalar : {false, true}) {
    SCOPED_TRACE(scalar ? "scalar" : "fused");
    EngineHarness h(EngineKind::kSelectDedupe, tail_config(scalar));
    (void)h.write(0, {1, 2, 3, 4});
    (void)h.read(0, 4);
    ASSERT_EQ(h.engine().read_cache().size_blocks(), 4u);
    (void)h.write(0, {5, 6, 7, 8});

    const IndexCache& index = *h.engine().index_cache();
    for (std::uint64_t i = 0; i < 4; ++i) {
      EXPECT_EQ(h.engine().store().resolve(i), i);
      EXPECT_EQ(index.peek(fp(1 + i)), nullptr) << i;
      ASSERT_NE(index.peek(fp(5 + i)), nullptr) << i;
      EXPECT_EQ(index.peek(fp(5 + i))->pba(), i);
    }
    EXPECT_EQ(h.engine().read_cache().size_blocks(), 0u);
    // The next read of the range goes to disk: nothing stale is served.
    const std::uint64_t misses = h.engine().read_cache().misses();
    (void)h.read(0, 4);
    EXPECT_EQ(h.engine().read_cache().misses(), misses + 4);
    digests[scalar] = h.engine().state_digest();
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(WriteTail, FullDedupeDropsOnDiskEntryAndReputsIt) {
  // As FingerprintFreedEarlyIsReinsertedLater, but A has left the index
  // cache and is on disk only: the request's probe promotes it, the drain
  // drops it (resident and on disk, journaled), and the tail puts it back
  // at its new block.
  const Fingerprint a = fp(1);
  std::uint64_t digests[2];
  for (const bool scalar : {false, true}) {
    SCOPED_TRACE(scalar ? "scalar" : "fused");
    EngineConfig cfg = tail_config(scalar);
    cfg.memory_bytes = 8 * IndexCache::kEntryBytes;  // 4 resident entries
    EngineHarness h(EngineKind::kFullDedupe, cfg);
    (void)h.write(0, {1});
    (void)h.write(10, {3});
    for (std::uint64_t i = 0; i < 8; ++i) (void)h.write(100 + i, {50 + i});
    ASSERT_EQ(h.engine().index_cache()->peek(a), nullptr);
    ASSERT_EQ(on_disk_pba(h, a), 0u);
    const auto& full = static_cast<const FullDedupeEngine&>(h.engine());
    const std::size_t entries = full.ondisk_index().entries();
    const MetadataJournal& j = *h.engine().metadata_journal();
    const std::size_t mark = j.records().size();
    (void)h.write(0, {3, 1});

    EXPECT_EQ(h.engine().store().resolve(1), 1u);
    EXPECT_EQ(on_disk_pba(h, a), 1u);
    EXPECT_EQ(full.ondisk_index().entries(), entries);
    const std::vector<IndexRecord> want = {
        {JournalOp::kIndexDel, a, kInvalidPba}, {JournalOp::kIndexPut, a, 1}};
    EXPECT_EQ(index_records(j, mark), want);
    digests[scalar] = h.engine().state_digest();
  }
  EXPECT_EQ(digests[0], digests[1]);
}

/// A truncated copy of `j`: its first `n` records, as if it crashed there.
MetadataJournal prefix(const MetadataJournal& j, std::size_t n) {
  MetadataJournal out;
  for (std::size_t i = 0; i < n; ++i) {
    const JournalRecord& r = j.records()[i];
    switch (r.op) {
      case JournalOp::kBind: out.bind(r.lba, r.pba, r.fp); break;
      case JournalOp::kUnbind: out.unbind(r.lba); break;
      case JournalOp::kIndexPut: out.index_put(r.fp, r.pba); break;
      case JournalOp::kIndexDel: out.index_del(r.fp); break;
    }
  }
  return out;
}

TEST(WriteTail, FullDedupeEveryCrashPointRecovers) {
  // A request's index_del records follow its bind records (the drain runs
  // after the last store mutation). A crash between them leaves an index
  // entry naming a block that no longer holds its content: fsck must call
  // it stale, never a hard error, and the repair must leave it clean.
  WorkloadProfile p = tiny_test_profile();
  p.warmup_requests = 60;
  p.measured_requests = 120;
  p.volume_blocks = 2048;
  const Trace trace = TraceGenerator(p).generate();
  for (const bool scalar : {false, true}) {
    SCOPED_TRACE(scalar ? "scalar" : "fused");
    EngineConfig cfg = tail_config(scalar);
    cfg.logical_blocks = p.volume_blocks;
    cfg.memory_bytes = 16 * kKiB;
    EngineHarness h(EngineKind::kFullDedupe, cfg);
    for (std::size_t i = 0; i < trace.requests.size(); ++i) {
      if (i < trace.warmup_count) h.engine().warm(trace.requests[i]);
      else (void)h.run(trace.requests[i]);
    }
    const MetadataJournal& j = *h.engine().metadata_journal();
    ASSERT_GT(j.records().size(), 200u);
    std::size_t dels = 0;
    for (const JournalRecord& r : j.records())
      dels += r.op == JournalOp::kIndexDel;
    ASSERT_GT(dels, 0u);  // the sweep crosses drained frees

    BlockStore::Config store_cfg;
    store_cfg.logical_blocks = cfg.logical_blocks;
    store_cfg.pool_fraction = cfg.pool_fraction;
    std::size_t stale_seen = 0;
    for (std::size_t n = 0; n <= j.records().size(); ++n) {
      BlockStore recovered(store_cfg);
      IndexCache cache(0);
      OnDiskIndex index(OnDiskIndex::Config{}, cache.table());
      recover_from_journal(prefix(j, n), recovered, &index);
      const FsckReport report = run_fsck(recovered, &index, /*repair=*/true);
      ASSERT_EQ(report.hard_errors, 0u)
          << "crash point " << n << ": "
          << (report.messages.empty() ? "?" : report.messages.front());
      ASSERT_TRUE(report.clean()) << "crash point " << n;
      stale_seen += report.stale_index_entries;
      const FsckReport again = run_fsck(recovered, &index, /*repair=*/false);
      ASSERT_TRUE(again.clean()) << "crash point " << n;
      ASSERT_EQ(again.stale_index_entries, 0u) << "crash point " << n;
    }
    EXPECT_GT(stale_seen, 0u);  // some crash points fell inside a tail
  }
}

}  // namespace
}  // namespace pod
