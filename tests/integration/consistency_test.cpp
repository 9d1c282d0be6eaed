// Data-consistency oracle, parameterized over every engine:
//
// After replaying an arbitrary workload, reading any live LBA through the
// engine's block store must return exactly the content most recently
// written to it — no matter how many deduplications, copy-on-write
// redirections, evictions and overwrites happened in between. This is the
// paper's "maintains data consistency to prevent the referenced data from
// being overwritten and updated" requirement, checked exhaustively.
#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.hpp"
#include "replay/replayer.hpp"
#include "synth/generator.hpp"

namespace pod {
namespace {

class EngineConsistency : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineConsistency, EveryLbaResolvesToLastWrittenContent) {
  WorkloadProfile p = tiny_test_profile();
  p.measured_requests = 4000;
  p.warmup_requests = 2000;
  const Trace trace = TraceGenerator(p).generate();

  Simulator sim;
  RunSpec spec;
  spec.engine = GetParam();
  spec.engine_cfg.logical_blocks = p.volume_blocks;
  spec.engine_cfg.memory_bytes = 2 * kMiB;
  auto volume = make_volume(sim, spec);
  auto engine = make_engine(sim, *volume, spec);

  // Oracle: last content written per LBA.
  std::unordered_map<Lba, Fingerprint> oracle;

  Replayer replayer;
  (void)replayer.replay(sim, *engine, trace);
  for (const IoRequest& r : trace.requests) {
    if (!r.is_write()) continue;
    for (std::uint32_t b = 0; b < r.nblocks; ++b) oracle[r.lba + b] = r.chunks[b];
  }

  const BlockStore& store = engine->store();
  std::uint64_t checked = 0;
  for (const auto& [lba, expected] : oracle) {
    ASSERT_TRUE(store.is_live(lba)) << "lba " << lba << " lost";
    const Pba pba = store.resolve(lba);
    ASSERT_NE(pba, kInvalidPba);
    if (!store.keeps_fingerprints()) {
      // Native keeps no content fingerprints. It shares nothing, so the
      // last write of every LBA sits alone at the LBA's home block.
      ASSERT_EQ(pba, static_cast<Pba>(lba)) << "lba " << lba;
      ASSERT_EQ(store.refcount(pba), 1u) << "lba " << lba;
      ++checked;
      continue;
    }
    const Fingerprint* actual = store.fingerprint_of(pba);
    ASSERT_NE(actual, nullptr) << "lba " << lba << " -> dead pba " << pba;
    ASSERT_EQ(*actual, expected)
        << "lba " << lba << " resolved to wrong content at pba " << pba;
    ++checked;
  }
  EXPECT_GT(checked, 1000u);
}

TEST_P(EngineConsistency, RefcountsMatchLiveMappings) {
  // Property: the sum of physical refcounts equals the number of live
  // logical blocks, and every live LBA's target has refcount >= 1.
  WorkloadProfile p = tiny_test_profile();
  p.measured_requests = 3000;
  p.warmup_requests = 1000;
  const Trace trace = TraceGenerator(p).generate();

  Simulator sim;
  RunSpec spec;
  spec.engine = GetParam();
  spec.engine_cfg.logical_blocks = p.volume_blocks;
  spec.engine_cfg.memory_bytes = 2 * kMiB;
  auto volume = make_volume(sim, spec);
  auto engine = make_engine(sim, *volume, spec);
  Replayer replayer;
  (void)replayer.replay(sim, *engine, trace);

  const BlockStore& store = engine->store();
  std::unordered_map<Lba, Fingerprint> live;
  for (const IoRequest& r : trace.requests) {
    if (!r.is_write()) continue;
    for (std::uint32_t b = 0; b < r.nblocks; ++b) live[r.lba + b] = r.chunks[b];
  }
  std::unordered_map<Pba, std::uint32_t> expected_refs;
  for (const auto& [lba, fp] : live) {
    const Pba pba = store.resolve(lba);
    ASSERT_NE(pba, kInvalidPba);
    ++expected_refs[pba];
  }
  EXPECT_EQ(store.live_logical_blocks(), live.size());
  EXPECT_EQ(store.live_physical_blocks(), expected_refs.size());
  for (const auto& [pba, refs] : expected_refs)
    EXPECT_EQ(store.refcount(pba), refs) << "pba " << pba;
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineConsistency,
                         ::testing::Values(EngineKind::kNative,
                                           EngineKind::kFullDedupe,
                                           EngineKind::kIDedup,
                                           EngineKind::kSelectDedupe,
                                           EngineKind::kPod,
                                           EngineKind::kIoDedup),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

}  // namespace
}  // namespace pod
