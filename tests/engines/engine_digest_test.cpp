// The fused write path and the scalar reference path must leave every
// engine in the same state after every request: DedupEngine::state_digest
// covers the Map table, the block store, every cache list in LRU order,
// the on-disk index and the memory split, so one compare per request
// checks what the replay-level equivalence tests can only sample.
#include <gtest/gtest.h>

#include <string>

#include "engine_test_util.hpp"
#include "synth/generator.hpp"

namespace pod {
namespace {

using testutil::EngineHarness;

const EngineKind kEngines[] = {
    EngineKind::kNative,       EngineKind::kFullDedupe, EngineKind::kIDedup,
    EngineKind::kSelectDedupe, EngineKind::kPod,        EngineKind::kIoDedup,
    EngineKind::kPostProcess,
};

/// The tiny profile, shortened and on an eighth of its volume: the digest
/// walks the whole store after every request, and a smaller volume makes
/// overwrites (the frees the write tail handles) more frequent.
constexpr std::uint64_t kVolumeBlocks = 8 * 1024;

Trace digest_trace() {
  WorkloadProfile p = tiny_test_profile();
  p.warmup_requests = 300;
  p.measured_requests = 600;
  p.volume_blocks = kVolumeBlocks;
  return TraceGenerator(p).generate();
}

EngineConfig digest_config(bool scalar, bool journal) {
  EngineConfig cfg = testutil::small_engine_config();
  cfg.logical_blocks = kVolumeBlocks;
  // Small caches: evictions, ghost and spill traffic, on-disk-only keys.
  cfg.memory_bytes = 256 * kKiB;
  cfg.scalar_probes = scalar;
  cfg.journal_metadata = journal;
  return cfg;
}

TEST(EngineDigest, FusedAndScalarPathsMatch) {
  const Trace trace = digest_trace();
  for (const EngineKind kind : kEngines) {
    for (const bool journal : {false, true}) {
      SCOPED_TRACE(std::string(to_string(kind)) +
                   (journal ? " journaled" : " unjournaled"));
      EngineHarness fused(kind, digest_config(false, journal));
      EngineHarness scalar(kind, digest_config(true, journal));
      const std::uint64_t start = fused.engine().state_digest();
      ASSERT_EQ(start, scalar.engine().state_digest());
      for (std::size_t i = 0; i < trace.requests.size(); ++i) {
        const IoRequest& req = trace.requests[i];
        for (EngineHarness* h : {&fused, &scalar}) {
          if (i == trace.warmup_count) h->engine().begin_measured();
          if (i < trace.warmup_count) {
            h->engine().warm(req);
          } else {
            (void)h->run(req);
          }
          // Post-process frees blocks in its scrub pass too; run one now
          // and then rather than waiting for its 5 s of simulated time.
          if (kind == EngineKind::kPostProcess && i % 50 == 49)
            static_cast<PostProcessEngine&>(h->engine()).scrub_pass();
        }
        ASSERT_EQ(fused.engine().state_digest(), scalar.engine().state_digest())
            << "request " << i;
      }
      EXPECT_NE(fused.engine().state_digest(), start);
      if (journal) {
        EXPECT_EQ(fused.engine().metadata_journal()->appended(),
                  scalar.engine().metadata_journal()->appended());
      }
    }
  }
}

TEST(EngineDigest, SeesOneInvalidationLeftUndone) {
  // The digest must notice the smallest divergence the write tail could
  // cause: one freed block whose cached read was not dropped.
  EngineHarness a(EngineKind::kSelectDedupe);
  EngineHarness b(EngineKind::kSelectDedupe);
  for (EngineHarness* h : {&a, &b}) {
    (void)h->write(0, {1, 2, 3});
    (void)h->read(0, 3);
  }
  ASSERT_EQ(a.engine().state_digest(), b.engine().state_digest());
  (void)a.write(0, {4, 5, 6});  // frees blocks 0..2, drops their reads
  (void)b.write(0, {4, 5, 6});
  ASSERT_EQ(a.engine().state_digest(), b.engine().state_digest());
  b.engine().read_cache().insert(1);  // a stale cached block
  EXPECT_NE(a.engine().state_digest(), b.engine().state_digest());
}

}  // namespace
}  // namespace pod
