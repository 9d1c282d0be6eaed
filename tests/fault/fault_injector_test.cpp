// FaultInjector unit behaviour: seeded determinism, per-disk stream
// independence, zero draws when disabled, and the whole-disk failure /
// hot-spare state machine.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pod {
namespace {

FaultConfig rate_config(double media, double transient,
                        std::uint64_t seed = 42) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = seed;
  cfg.media_error_rate = media;
  cfg.transient_rate = transient;
  return cfg;
}

std::vector<FaultKind> draw_sequence(FaultInjector& inj, std::size_t disk,
                                     std::size_t n) {
  std::vector<FaultKind> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(inj.decide(disk, OpType::kWrite, i, 1));
  return out;
}

TEST(FaultInjector, ZeroRatesNeverInject) {
  FaultInjector inj(rate_config(0.0, 0.0));
  for (std::size_t i = 0; i < 1000; ++i)
    EXPECT_EQ(inj.decide(0, OpType::kRead, i, 8), FaultKind::kNone);
  EXPECT_EQ(inj.stats().media_errors, 0u);
  EXPECT_EQ(inj.stats().transients, 0u);
}

TEST(FaultInjector, SameSeedSameDecisions) {
  FaultInjector a(rate_config(0.05, 0.1, 7));
  FaultInjector b(rate_config(0.05, 0.1, 7));
  EXPECT_EQ(draw_sequence(a, 0, 4000), draw_sequence(b, 0, 4000));
  EXPECT_EQ(draw_sequence(a, 3, 4000), draw_sequence(b, 3, 4000));
}

TEST(FaultInjector, DifferentSeedsDifferSomewhere) {
  FaultInjector a(rate_config(0.05, 0.1, 7));
  FaultInjector b(rate_config(0.05, 0.1, 8));
  EXPECT_NE(draw_sequence(a, 0, 4000), draw_sequence(b, 0, 4000));
}

TEST(FaultInjector, PerDiskStreamsAreIndependent) {
  // Disk 1's decision sequence must not depend on how many ops disk 0
  // dispatched in between — streams are jump-separated, not shared.
  FaultInjector quiet(rate_config(0.05, 0.1));
  const std::vector<FaultKind> baseline = draw_sequence(quiet, 1, 2000);

  FaultInjector noisy(rate_config(0.05, 0.1));
  std::vector<FaultKind> interleaved;
  for (std::size_t i = 0; i < 2000; ++i) {
    (void)noisy.decide(0, OpType::kRead, i, 1);  // extra traffic on disk 0
    (void)noisy.decide(0, OpType::kWrite, i, 1);
    interleaved.push_back(noisy.decide(1, OpType::kWrite, i, 1));
  }
  EXPECT_EQ(baseline, interleaved);
}

TEST(FaultInjector, RatesRoughlyHonored) {
  FaultInjector inj(rate_config(0.02, 0.05));
  const std::size_t n = 200000;
  (void)draw_sequence(inj, 0, n);
  const double media = static_cast<double>(inj.stats().media_errors) / n;
  const double transient = static_cast<double>(inj.stats().transients) / n;
  EXPECT_NEAR(media, 0.02, 0.005);
  EXPECT_NEAR(transient, 0.05, 0.01);
}

TEST(FaultInjector, DiskFailureTimeline) {
  FaultConfig cfg = rate_config(0.0, 0.0);
  cfg.fail_disk = 2;
  cfg.fail_at = ms(10);
  FaultInjector inj(cfg);

  EXPECT_FALSE(inj.disk_dead(2, ms(9)));
  EXPECT_FALSE(inj.disk_failure_due(ms(9)));
  EXPECT_TRUE(inj.disk_failure_due(ms(10)));
  EXPECT_TRUE(inj.disk_dead(2, ms(10)));
  EXPECT_FALSE(inj.disk_dead(1, ms(10)));  // only the configured member

  inj.note_disk_failed();
  EXPECT_FALSE(inj.disk_failure_due(ms(11)));  // acknowledged exactly once
  EXPECT_EQ(inj.stats().disk_failures, 1u);

  // The hot spare absorbs the dead slot: I/O to it succeeds again.
  inj.attach_spare();
  EXPECT_FALSE(inj.disk_dead(2, ms(20)));
}

TEST(FaultInjector, StatusCombineIsWorstOf) {
  EXPECT_EQ(combine(IoStatus::kOk, IoStatus::kOk), IoStatus::kOk);
  EXPECT_EQ(combine(IoStatus::kOk, IoStatus::kTimeout), IoStatus::kTimeout);
  EXPECT_EQ(combine(IoStatus::kMediaError, IoStatus::kTimeout),
            IoStatus::kMediaError);
  EXPECT_EQ(combine(IoStatus::kMediaError, IoStatus::kFailedDevice),
            IoStatus::kFailedDevice);
}

}  // namespace
}  // namespace pod
