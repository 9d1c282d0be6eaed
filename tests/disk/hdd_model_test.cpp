#include "disk/hdd_model.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace pod {
namespace {

TEST(HddModel, DefaultsAreSane) {
  HddModel m;
  EXPECT_GT(m.total_blocks(), 0u);
  EXPECT_GT(m.num_cylinders(), 1u);
  // 7200 RPM -> 8.33 ms rotation.
  EXPECT_NEAR(to_ms(m.rotation_period()), 8.333, 0.01);
}

TEST(HddModel, CylinderMappingMonotonic) {
  HddModel m;
  std::uint64_t prev = 0;
  for (std::uint64_t b = 0; b < m.total_blocks(); b += m.total_blocks() / 100) {
    const std::uint64_t c = m.cylinder_of(b);
    EXPECT_GE(c, prev);
    EXPECT_LT(c, m.num_cylinders());
    prev = c;
  }
}

TEST(HddModel, ZonedDensityDecreasesInward) {
  HddModel m;
  EXPECT_GE(m.blocks_per_track(0), m.blocks_per_track(m.num_cylinders() - 1));
  EXPECT_EQ(m.blocks_per_track(0), m.geometry().blocks_per_track_outer);
}

TEST(HddModel, SeekZeroForSameCylinder) {
  HddModel m;
  EXPECT_EQ(m.seek_time(10, 10), 0);
}

TEST(HddModel, SeekMatchesCalibrationPoints) {
  HddModel m;
  // Track-to-track.
  EXPECT_EQ(m.seek_time(0, 1), m.timing().seek_track_to_track);
  // Average: one-third stroke distance should land near seek_average.
  const std::uint64_t third = m.num_cylinders() / 3;
  EXPECT_NEAR(to_ms(m.seek_time(0, third)), to_ms(m.timing().seek_average), 0.5);
}

TEST(HddModel, SeekCappedAtFullStroke) {
  HddModel m;
  const Duration full = m.seek_time(0, m.num_cylinders() - 1);
  EXPECT_LE(full, m.timing().seek_full_stroke);
  EXPECT_GT(full, m.timing().seek_average);
}

TEST(HddModel, SeekMonotonicInDistance) {
  HddModel m;
  Duration prev = 0;
  for (std::uint64_t d = 1; d < m.num_cylinders(); d += m.num_cylinders() / 50) {
    const Duration t = m.seek_time(0, d);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(HddModel, SeekSymmetric) {
  HddModel m;
  EXPECT_EQ(m.seek_time(100, 400), m.seek_time(400, 100));
}

TEST(HddModel, RotationalDelayWithinOneRevolution) {
  HddModel m;
  for (SimTime t : {SimTime{0}, SimTime{123456}, SimTime{98765432}}) {
    for (double angle : {0.0, 0.25, 0.5, 0.99}) {
      const Duration d = m.rotational_delay(angle, t);
      EXPECT_GE(d, 0);
      EXPECT_LT(d, m.rotation_period());
    }
  }
}

TEST(HddModel, RotationalDelayZeroWhenAligned) {
  HddModel m;
  // At t = 0 the head is at angle 0.
  EXPECT_EQ(m.rotational_delay(0.0, 0), 0);
}

// The media time of `blocks` blocks at block 0: a sequential op's service
// has no seek and no rotation, only transfer and the controller overhead.
Duration transfer_at_zero(const HddModel& m, std::uint64_t blocks) {
  return m.service(0, m.cylinder_of(0), 0, blocks, 0, true).transfer;
}

TEST(HddModel, TransferScalesWithBlocks) {
  HddModel m;
  const Duration one = transfer_at_zero(m, 1);
  const Duration ten = transfer_at_zero(m, 10);
  EXPECT_GT(one, 0);
  EXPECT_NEAR(static_cast<double>(ten), 10.0 * static_cast<double>(one),
              static_cast<double>(one) * 0.01);
}

TEST(HddModel, TransferRateRealistic) {
  HddModel m;
  // Outer zone: 256 blocks (1 MiB) per 8.33 ms track -> ~120 MB/s.
  const double mb_per_s = 1.0 / (to_sec(transfer_at_zero(m, 256)));
  EXPECT_GT(mb_per_s, 60.0);
  EXPECT_LT(mb_per_s, 250.0);
}

TEST(HddModel, ServiceSequentialSkipsSeekAndRotation) {
  HddModel m;
  const auto s = m.service(/*head=*/5, m.cylinder_of(12345), /*block=*/12345,
                           /*blocks=*/8, /*at=*/ms(100),
                           /*sequential_hint=*/true);
  EXPECT_EQ(s.seek, 0);
  EXPECT_EQ(s.rotation, 0);
  EXPECT_GT(s.transfer, 0);
  EXPECT_EQ(s.overhead, m.timing().controller_overhead);
}

TEST(HddModel, ServiceRandomIncludesAllComponents) {
  HddModel m;
  const std::uint64_t far_block = m.total_blocks() - 100;
  const auto s = m.service(0, m.cylinder_of(far_block), far_block, 1, ms(1),
                           false);
  EXPECT_GT(s.seek, 0);
  EXPECT_GE(s.rotation, 0);
  EXPECT_GT(s.transfer, 0);
  EXPECT_EQ(s.total(), s.seek + s.rotation + s.transfer + s.overhead);
}

TEST(HddModel, TypicalRandomReadLatencyRealistic) {
  HddModel m;
  // A random 4KB op across a third of the disk: seek + ~half rotation +
  // tiny transfer. Expect single-digit-to-20 ms.
  const std::uint64_t block = m.total_blocks() / 3;
  const auto s = m.service(0, m.cylinder_of(block), block, 1, ms(7), false);
  EXPECT_GT(to_ms(s.total()), 2.0);
  EXPECT_LT(to_ms(s.total()), 25.0);
}

TEST(HddModelDeathTest, OutOfRangeOpAborts) {
  HddModel m;
  EXPECT_DEATH((void)m.service(0, m.num_cylinders() - 1, m.total_blocks(), 1,
                               0, false),
               "POD_CHECK");
  EXPECT_DEATH((void)m.service(0, 0, 0, 0, 0, false), "POD_CHECK");
}

// service() reads the carried cylinder and one track density; it must
// equal the composition of the per-component functions bit for bit, at
// every head position, block, length, time and sequential hint, on the
// default geometry and on a small one whose zones are a few cylinders wide.
TEST(HddModel, ServiceMatchesComponentFunctionsBitExact) {
  HddGeometry small;
  small.total_blocks = 40000;
  small.blocks_per_track_outer = 37;
  small.blocks_per_track_inner = 11;
  small.tracks_per_cylinder = 3;
  for (const HddModel& m : {HddModel(), HddModel(small, HddTiming{})}) {
    Rng rng(2024);
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t head = rng.uniform(0, m.num_cylinders() - 1);
      const std::uint64_t blocks = 1 + rng.uniform(0, 63);
      const std::uint64_t block = rng.uniform(0, m.total_blocks() - blocks);
      const SimTime at = static_cast<SimTime>(rng.uniform(0, 1ull << 45));
      const bool sequential = rng.chance(0.3);
      const auto s =
          m.service(head, m.cylinder_of(block), block, blocks, at, sequential);
      // The transfer and angle formulas are written out here, independent
      // of service()'s private helpers.
      const std::uint32_t bpt = m.blocks_per_track(m.cylinder_of(block));
      const double per_block = static_cast<double>(m.rotation_period()) /
                               static_cast<double>(bpt);
      const Duration transfer =
          static_cast<Duration>(per_block * static_cast<double>(blocks));
      const double angle = static_cast<double>(block % bpt) /
                           static_cast<double>(bpt);
      const Duration seek =
          sequential ? 0 : m.seek_time(head, m.cylinder_of(block));
      const Duration rotation =
          sequential ? 0 : m.rotational_delay(angle, at + seek);
      ASSERT_EQ(s.seek, seek) << i;
      ASSERT_EQ(s.rotation, rotation) << i;
      ASSERT_EQ(s.transfer, transfer) << i;
      ASSERT_EQ(s.overhead, m.timing().controller_overhead) << i;
    }
  }
}

}  // namespace
}  // namespace pod
