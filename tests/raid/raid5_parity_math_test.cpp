// Parity arithmetic over every single-disk-failure position.
//
// An XOR content model shadows the array: data blocks get symbolic 64-bit
// values, parity blocks are recomputed exactly where plan_write says parity
// is written. If the layout math (rotation, block mapping, per-row parity
// coverage) is right, then for EVERY failure position the lost column is
// reconstructible as the XOR of the survivors at the same disk-local
// offset — which is precisely what degraded reads and rebuild rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "raid/raid5.hpp"

namespace pod {
namespace {

ArrayConfig array_config(std::size_t disks, std::uint64_t unit = 4,
                         std::uint64_t disk_blocks = 64) {
  ArrayConfig cfg;
  cfg.num_disks = disks;
  cfg.stripe_unit_blocks = unit;
  cfg.disk_geometry.total_blocks = disk_blocks;
  return cfg;
}

/// Shadow array: per-disk, per-local-block symbolic contents.
class XorModel {
 public:
  XorModel(const Raid5& r, std::uint64_t unit)
      : raid_(r),
        unit_(unit),
        disks_(r.num_disks()),
        content_(disks_,
                 std::vector<std::uint64_t>(r.disk(0).total_blocks(), 0)),
        to_pba_(disks_, std::vector<Pba>(r.disk(0).total_blocks(),
                                         kInvalidPba)) {
    for (Pba p = 0; p < raid_.capacity_blocks(); ++p) {
      const DiskFragment f = raid_.map_block(p);
      // The mapping must never place data on the row's parity disk.
      EXPECT_NE(f.disk, raid_.parity_disk(f.block / unit_)) << "pba " << p;
      EXPECT_EQ(to_pba_[f.disk][f.block], kInvalidPba) << "pba " << p;
      to_pba_[f.disk][f.block] = p;
    }
  }

  /// Applies one logical write through the array's own plan: data fragments
  /// take fresh symbolic values, parity fragments are recomputed for their
  /// rows from current data.
  void apply(const Raid5::WritePlan& plan) {
    ++generation_;
    std::vector<DiskFragment> parity_frags;
    for (const DiskFragment& f : plan.writes) {
      for (std::uint64_t b = f.block; b < f.block + f.nblocks; ++b) {
        if (f.disk == raid_.parity_disk(b / unit_)) continue;
        const Pba pba = to_pba_[f.disk][b];
        ASSERT_NE(pba, kInvalidPba);
        content_[f.disk][b] = value(pba);
      }
      parity_frags.push_back(f);
    }
    for (const DiskFragment& f : parity_frags) {
      for (std::uint64_t b = f.block; b < f.block + f.nblocks; ++b) {
        const std::size_t pd = raid_.parity_disk(b / unit_);
        if (f.disk != pd) continue;
        std::uint64_t parity = 0;
        for (std::size_t d = 0; d < disks_; ++d)
          if (d != pd) parity ^= content_[d][b];
        content_[pd][b] = parity;
      }
    }
  }

  /// Reconstructs disk `failed` entirely from the survivors and checks the
  /// result against what the model says that disk holds.
  void expect_reconstructible(std::size_t failed) const {
    const std::uint64_t blocks = content_[failed].size();
    for (std::uint64_t b = 0; b < blocks; ++b) {
      std::uint64_t rebuilt = 0;
      for (std::size_t d = 0; d < disks_; ++d)
        if (d != failed) rebuilt ^= content_[d][b];
      ASSERT_EQ(rebuilt, content_[failed][b])
          << "failed disk " << failed << ", local block " << b;
    }
  }

 private:
  std::uint64_t value(Pba pba) const {
    return (pba + 1) * 0x9E3779B97F4A7C15ULL + generation_ * 0xC2B2AE3D27D4EB4FULL;
  }

  const Raid5& raid_;
  std::uint64_t unit_;
  std::size_t disks_;
  std::vector<std::vector<std::uint64_t>> content_;
  std::vector<std::vector<Pba>> to_pba_;
  std::uint64_t generation_ = 0;
};

TEST(Raid5ParityMath, LeftSymmetricRotationIsAPermutation) {
  for (std::size_t n : {3u, 4u, 5u, 8u}) {
    Simulator sim;
    Raid5 r(sim, array_config(n, 4, 16 * n));
    for (std::uint64_t base = 0; base < 3; ++base) {
      std::vector<bool> seen(n, false);
      for (std::uint64_t row = base * n; row < (base + 1) * n; ++row) {
        const std::size_t pd = r.parity_disk(row);
        ASSERT_LT(pd, n);
        EXPECT_FALSE(seen[pd]) << "row " << row;
        seen[pd] = true;
      }
    }
  }
}

TEST(Raid5ParityMath, EveryFailurePositionReconstructsAfterMixedWrites) {
  for (std::size_t n : {3u, 4u, 5u}) {
    SCOPED_TRACE("disks=" + std::to_string(n));
    Simulator sim;
    const ArrayConfig cfg = array_config(n, 4, 48);
    Raid5 r(sim, cfg);
    XorModel model(r, cfg.stripe_unit_blocks);

    // A mix of shapes: small RMW writes, unaligned spans, full stripes,
    // rewrites of the same blocks — pseudo-random but deterministic.
    const std::uint64_t cap = r.capacity_blocks();
    std::uint64_t x = 12345;
    for (int i = 0; i < 200; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const Pba start = (x >> 16) % cap;
      std::uint64_t len = 1 + ((x >> 40) % 24);
      if (start + len > cap) len = cap - start;
      const Raid5::WritePlan plan = r.plan_write(start, len);
      model.apply(plan);
      if (testing::Test::HasFatalFailure()) return;
    }
    // Plus guaranteed full-row writes (the no-pre-read path).
    const std::uint64_t row_data = cfg.stripe_unit_blocks * (n - 1);
    model.apply(r.plan_write(0, row_data));
    model.apply(r.plan_write(row_data, 2 * row_data));

    for (std::size_t failed = 0; failed < n; ++failed)
      model.expect_reconstructible(failed);
  }
}

TEST(Raid5ParityMath, DegradedReadsAvoidEveryFailedPosition) {
  const std::size_t n = 4;
  const ArrayConfig cfg = array_config(n, 4, 64);
  for (std::size_t failed = 0; failed < n; ++failed) {
    SCOPED_TRACE("failed=" + std::to_string(failed));
    Simulator sim;
    Raid5 r(sim, cfg);
    r.fail_disk(failed);
    std::size_t completions = 0;
    const std::uint64_t cap = r.capacity_blocks();
    for (Pba p = 0; p < cap; p += 8)
      r.submit(VolumeIo{OpType::kRead, p, std::min<std::uint64_t>(8, cap - p),
                        [&](IoStatus s) {
                          EXPECT_EQ(s, IoStatus::kOk);
                          ++completions;
                        }});
    sim.run();
    EXPECT_EQ(completions, (cap + 7) / 8);
    EXPECT_EQ(r.disk(failed).stats().reads, 0u);
    for (std::size_t d = 0; d < n; ++d) {
      if (d != failed) {
        EXPECT_GT(r.disk(d).stats().blocks_read, 0u) << "disk " << d;
      }
    }
    EXPECT_GT(r.reconstruction_reads(), 0u);
  }
}

TEST(Raid5ParityMath, RebuildTouchesOnlyTheFailedColumnForWrites) {
  const std::size_t n = 5;
  const ArrayConfig cfg = array_config(n, 4, 40);
  for (std::size_t failed = 0; failed < n; ++failed) {
    SCOPED_TRACE("failed=" + std::to_string(failed));
    Simulator sim;
    Raid5 r(sim, cfg);
    r.fail_disk(failed);
    bool done = false;
    const std::uint64_t rows = r.total_rows();
    const std::uint64_t issued =
        r.rebuild_rows(0, rows, [&](IoStatus) { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(issued, rows);
    // The failed member is written (spare), never read; survivors are read,
    // never written.
    EXPECT_EQ(r.disk(failed).stats().reads, 0u);
    EXPECT_EQ(r.disk(failed).stats().blocks_written,
              rows * cfg.stripe_unit_blocks);
    for (std::size_t d = 0; d < n; ++d) {
      if (d == failed) continue;
      EXPECT_EQ(r.disk(d).stats().writes, 0u) << "disk " << d;
      EXPECT_EQ(r.disk(d).stats().blocks_read, rows * cfg.stripe_unit_blocks)
          << "disk " << d;
    }
  }
}

}  // namespace
}  // namespace pod
