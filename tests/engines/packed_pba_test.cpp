// The 32-bit packed block address: its round trip, and the one loud check
// at engine construction that the volume's PBAs all pack.
#include "common/packed_pba.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "engines/native.hpp"
#include "engines/select_dedupe.hpp"
#include "engine_test_util.hpp"

namespace pod {
namespace {

TEST(PackedPba, NarrowWidenRoundTrip) {
  for (const Pba pba : {Pba{0}, Pba{1}, Pba{123456789}, kPackedPbaLimit - 1})
    EXPECT_EQ(widen_pba(narrow_pba(pba)), pba);
  EXPECT_EQ(narrow_pba(kInvalidPba), kPackedInvalid);
  EXPECT_EQ(widen_pba(kPackedInvalid), kInvalidPba);
  // The reserved mark sits just past the largest admissible PBA.
  EXPECT_EQ(kPackedPbaLimit - 1 + 1, Pba{kPackedMark});
}

/// A volume that only reports a capacity: engine construction reads
/// nothing else.
class SizedVolume : public Volume {
 public:
  explicit SizedVolume(std::uint64_t blocks) : blocks_(blocks) {}
  void submit(VolumeIo) override {}
  std::uint64_t capacity_blocks() const override { return blocks_; }
  std::size_t num_disks() const override { return 0; }
  const Disk& disk(std::size_t) const override { std::abort(); }

 private:
  std::uint64_t blocks_;
};

TEST(PackedPbaRange, EnginesAcceptVolumeAtTheLimit) {
  Simulator sim;
  SizedVolume volume(kPackedPbaLimit);
  const EngineConfig cfg = testutil::small_engine_config();
  NativeEngine native(sim, volume, cfg);
  SelectDedupeEngine select(sim, volume, cfg);
  EXPECT_EQ(native.store().logical_blocks(), cfg.logical_blocks);
  EXPECT_EQ(select.store().logical_blocks(), cfg.logical_blocks);
}

TEST(PackedPbaRangeDeathTest, EngineRefusesVolumePastTheLimit) {
  Simulator sim;
  SizedVolume volume(kPackedPbaLimit + 1);
  const EngineConfig cfg = testutil::small_engine_config();
  // The message names the volume's block count and the packed range.
  EXPECT_DEATH(NativeEngine(sim, volume, cfg),
               "volume of 4294967295 blocks exceeds the 4294967294-block "
               "range of 32-bit block addresses");
  EXPECT_DEATH(SelectDedupeEngine(sim, volume, cfg), "4294967295 blocks");
}

}  // namespace
}  // namespace pod
