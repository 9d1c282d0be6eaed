// The 16-lane control-byte group probe against the plain scalar linear
// probe it replaces: same result, and the same `check` calls in the same
// order (the sequence-point contract in common/ctrl_group.hpp). The control
// arrays carry clusters longer than one group, clusters that wrap across
// the mirror, and homes that start on an empty byte.
#include "common/ctrl_group.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace pod {
namespace {

/// A control array of `n` buckets (a power of two) plus its kCtrlPad mirror
/// bytes: runs of 0–47 full lanes drawn from a four-tag alphabet (so many
/// lanes match), each run followed by one to three empties.
std::vector<std::uint8_t> random_ctrl(Rng& rng, std::size_t n) {
  static constexpr std::uint8_t kTags[] = {0x11, 0x22, 0x33, 0x7F};
  std::vector<std::uint8_t> ctrl(n + kCtrlPad, 0);
  std::size_t i = rng.uniform(0, n - 1);  // the first run may wrap
  std::size_t left = n - 1;               // keeps at least one empty lane
  while (left > 0) {
    const std::size_t run = std::min<std::size_t>(rng.uniform(0, 47), left);
    for (std::size_t r = 0; r < run; ++r, i = (i + 1) & (n - 1))
      ctrl[i] = kTags[rng.uniform(0, 3)];
    left -= run;
    const std::size_t gap = std::min<std::size_t>(rng.uniform(1, 3), left);
    i = (i + gap) & (n - 1);
    left -= gap;
  }
  for (std::size_t m = 0; m < kCtrlPad; ++m) ctrl[n + m] = ctrl[m & (n - 1)];
  return ctrl;
}

TEST(CtrlMatch, ProbeMatchesScalarLinearProbe) {
  Rng rng(0xC7A1);
  std::size_t long_clusters = 0, wrapped = 0, empty_homes = 0;
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = std::size_t{16} << rng.uniform(0, 4);  // 16..256
    const std::size_t mask = n - 1;
    const std::vector<std::uint8_t> ctrl = random_ctrl(rng, n);
    // Buckets whose slot `check` accepts; the rest are tag false positives.
    std::vector<bool> accept(n);
    for (std::size_t j = 0; j < n; ++j) accept[j] = rng.uniform(0, 3) == 0;

    for (std::size_t home = 0; home < n; ++home) {
      for (const std::uint8_t tag : {std::uint8_t{0x11}, std::uint8_t{0x7F},
                                     std::uint8_t{0x55}}) {
        std::vector<std::size_t> want_calls;
        CtrlProbeResult want{};
        for (std::size_t i = home, steps = 0;; i = (i + 1) & mask, ++steps) {
          if (ctrl[i] == 0) {
            want = {i, false};
            break;
          }
          if (ctrl[i] == tag) {
            want_calls.push_back(i);
            if (accept[i]) {
              want = {i, true};
              break;
            }
          }
          if (steps == kCtrlGroup) ++long_clusters;
          if (steps > 0 && i == 0) ++wrapped;
        }
        if (ctrl[home] == 0) ++empty_homes;

        std::vector<std::size_t> got_calls;
        const CtrlProbeResult got =
            ctrl_probe(ctrl.data(), mask, home, tag, [&](std::size_t j) {
              got_calls.push_back(j);
              return accept[j];
            });
        ASSERT_EQ(got.found, want.found)
            << "n=" << n << " home=" << home << " tag=" << int(tag);
        ASSERT_EQ(got.pos, want.pos) << "n=" << n << " home=" << home;
        ASSERT_EQ(got_calls, want_calls) << "n=" << n << " home=" << home;
      }
    }
  }
  // The generator must actually reach every case the probe special-cases.
  EXPECT_GT(long_clusters, 0u);
  EXPECT_GT(wrapped, 0u);
  EXPECT_GT(empty_homes, 0u);
}

TEST(CtrlMatch, GroupScanMatchesBytewiseCompare) {
  Rng rng(0x16);
  std::uint8_t ctrl[64];
  for (int round = 0; round < 64; ++round) {
    for (auto& b : ctrl) {
      const std::uint64_t r = rng.next();
      b = (r & 3) == 0 ? std::uint8_t{0}
                       : static_cast<std::uint8_t>((r & 0x7F) | 1);
    }
    for (const std::uint8_t tag : {ctrl[rng.uniform(0, 63)], std::uint8_t{0x2A},
                                   std::uint8_t{0x7F}}) {
      if (tag == 0) continue;  // the empty marker is never probed as a tag
      for (std::size_t off = 0; off + kCtrlGroup <= sizeof(ctrl); ++off) {
        std::uint32_t eq = 0, empty = 0;
        for (std::size_t b = 0; b < kCtrlGroup; ++b) {
          if (ctrl[off + b] == tag) eq |= std::uint32_t{1} << b;
          if (ctrl[off + b] == 0) empty |= std::uint32_t{1} << b;
        }
        const CtrlMatch16 m = ctrl_match16(ctrl + off, tag);
        ASSERT_EQ(m.eq, eq) << "off=" << off << " tag=" << int(tag);
        ASSERT_EQ(m.empty, empty) << "off=" << off;
      }
    }
  }
}

}  // namespace
}  // namespace pod
