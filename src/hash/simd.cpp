#include "hash/simd.hpp"

#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hpp"
#include "hash/xx64.hpp"

namespace pod {

const char* to_string(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar: return "scalar";
    case SimdTier::kSse42: return "sse";
    case SimdTier::kAvx2: return "avx2";
  }
  return "?";
}

SimdTier max_hw_simd_tier() {
  static const SimdTier tier = [] {
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2")) return SimdTier::kAvx2;
    if (__builtin_cpu_supports("sse4.2")) return SimdTier::kSse42;
#endif
    return SimdTier::kScalar;
  }();
  return tier;
}

namespace detail {

void xx64_bulk_scalar(const std::uint8_t* data, std::size_t stride,
                      std::size_t len, std::size_t n, std::uint64_t seed,
                      std::uint64_t* out) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = xx64(data + i * stride, len, seed);
}

RabinScanResult rabin_scan_scalar(const std::uint8_t* data, std::size_t pos,
                                  std::size_t limit, std::size_t window,
                                  std::uint64_t h, std::uint64_t mask,
                                  std::uint64_t poly,
                                  const std::uint64_t* push,
                                  const std::uint64_t* pop) {
  for (;;) {
    if ((h & mask) == mask) return {pos, h, true};
    if (pos >= limit) return {pos, h, false};
    h = (h - pop[data[pos - window]]) * poly + push[data[pos]];
    ++pos;
  }
}

CtrlMatch32 ctrl_match32_scalar(const std::uint8_t* ctrl, std::uint8_t tag) {
  CtrlMatch32 m;
  for (std::size_t b = 0; b < 32; ++b) {
    if (ctrl[b] == tag) m.eq |= std::uint32_t{1} << b;
    if (ctrl[b] == 0) m.empty |= std::uint32_t{1} << b;
  }
  return m;
}

}  // namespace detail

namespace {

SimdTier clamp_to_hw(SimdTier tier) {
  const SimdTier hw = max_hw_simd_tier();
  return static_cast<int>(tier) <= static_cast<int>(hw) ? tier : hw;
}

/// Cross-checks the vector kernels of `tier` against the scalar reference on
/// deterministic patterns. Covers sub-lane lengths, stripe boundaries, and
/// unaligned bases for xx64; match-found, limit-stop, and tail cases for the
/// Rabin scan. Cheap (a few KB hashed once per process).
bool self_check(SimdTier tier) {
  std::uint8_t buf[1024 + 3];
  for (std::size_t i = 0; i < sizeof(buf); ++i)
    buf[i] = static_cast<std::uint8_t>(i * 131 + 17);

  static constexpr std::size_t kLens[] = {0,  1,  3,  4,  7,  8,  12, 31,
                                          32, 33, 63, 64, 65, 100, 256};
  for (std::size_t len : kLens) {
    for (std::size_t off : {std::size_t{0}, std::size_t{3}}) {
      std::uint64_t ref[3], got[3];
      detail::xx64_bulk_scalar(buf + off, 256, len, 3, 0x12345678, ref);
      xx64_bulk_tier(tier, buf + off, 256, len, 3, 0x12345678, got);
      if (std::memcmp(ref, got, sizeof(ref)) != 0) return false;
    }
  }

  // A toy Rabin setup: small window, loose mask so matches actually occur.
  const std::uint64_t poly = 0xB4E6E0A1F7C25C4BULL;
  std::uint64_t push[256], pop[256];
  std::uint64_t pow_w1 = 1;
  const std::size_t window = 16;
  for (std::size_t i = 0; i + 1 < window; ++i) pow_w1 *= poly;
  for (int b = 0; b < 256; ++b) {
    std::uint64_t z = (static_cast<std::uint64_t>(b) + 1) *
                      0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    push[b] = z ^ (z >> 27);
    pop[b] = push[b] * pow_w1;
  }
  for (std::uint64_t mask : {std::uint64_t{0x3}, std::uint64_t{0x3F},
                             std::uint64_t{0xFFFFF}}) {
    for (std::size_t start : {window, window + 1, window + 5}) {
      std::uint64_t h = 0;
      for (std::size_t i = start - window; i < start; ++i)
        h = h * poly + push[buf[i]];
      for (std::size_t limit : {start, start + 2, start + 3, start + 9,
                                sizeof(buf)}) {
        const RabinScanResult ref = detail::rabin_scan_scalar(
            buf, start, limit, window, h, mask, poly, push, pop);
        const RabinScanResult got = rabin_scan_tier(
            tier, buf, start, limit, window, h, mask, poly, push, pop);
        if (ref.pos != got.pos || ref.h != got.h || ref.found != got.found)
          return false;
      }
    }
  }

  // Control-byte group scan: a synthetic ctrl array with empties, the probed
  // tag, and near-miss tags at every alignment, scanned from several offsets.
  if (tier == SimdTier::kAvx2) {
    std::uint8_t ctrl[96];
    for (std::size_t i = 0; i < sizeof(ctrl); ++i) {
      const std::uint8_t r = static_cast<std::uint8_t>(i * 37 + 11);
      ctrl[i] = (r % 5 == 0) ? 0 : static_cast<std::uint8_t>((r & 0x7F) | 1);
    }
    for (std::uint8_t tag : {std::uint8_t{0x51}, std::uint8_t{0x7F}, ctrl[3]}) {
      for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{17},
                              std::size_t{33}}) {
        const CtrlMatch32 ref = detail::ctrl_match32_scalar(ctrl + off, tag);
        const CtrlMatch32 got = ctrl_match32_tier(tier, ctrl + off, tag);
        if (ref.eq != got.eq || ref.empty != got.empty) return false;
      }
    }
  }
  return true;
}

}  // namespace

SimdTier resolve_simd_tier_from_env() {
  SimdTier tier = max_hw_simd_tier();
  if (const char* env = std::getenv("POD_SIMD")) {
    const std::string v(env);
    if (v == "scalar") tier = SimdTier::kScalar;
    else if (v == "sse") tier = clamp_to_hw(SimdTier::kSse42);
    else if (v == "avx2") tier = clamp_to_hw(SimdTier::kAvx2);
    else
      // A malformed override is reported, then ignored — auto-detection
      // proceeds.
      POD_LOG_WARN(
          "simd: ignoring unrecognized POD_SIMD=\"%s\" "
          "(want scalar | sse | avx2), using hardware default %s",
          env, to_string(tier));
  }
  if (tier != SimdTier::kScalar && !self_check(tier))
    tier = SimdTier::kScalar;  // never run a kernel that diverges from scalar
  return tier;
}

SimdTier active_simd_tier() {
  static const SimdTier tier = resolve_simd_tier_from_env();
  return tier;
}

void xx64_bulk_tier(SimdTier tier, const std::uint8_t* data,
                    std::size_t stride, std::size_t len, std::size_t n,
                    std::uint64_t seed, std::uint64_t* out) {
  switch (clamp_to_hw(tier)) {
    case SimdTier::kAvx2:
      detail::xx64_bulk_avx2(data, stride, len, n, seed, out);
      return;
    case SimdTier::kSse42:
      detail::xx64_bulk_sse(data, stride, len, n, seed, out);
      return;
    case SimdTier::kScalar:
      break;
  }
  detail::xx64_bulk_scalar(data, stride, len, n, seed, out);
}

void xx64_bulk(const std::uint8_t* data, std::size_t stride, std::size_t len,
               std::size_t n, std::uint64_t seed, std::uint64_t* out) {
  xx64_bulk_tier(active_simd_tier(), data, stride, len, n, seed, out);
}

RabinScanResult rabin_scan_tier(SimdTier tier, const std::uint8_t* data,
                                std::size_t pos, std::size_t limit,
                                std::size_t window, std::uint64_t h,
                                std::uint64_t mask, std::uint64_t poly,
                                const std::uint64_t* push,
                                const std::uint64_t* pop) {
  switch (clamp_to_hw(tier)) {
    case SimdTier::kAvx2:
      return detail::rabin_scan_avx2(data, pos, limit, window, h, mask, poly,
                                     push, pop);
    case SimdTier::kSse42:
      return detail::rabin_scan_sse(data, pos, limit, window, h, mask, poly,
                                    push, pop);
    case SimdTier::kScalar:
      break;
  }
  return detail::rabin_scan_scalar(data, pos, limit, window, h, mask, poly,
                                   push, pop);
}

RabinScanResult rabin_scan(const std::uint8_t* data, std::size_t pos,
                           std::size_t limit, std::size_t window,
                           std::uint64_t h, std::uint64_t mask,
                           std::uint64_t poly, const std::uint64_t* push,
                           const std::uint64_t* pop) {
  return rabin_scan_tier(active_simd_tier(), data, pos, limit, window, h, mask,
                         poly, push, pop);
}

CtrlMatch32 ctrl_match32_tier(SimdTier tier, const std::uint8_t* ctrl,
                              std::uint8_t tag) {
  // No SSE 32-lane variant: two 16-byte scans would need the same mask
  // stitching as the scalar loop for no latency win, so sub-AVX2 tiers use
  // the scalar reference (the 16-lane first group stays vectorized either
  // way — see common/ctrl_group.hpp).
  if (clamp_to_hw(tier) == SimdTier::kAvx2)
    return detail::ctrl_match32_avx2(ctrl, tag);
  return detail::ctrl_match32_scalar(ctrl, tag);
}

CtrlMatch32 ctrl_match32(const std::uint8_t* ctrl, std::uint8_t tag) {
  return ctrl_match32_tier(active_simd_tier(), ctrl, tag);
}

bool wide_ctrl_groups() { return active_simd_tier() == SimdTier::kAvx2; }

}  // namespace pod
