// Chunk fingerprints.
//
// A Fingerprint identifies the content of one 4 KB chunk. Real data is
// fingerprinted with SHA-1 (truncated to 128 bits); synthetic traces carry
// abstract 64-bit content ids which are expanded into fingerprints through
// a mixing function, so both paths produce the same value type.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>

namespace pod {

class Fingerprint {
 public:
  static constexpr std::size_t kSize = 16;

  constexpr Fingerprint() : bytes_{} {}

  /// Fingerprint of raw chunk data (truncated SHA-1).
  static Fingerprint of_data(std::span<const std::uint8_t> data);

  /// Fingerprint derived from an abstract content id (synthetic traces).
  static Fingerprint of_content_id(std::uint64_t content_id);

  /// Canonical fingerprint with the given 64-bit prefix (the high lane is
  /// derived deterministically). Used when deserializing the CSV trace
  /// format, which stores only prefix64(). Header-inline: trace loading
  /// calls this once per stored fingerprint.
  static Fingerprint of_prefix(std::uint64_t prefix) {
    const std::uint64_t hi = mix64(prefix ^ 0xD1B54A32D192ED03ULL);
    Fingerprint f;
    std::memcpy(f.bytes_.data(), &prefix, 8);
    std::memcpy(f.bytes_.data() + 8, &hi, 8);
    return f;
  }

  /// First 8 bytes as an integer — used as the hash-table key and as the
  /// on-trace representation. Header-inline: every index-cache, ghost and
  /// map probe hashes through this (tens of millions of calls per replay),
  /// and out of line it was a measurable fraction of a replay's profile.
  std::uint64_t prefix64() const {
    std::uint64_t v;
    std::memcpy(&v, bytes_.data(), 8);
    return v;
  }

  std::string hex() const;

  /// Two inline 64-bit compares. The defaulted form compiles to a libc
  /// memcmp call, and every table probe and dedup candidate check pays it.
  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    std::uint64_t a0, a1, b0, b1;
    std::memcpy(&a0, a.bytes_.data(), 8);
    std::memcpy(&a1, a.bytes_.data() + 8, 8);
    std::memcpy(&b0, b.bytes_.data(), 8);
    std::memcpy(&b1, b.bytes_.data() + 8, 8);
    return ((a0 ^ b0) | (a1 ^ b1)) == 0;
  }
  friend auto operator<=>(const Fingerprint&, const Fingerprint&) = default;

  const std::array<std::uint8_t, kSize>& bytes() const { return bytes_; }

 private:
  /// SplitMix64 finalizer (shared by of_content_id / of_prefix).
  static std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  std::array<std::uint8_t, kSize> bytes_;
};

struct FingerprintHash {
  std::size_t operator()(const Fingerprint& f) const {
    return static_cast<std::size_t>(f.prefix64());
  }
};

}  // namespace pod

template <>
struct std::hash<pod::Fingerprint> {
  std::size_t operator()(const pod::Fingerprint& f) const {
    return pod::FingerprintHash{}(f);
  }
};
