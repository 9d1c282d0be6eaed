// Order-sensitive 64-bit state digests: DedupEngine::state_digest and the
// tables it walks fold their contents into one of these, so a test can ask
// "did two engines end in the same state" with one compare. Not a content
// hash for storage; collisions are merely improbable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace pod {

class StateDigest {
 public:
  void add(std::uint64_t v) { h_ = mix(h_ ^ v) + 0x9E3779B97F4A7C15ULL; }

  /// Folds `n` bytes in 8-byte words (a short tail is zero-padded).
  void add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (; n >= 8; p += 8, n -= 8) {
      std::uint64_t w;
      std::memcpy(&w, p, 8);
      add(w);
    }
    if (n > 0) {
      std::uint64_t w = 0;
      std::memcpy(&w, p, n);
      add(w);
    }
  }

  std::uint64_t value() const { return h_; }

  /// SplitMix64 finalizer: a bijection, so every added word moves the
  /// digest. Also the term of order-free sums (a walk over a large array
  /// sums independent per-entry terms instead of chaining them, which
  /// keeps the walk throughput-bound).
  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:

  std::uint64_t h_ = 0;
};

}  // namespace pod
