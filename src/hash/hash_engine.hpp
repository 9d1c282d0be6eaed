// The fingerprinting engine with its modelled compute latency.
//
// The paper injects a 32 us fingerprint-computation delay per 4 KB chunk
// ("an overestimation for the processors in modern controllers", §IV-A);
// HashEngine reproduces that: it both computes fingerprints for real data
// and reports the simulated latency a request's chunking+hashing costs.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "hash/fingerprint.hpp"

namespace pod {

struct HashEngineConfig {
  /// Modelled fingerprint latency per 4 KB chunk (paper: 32 us).
  Duration per_chunk_latency = us(32);
  /// Fingerprint algorithm for real chunk data. SHA-1 (truncated) is the
  /// paper-faithful default; xx64 is the non-cryptographic fast path.
  enum class Algo { kSha1, kXx64 };
  Algo algo = Algo::kSha1;

  bool operator==(const HashEngineConfig&) const = default;
};

class HashEngine {
 public:
  HashEngine() = default;
  explicit HashEngine(const HashEngineConfig& cfg) : cfg_(cfg) {}

  /// Fingerprints raw data (used when replaying content-bearing workloads).
  Fingerprint fingerprint(std::span<const std::uint8_t> chunk) const;

  /// Simulated latency of fingerprinting `num_chunks` chunks serially.
  Duration latency_for_chunks(std::size_t num_chunks) const {
    return static_cast<Duration>(num_chunks) * cfg_.per_chunk_latency;
  }

  const HashEngineConfig& config() const { return cfg_; }

  std::uint64_t chunks_hashed() const { return chunks_hashed_; }
  /// Accounting hook: engines call this when they fingerprint chunks whose
  /// fingerprints are already carried by the trace (no recompute needed,
  /// but the simulated latency and the counter still apply).
  void note_chunks_hashed(std::size_t n) { chunks_hashed_ += n; }

 private:
  HashEngineConfig cfg_;
  mutable std::uint64_t chunks_hashed_ = 0;
};

}  // namespace pod
