// Chunking of raw byte streams into fingerprintable chunks.
//
// POD's prototype chunks at a fixed 4 KB (block-device granularity);
// ChunkingMode::kFixed reproduces that. ChunkingMode::kCdc is a
// content-defined extension for file-level workloads (CdcStore, Fig. 12):
// a cut falls where a Rabin-style rolling hash of the last `window` bytes
// matches a mask, so an insertion shifts boundaries only locally.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "hash/hash_engine.hpp"

namespace pod {

struct DataChunk {
  std::size_t offset = 0;
  std::size_t size = 0;
  Fingerprint fp;
};

enum class ChunkingMode { kFixed, kCdc };

const char* to_string(ChunkingMode mode);

struct RabinConfig {
  std::size_t window = 48;
  std::size_t min_chunk = 2 * 1024;
  std::size_t max_chunk = 16 * 1024;
  /// Expected average chunk = min_chunk + 2^mask_bits (roughly).
  std::uint32_t mask_bits = 12;  // ~4 KB average beyond the minimum
};

struct ChunkingConfig {
  ChunkingMode mode = ChunkingMode::kFixed;
  std::size_t fixed_size = kBlockSize;
  RabinConfig rabin;

  /// Derives a RabinConfig whose expected chunk size is ~`expected_bytes`:
  /// min = expected/2, mask sized so min + 2^mask_bits = expected, max =
  /// 4x expected — the conventional 0.5x/4x spread around the target.
  /// `expected_bytes` is clamped so the result satisfies the Chunker's
  /// invariants (window <= min < max, mask_bits in [4, 30]).
  static RabinConfig rabin_for_expected(std::size_t expected_bytes);

  /// Expected chunk size this config produces (fixed_size or the Rabin
  /// min + 2^mask_bits estimate).
  std::size_t expected_chunk_bytes() const;
};

class Chunker {
 public:
  /// POD_CHECKs the config: fixed_size > 0, window >= 16,
  /// window <= min_chunk < max_chunk, mask_bits in [4, 30].
  explicit Chunker(const ChunkingConfig& cfg = {});

  /// Splits `data` into chunks (the last may be short) and fingerprints
  /// each through `engine`.
  std::vector<DataChunk> chunk(std::span<const std::uint8_t> data,
                               const HashEngine& engine) const;

  /// Steady-state variant: clears and refills `out`, reusing its capacity,
  /// so the ingest loop allocates nothing once `out` reaches the largest
  /// object seen.
  void chunk_into(std::span<const std::uint8_t> data, const HashEngine& engine,
                  std::vector<DataChunk>& out) const;

  ChunkingMode mode() const { return cfg_.mode; }
  const ChunkingConfig& config() const { return cfg_; }

 private:
  /// Length of the content-defined chunk starting at `start`.
  std::size_t cdc_length(std::span<const std::uint8_t> data,
                         std::size_t start) const;

  ChunkingConfig cfg_;
  std::uint64_t mask_ = 0;
  // Byte-in/byte-out tables for the rolling polynomial hash (CDC mode).
  std::uint64_t push_table_[256] = {};
  std::uint64_t pop_table_[256] = {};
};

}  // namespace pod
