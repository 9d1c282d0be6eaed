#include "dedup/chunker.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace pod {

namespace {
constexpr std::uint64_t kPoly = 0xB4E6E0A1F7C25C4BULL;  // odd multiplier

std::uint64_t mix_byte(std::uint64_t b) {
  std::uint64_t z = (b + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  return z ^ (z >> 27);
}
}  // namespace

const char* to_string(ChunkingMode mode) {
  return mode == ChunkingMode::kCdc ? "cdc" : "fixed";
}

RabinConfig ChunkingConfig::rabin_for_expected(std::size_t expected_bytes) {
  RabinConfig cfg;
  // The chunker needs min_chunk >= window and mask_bits in [4, 30]; the
  // smallest honest target is therefore ~window*2 + 2^4.
  const std::size_t floor_bytes = cfg.window * 2 + 16;
  if (expected_bytes < floor_bytes) {
    POD_LOG_WARN("chunking: expected chunk %zu B below floor %zu B, clamping",
                 expected_bytes, floor_bytes);
    expected_bytes = floor_bytes;
  }
  cfg.min_chunk = expected_bytes / 2;
  cfg.max_chunk = expected_bytes * 4;
  // Round 2^mask_bits to the gap between min and the target average.
  const double gap = static_cast<double>(expected_bytes - cfg.min_chunk);
  int bits = static_cast<int>(std::lround(std::log2(gap)));
  if (bits < 4) bits = 4;
  if (bits > 30) bits = 30;
  cfg.mask_bits = static_cast<std::uint32_t>(bits);
  return cfg;
}

std::size_t ChunkingConfig::expected_chunk_bytes() const {
  if (mode == ChunkingMode::kFixed) return fixed_size;
  return rabin.min_chunk + (std::size_t{1} << rabin.mask_bits);
}

Chunker::Chunker(const ChunkingConfig& cfg) : cfg_(cfg) {
  const RabinConfig& r = cfg_.rabin;
  POD_CHECK(cfg_.fixed_size > 0);
  POD_CHECK(r.window >= 16);
  POD_CHECK(r.min_chunk >= r.window);
  POD_CHECK(r.max_chunk > r.min_chunk);
  POD_CHECK(r.mask_bits >= 4 && r.mask_bits <= 30);
  if (cfg_.mode != ChunkingMode::kCdc) return;
  mask_ = (std::uint64_t{1} << r.mask_bits) - 1;

  // The window hash is sum_i T[b_i] * kPoly^(window-1-i). Rolling one byte:
  //   h' = (h - T[out] * kPoly^(window-1)) * kPoly + T[in]
  // pop_table_ holds T[b] * kPoly^(window-1) so the roll is two mults.
  std::uint64_t pow_w1 = 1;
  for (std::size_t i = 0; i + 1 < r.window; ++i) pow_w1 *= kPoly;
  for (int b = 0; b < 256; ++b) {
    push_table_[b] = mix_byte(static_cast<std::uint64_t>(b));
    pop_table_[b] = push_table_[b] * pow_w1;
  }
}

std::vector<DataChunk> Chunker::chunk(std::span<const std::uint8_t> data,
                                      const HashEngine& engine) const {
  std::vector<DataChunk> chunks;
  chunk_into(data, engine, chunks);
  return chunks;
}

void Chunker::chunk_into(std::span<const std::uint8_t> data,
                         const HashEngine& engine,
                         std::vector<DataChunk>& out) const {
  out.clear();
  if (cfg_.mode == ChunkingMode::kFixed)
    out.reserve(data.size() / cfg_.fixed_size + 1);
  std::size_t len = 0;
  for (std::size_t start = 0; start < data.size(); start += len) {
    len = cfg_.mode == ChunkingMode::kCdc
              ? cdc_length(data, start)
              : std::min(cfg_.fixed_size, data.size() - start);
    out.push_back(
        DataChunk{start, len, engine.fingerprint(data.subspan(start, len))});
  }
}

std::size_t Chunker::cdc_length(std::span<const std::uint8_t> data,
                                std::size_t start) const {
  const RabinConfig& r = cfg_.rabin;
  const std::size_t remaining = data.size() - start;
  const std::size_t len = std::min(remaining, r.max_chunk);
  if (remaining <= r.min_chunk) return len;
  // First admissible cut is after min_chunk bytes; prime the window
  // covering the last `window` bytes before that position.
  std::size_t pos = start + r.min_chunk;
  std::uint64_t h = 0;
  for (std::size_t i = pos - r.window; i < pos; ++i)
    h = h * kPoly + push_table_[data[i]];
  // Cut at the first position whose window hash matches the mask, or at
  // max_chunk when none does.
  const std::size_t limit = start + len;
  while ((h & mask_) != mask_ && pos < limit) {
    h = (h - pop_table_[data[pos - r.window]]) * kPoly + push_table_[data[pos]];
    ++pos;
  }
  return pos - start;
}

}  // namespace pod
