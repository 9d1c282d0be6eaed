// The Chunker in both modes: fixed-size tiling (FixedChunker.*), Rabin
// content-defined cuts (RabinChunker.*), the Rabin config derivation
// (ChunkingConfig.*) and the mode switch (Chunker.*).
#include "dedup/chunker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace pod {
namespace {

std::vector<std::uint8_t> make_data(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = static_cast<std::uint8_t>(seed + i * 31);
  return data;
}

std::vector<std::uint8_t> random_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

Chunker fixed_chunker(std::size_t size = kBlockSize) {
  ChunkingConfig cfg;
  cfg.fixed_size = size;
  return Chunker(cfg);
}

Chunker rabin_chunker(const RabinConfig& rabin = {}) {
  ChunkingConfig cfg;
  cfg.mode = ChunkingMode::kCdc;
  cfg.rabin = rabin;
  return Chunker(cfg);
}

TEST(FixedChunker, ExactMultiple) {
  HashEngine engine;
  const Chunker c = fixed_chunker();
  const auto data = make_data(3 * kBlockSize);
  const auto chunks = c.chunk(data, engine);
  ASSERT_EQ(chunks.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(chunks[i].offset, i * kBlockSize);
    EXPECT_EQ(chunks[i].size, kBlockSize);
  }
}

TEST(FixedChunker, TailChunkShort) {
  HashEngine engine;
  const Chunker c = fixed_chunker();
  const auto data = make_data(kBlockSize + 100);
  const auto chunks = c.chunk(data, engine);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[1].size, 100u);
}

TEST(FixedChunker, EmptyInput) {
  HashEngine engine;
  const Chunker c;
  EXPECT_TRUE(c.chunk({}, engine).empty());
}

TEST(FixedChunker, FingerprintsMatchContent) {
  HashEngine engine;
  const Chunker c = fixed_chunker();
  auto data = make_data(2 * kBlockSize);
  // Make both chunks identical.
  std::copy(data.begin(), data.begin() + kBlockSize, data.begin() + kBlockSize);
  const auto chunks = c.chunk(data, engine);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0].fp, chunks[1].fp);
}

TEST(FixedChunker, DistinctContentDistinctFingerprints) {
  HashEngine engine;
  const Chunker c = fixed_chunker();
  std::vector<std::uint8_t> data(2 * kBlockSize, 0x11);
  std::fill(data.begin() + kBlockSize, data.end(), 0x22);
  const auto chunks = c.chunk(data, engine);
  EXPECT_NE(chunks[0].fp, chunks[1].fp);
}

TEST(FixedChunker, CustomChunkSize) {
  HashEngine engine;
  const Chunker c = fixed_chunker(512);
  const auto data = make_data(2048);
  EXPECT_EQ(c.chunk(data, engine).size(), 4u);
  EXPECT_EQ(c.config().fixed_size, 512u);
}

TEST(FixedChunker, CountsHashedChunks) {
  HashEngine engine;
  const Chunker c = fixed_chunker();
  const auto data = make_data(4 * kBlockSize);
  (void)c.chunk(data, engine);
  EXPECT_EQ(engine.chunks_hashed(), 4u);
}

TEST(RabinChunker, ChunksCoverInputExactly) {
  HashEngine engine;
  const Chunker c = rabin_chunker();
  const auto data = random_data(200 * 1024, 1);
  const auto chunks = c.chunk(data, engine);
  ASSERT_FALSE(chunks.empty());
  std::size_t pos = 0;
  for (const auto& ch : chunks) {
    EXPECT_EQ(ch.offset, pos);
    pos += ch.size;
  }
  EXPECT_EQ(pos, data.size());
}

TEST(RabinChunker, RespectsMinMaxBounds) {
  HashEngine engine;
  const Chunker c = rabin_chunker();
  const auto data = random_data(500 * 1024, 2);
  const auto chunks = c.chunk(data, engine);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_GE(chunks[i].size, c.config().rabin.min_chunk);
    EXPECT_LE(chunks[i].size, c.config().rabin.max_chunk);
  }
}

TEST(RabinChunker, AverageNearTarget) {
  HashEngine engine;
  const Chunker c = rabin_chunker();
  const auto data = random_data(4 * 1024 * 1024, 3);
  const auto chunks = c.chunk(data, engine);
  const double avg = static_cast<double>(data.size()) / chunks.size();
  // Expected ~ min_chunk + 2^mask_bits = 2 KB + 4 KB = 6 KB; allow slack.
  EXPECT_GT(avg, 3.0 * 1024);
  EXPECT_LT(avg, 12.0 * 1024);
}

TEST(RabinChunker, DeterministicBoundaries) {
  HashEngine engine;
  const Chunker c = rabin_chunker();
  const auto data = random_data(256 * 1024, 4);
  const auto a = c.chunk(data, engine);
  const auto b = c.chunk(data, engine);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].fp, b[i].fp);
  }
}

TEST(RabinChunker, BoundariesShiftInvariant) {
  // The defining CDC property: prepending data realigns chunk boundaries
  // after at most one chunk, so most chunks (by content) are preserved.
  HashEngine engine;
  const Chunker c = rabin_chunker();
  const auto base = random_data(512 * 1024, 5);
  std::vector<std::uint8_t> shifted = random_data(1000, 6);
  shifted.insert(shifted.end(), base.begin(), base.end());

  const auto a = c.chunk(base, engine);
  const auto b = c.chunk(shifted, engine);

  std::set<Fingerprint> fps_a;
  for (const auto& ch : a) fps_a.insert(ch.fp);
  std::size_t shared = 0;
  for (const auto& ch : b)
    if (fps_a.count(ch.fp)) ++shared;
  // Most chunks of the shifted stream should reappear.
  EXPECT_GT(shared * 2, a.size());
}

TEST(RabinChunker, ShortInputSingleChunk) {
  HashEngine engine;
  const Chunker c = rabin_chunker();
  const auto data = random_data(1000, 7);  // below min_chunk
  const auto chunks = c.chunk(data, engine);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].size, 1000u);
}

TEST(RabinChunker, EmptyInput) {
  HashEngine engine;
  const Chunker c = rabin_chunker();
  EXPECT_TRUE(c.chunk({}, engine).empty());
}

// Each cut against a reference that hashes every candidate window from
// scratch (no rolling update): the first position at or past min_chunk
// whose window hash matches the mask, else max_chunk (or the input end).
TEST(RabinChunker, BoundariesMatchIndependentReference) {
  RabinConfig cfg;
  cfg.min_chunk = 256;
  cfg.max_chunk = 2048;
  cfg.mask_bits = 6;
  const Chunker chunker = rabin_chunker(cfg);
  HashEngineConfig hc;
  hc.algo = HashEngineConfig::Algo::kXx64;
  HashEngine engine(hc);
  const std::vector<std::uint8_t> buf = random_data(32 * 1024, 0xFEED);

  constexpr std::uint64_t kPoly = 0xB4E6E0A1F7C25C4BULL;
  std::uint64_t push[256];
  for (int b = 0; b < 256; ++b) {
    std::uint64_t z = (static_cast<std::uint64_t>(b) + 1) *
                      0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    push[b] = z ^ (z >> 27);
  }
  const std::uint64_t mask = (std::uint64_t{1} << cfg.mask_bits) - 1;
  const auto window_hash = [&](std::size_t end) {
    std::uint64_t h = 0;
    for (std::size_t i = end - cfg.window; i < end; ++i)
      h = h * kPoly + push[buf[i]];
    return h;
  };

  const std::vector<DataChunk> chunks = chunker.chunk(buf, engine);
  ASSERT_GT(chunks.size(), 10u);
  std::size_t start = 0;
  for (const DataChunk& c : chunks) {
    ASSERT_EQ(c.offset, start);
    const std::size_t remaining = buf.size() - start;
    std::size_t want = std::min(remaining, cfg.max_chunk);
    if (remaining > cfg.min_chunk) {
      for (std::size_t pos = start + cfg.min_chunk; pos <= start + want; ++pos)
        if ((window_hash(pos) & mask) == mask) {
          want = pos - start;
          break;
        }
    }
    EXPECT_EQ(c.size, want) << "at offset " << start;
    EXPECT_EQ(c.fp, engine.fingerprint({buf.data() + start, c.size}));
    start += c.size;
  }
  EXPECT_EQ(start, buf.size());
}

TEST(RabinChunkerDeathTest, RejectsBadConfig) {
  RabinConfig bad;
  bad.min_chunk = 8;  // < window
  EXPECT_DEATH(rabin_chunker(bad), "POD_CHECK");
}

TEST(ChunkingConfig, DefaultsToFixed) {
  const ChunkingConfig cfg;
  EXPECT_EQ(cfg.mode, ChunkingMode::kFixed);
  EXPECT_EQ(cfg.fixed_size, kBlockSize);
  EXPECT_EQ(cfg.expected_chunk_bytes(), kBlockSize);
}

TEST(ChunkingConfig, RabinForExpectedSatisfiesInvariants) {
  for (const std::size_t expected :
       {std::size_t{128}, std::size_t{2048}, std::size_t{4096},
        std::size_t{8192}, std::size_t{16384}, std::size_t{65536}}) {
    SCOPED_TRACE(expected);
    const RabinConfig rc = ChunkingConfig::rabin_for_expected(expected);
    EXPECT_GE(rc.min_chunk, rc.window);
    EXPECT_GT(rc.max_chunk, rc.min_chunk);
    EXPECT_GE(rc.mask_bits, 4u);
    EXPECT_LE(rc.mask_bits, 30u);
    (void)rabin_chunker(rc);  // the Chunker's POD_CHECKs hold
    if (expected >= 2048) {
      // Estimate lands near the target for non-degenerate sizes.
      const std::size_t est = rc.min_chunk + (std::size_t{1} << rc.mask_bits);
      EXPECT_GE(est, expected / 2);
      EXPECT_LE(est, expected * 2);
    }
  }
}

// The mode alone picks the cut rule: the same config cuts fixed tiles in
// kFixed and content-defined chunks in kCdc, and chunk() and chunk_into()
// agree in both.
TEST(Chunker, ModeSelectsCutRule) {
  const std::vector<std::uint8_t> data = random_data(96 * 1024, 5);
  HashEngine engine;
  ChunkingConfig cfg;
  for (const ChunkingMode mode : {ChunkingMode::kFixed, ChunkingMode::kCdc}) {
    SCOPED_TRACE(to_string(mode));
    cfg.mode = mode;
    const Chunker chunker(cfg);
    EXPECT_EQ(chunker.mode(), mode);
    std::vector<DataChunk> got(3);  // chunk_into clears stale contents
    chunker.chunk_into(data, engine, got);
    const std::vector<DataChunk> want = chunker.chunk(data, engine);
    ASSERT_EQ(got.size(), want.size());
    bool all_fixed = true;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].offset, want[i].offset);
      EXPECT_EQ(got[i].size, want[i].size);
      EXPECT_EQ(got[i].fp, want[i].fp);
      all_fixed = all_fixed && got[i].offset == i * cfg.fixed_size &&
                  got[i].size == cfg.fixed_size;
    }
    EXPECT_EQ(all_fixed, mode == ChunkingMode::kFixed);
  }
}

}  // namespace
}  // namespace pod
