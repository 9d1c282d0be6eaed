// ChunkingConfig env parsing, the expected-chunk-size derivation, and the
// unified Chunker facade's dispatch.
#include "dedup/chunking.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hash/hash_engine.hpp"

namespace pod {
namespace {

/// Scoped env var: sets on construction, restores on destruction.
class EnvVar {
 public:
  EnvVar(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    if (value != nullptr)
      setenv(name, value, 1);
    else
      unsetenv(name);
  }
  ~EnvVar() {
    if (had_)
      setenv(name_, old_.c_str(), 1);
    else
      unsetenv(name_);
  }

 private:
  const char* name_;
  bool had_;
  std::string old_;
};

TEST(ChunkingConfig, DefaultsToFixed) {
  EnvVar mode("POD_CHUNKING", nullptr);
  const ChunkingConfig cfg = ChunkingConfig::from_env();
  EXPECT_EQ(cfg.mode, ChunkingMode::kFixed);
  EXPECT_EQ(cfg.fixed_size, kBlockSize);
}

TEST(ChunkingConfig, CdcFromEnv) {
  EnvVar mode("POD_CHUNKING", "cdc");
  const ChunkingConfig cfg = ChunkingConfig::from_env();
  EXPECT_EQ(cfg.mode, ChunkingMode::kCdc);
}

TEST(ChunkingConfig, UnknownModeFallsBackToFixed) {
  EnvVar mode("POD_CHUNKING", "banana");
  EXPECT_EQ(ChunkingConfig::from_env().mode, ChunkingMode::kFixed);
}

TEST(ChunkingConfig, CdcKnobsParsedAndValid) {
  EnvVar mode("POD_CHUNKING", "cdc");
  EnvVar min("POD_CDC_MIN", "4096");
  EnvVar avg("POD_CDC_AVG", "8192");
  EnvVar max("POD_CDC_MAX", "32768");
  const ChunkingConfig cfg = ChunkingConfig::from_env();
  EXPECT_EQ(cfg.rabin.min_chunk, 4096u);
  EXPECT_EQ(cfg.rabin.max_chunk, 32768u);
  // avg - min = 4096 = 2^12.
  EXPECT_EQ(cfg.rabin.mask_bits, 12u);
  // Must construct without tripping RabinChunker's invariants.
  RabinChunker chunker(cfg.rabin);
  EXPECT_EQ(cfg.expected_chunk_bytes(), 4096u + 4096u);
}

TEST(ChunkingConfig, MalformedAndInconsistentKnobsClampNotCrash) {
  EnvVar mode("POD_CHUNKING", "cdc");
  EnvVar min("POD_CDC_MIN", "potato");   // malformed → default
  EnvVar avg("POD_CDC_AVG", "1");        // below min → clamped up
  EnvVar max("POD_CDC_MAX", "2");        // below avg → clamped up
  const ChunkingConfig cfg = ChunkingConfig::from_env();
  EXPECT_GE(cfg.rabin.min_chunk, cfg.rabin.window);
  EXPECT_GT(cfg.rabin.max_chunk, cfg.rabin.min_chunk);
  RabinChunker chunker(cfg.rabin);  // invariants hold
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
    RabinChunker chunker(rc);
    if (expected >= 2048) {
      // Estimate lands near the target for non-degenerate sizes.
      const std::size_t est = rc.min_chunk + (std::size_t{1} << rc.mask_bits);
      EXPECT_GE(est, expected / 2);
      EXPECT_LE(est, expected * 2);
    }
  }
}

TEST(Chunking, FacadeDispatchMatchesUnderlyingChunkers) {
  Rng rng(5);
  std::vector<std::uint8_t> data(96 * 1024);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  HashEngine engine;

  ChunkingConfig fixed_cfg;
  Chunker fixed_facade(fixed_cfg);
  std::vector<DataChunk> got;
  fixed_facade.chunk_into({data.data(), data.size()}, engine, got);
  const std::vector<DataChunk> want_fixed =
      FixedChunker(fixed_cfg.fixed_size).chunk({data.data(), data.size()},
                                               engine);
  ASSERT_EQ(got.size(), want_fixed.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].offset, want_fixed[i].offset);
    EXPECT_EQ(got[i].size, want_fixed[i].size);
    EXPECT_EQ(got[i].fp, want_fixed[i].fp);
  }

  ChunkingConfig cdc_cfg;
  cdc_cfg.mode = ChunkingMode::kCdc;
  Chunker cdc_facade(cdc_cfg);
  cdc_facade.chunk_into({data.data(), data.size()}, engine, got);
  const std::vector<DataChunk> want_cdc =
      RabinChunker(cdc_cfg.rabin).chunk({data.data(), data.size()}, engine);
  ASSERT_EQ(got.size(), want_cdc.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].offset, want_cdc[i].offset);
    EXPECT_EQ(got[i].size, want_cdc[i].size);
    EXPECT_EQ(got[i].fp, want_cdc[i].fp);
  }
}

}  // namespace
}  // namespace pod
