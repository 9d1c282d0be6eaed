// Golden chunk boundaries and fingerprints. The values were recorded from
// the chunkers before the Rabin scan and fixed-size fingerprinting became
// one scalar loop each; any change to the rolling hash, its tables, the cut
// rule or the fingerprint expansion shows up here as a changed offset or
// digest.
#include "dedup/chunker.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace pod {
namespace {

/// The seeded 64 KB buffer every golden below was cut from.
std::vector<std::uint8_t> golden_buffer() {
  Rng rng(0x60D1E5);
  std::vector<std::uint8_t> buf(64 * 1024);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  return buf;
}

std::vector<std::size_t> cdc_offsets(const RabinConfig& rabin) {
  ChunkingConfig cfg;
  cfg.mode = ChunkingMode::kCdc;
  cfg.rabin = rabin;
  HashEngine engine;
  Chunker chunker(cfg);
  std::vector<DataChunk> chunks;
  chunker.chunk_into(golden_buffer(), engine, chunks);
  std::vector<std::size_t> offsets;
  for (const DataChunk& c : chunks) offsets.push_back(c.offset);
  return offsets;
}

TEST(ChunkerGolden, DefaultRabinOffsets) {
  const std::vector<std::size_t> want = {
      0, 5496, 11062, 13482, 15693, 19796, 26785, 36721, 52214, 61508};
  EXPECT_EQ(cdc_offsets(RabinConfig{}), want);
}

TEST(ChunkerGolden, RabinForExpectedOffsets) {
  struct Case {
    std::size_t expected;
    std::vector<std::size_t> offsets;
  };
  const Case cases[] = {
      {2048, {
          0, 1724, 2830, 4578, 5806, 7199, 10067, 12181, 13482, 14551, 15693,
          17157, 19517, 20830, 22299, 23705, 25285, 26785, 28666, 36433, 39342,
          41401, 43357, 46867, 48902, 50401, 52214, 53554, 60621, 63468}},
      {4096, {
          0, 2830, 5154, 10771, 13482, 15693, 19796, 23705, 26785, 36721, 43357,
          50401, 60621, 63468}},
      {8192, {0, 5496, 11062, 15693, 19796, 26785, 36721, 52214, 61508}},
      {16384, {0, 11062, 26785, 36721, 52214}},
      {32768, {0, 36721}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.expected);
    EXPECT_EQ(cdc_offsets(ChunkingConfig::rabin_for_expected(c.expected)),
              c.offsets);
  }
}

struct FixedGolden {
  std::size_t offset;
  std::size_t size;
  const char* fp_hex;
};

void expect_fixed(HashEngineConfig::Algo algo, std::size_t chunk_size,
                  const std::vector<FixedGolden>& want) {
  HashEngineConfig hc;
  hc.algo = algo;
  HashEngine engine(hc);
  ChunkingConfig cfg;
  cfg.fixed_size = chunk_size;
  Chunker chunker(cfg);
  std::vector<DataChunk> got;
  chunker.chunk_into(golden_buffer(), engine, got);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].offset, want[i].offset);
    EXPECT_EQ(got[i].size, want[i].size);
    EXPECT_EQ(got[i].fp.hex(), std::string(want[i].fp_hex));
  }
  EXPECT_EQ(engine.chunks_hashed(), want.size());
}

TEST(ChunkerGolden, FixedSha1Blocks) {
  expect_fixed(HashEngineConfig::Algo::kSha1, 4096, {
      {0, 4096, "c4a4f416584d696700f96b1151adbf83"},
      {4096, 4096, "a933ca4c9f554a28919118e57416b3be"},
      {8192, 4096, "d3e98aafcd8d31c7917a749924d34496"},
      {12288, 4096, "75ee586e0b77d919b4b306432c617d40"},
      {16384, 4096, "4f4475367f383c992e9cd10afd83df3a"},
      {20480, 4096, "7295fa6a3acc7c6414464947e5f6b601"},
      {24576, 4096, "5f6967bb84c0957d41d6a63e46395c7f"},
      {28672, 4096, "8a0b02c47ed9b943e6c9e442f775ba57"},
      {32768, 4096, "45eb423fff83a64ade1b2652d98d6d20"},
      {36864, 4096, "3c5aaf64bac3d80cc24bdb55f2fc8cf3"},
      {40960, 4096, "6d0d644306c5482073fa6c6ce23a2631"},
      {45056, 4096, "06131c8195cddcd73d616b7a792bca34"},
      {49152, 4096, "6a99df04126b357a3fccd78b9ca243c0"},
      {53248, 4096, "44d7ee68bdae7a830c5c84a4a04a0061"},
      {57344, 4096, "c11a571343d928405de99f16591401d4"},
      {61440, 4096, "90dce10367864e2514dffc5c22cce653"},
  });
}

TEST(ChunkerGolden, FixedXx64Blocks) {
  expect_fixed(HashEngineConfig::Algo::kXx64, 4096, {
      {0, 4096, "448d2c989ef29766a43733a261bfd0c6"},
      {4096, 4096, "3db0406013d454427905c5c7e8be00db"},
      {8192, 4096, "861f7c2ec3e3acc125cab7f8b9de5c0c"},
      {12288, 4096, "098017a54de73df10551e1d19ece9a40"},
      {16384, 4096, "bce8ea45cf1a079e17f0a706f7b5639b"},
      {20480, 4096, "a48f81051de516971d3ac9a64e75ae8a"},
      {24576, 4096, "0539c4523538ddb83c2ebe4f1fdc5efc"},
      {28672, 4096, "7dc27b7527c3524e433ecba396a79ab5"},
      {32768, 4096, "de4ccb330fb6e24f27b2b30edf2fe12d"},
      {36864, 4096, "d51b603e8f793f2d370801e5f852525e"},
      {40960, 4096, "4860c71e921b6ba28787cfb36ce88c0a"},
      {45056, 4096, "4c2ee3d57cc9aaa30b17034737503729"},
      {49152, 4096, "7d431986c145c3ff3437dab2f617cb9b"},
      {53248, 4096, "1477ccffc486ad1ff45fdb4585a2daa6"},
      {57344, 4096, "e0163e435bd03f9066cf8b2a04df5c6e"},
      {61440, 4096, "2bd11c0b653dd2319b42e6968ff22c89"},
  });
}

TEST(ChunkerGolden, FixedXx64ShortTail) {
  expect_fixed(HashEngineConfig::Algo::kXx64, 3000, {
      {0, 3000, "1b95ad1f0d73a061d2f4ca93f0731227"},
      {3000, 3000, "66e421afd78d69697cfc1eb86ffdaeff"},
      {6000, 3000, "e374cd8a7979c191f96a7a6f75488248"},
      {9000, 3000, "0e35747bd23944253e02eb511e4afa37"},
      {12000, 3000, "9cf5053b245437c463569b888d771967"},
      {15000, 3000, "a89e109d77f26698421c06953a679433"},
      {18000, 3000, "699e48fe78834cb9ac032c72b943683d"},
      {21000, 3000, "096c68c7a0f143f41e88259f0eb2af66"},
      {24000, 3000, "98fa3d53d1fc63d1a757c3bc3a0b6a0d"},
      {27000, 3000, "ba62d926751e5a948e7bf6e9f0c6ba24"},
      {30000, 3000, "15eec9cb97313d1cc6b2a79f4223ad22"},
      {33000, 3000, "0f630760486e72702c348ad1dd3cb568"},
      {36000, 3000, "417961f31aa6f4b56767ef509068db6f"},
      {39000, 3000, "dd22fd3828c1d844a32f79bc93b4e984"},
      {42000, 3000, "ae3b8148b31d8f738460dcb2e2f7973d"},
      {45000, 3000, "ec8cd3e1543de7b8ec4b14d88e703705"},
      {48000, 3000, "1a6c9da0d556c576c88e8eaf8c20fec3"},
      {51000, 3000, "c68206b89391139ba0734ee60baf2f87"},
      {54000, 3000, "ca801787a351349ae5633e6080035bf4"},
      {57000, 3000, "5adc31dc7654f0893fdb5031304d4635"},
      {60000, 3000, "5b01b8a0fe4744e8b406394d69d87264"},
      {63000, 2536, "d04c492cd63d69ad90eaeb10d433d1ca"},
  });
}

}  // namespace
}  // namespace pod
