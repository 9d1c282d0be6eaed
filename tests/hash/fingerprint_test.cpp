#include "hash/fingerprint.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <type_traits>
#include <unordered_set>
#include <vector>

namespace pod {
namespace {

TEST(Fingerprint, DefaultIsZero) {
  Fingerprint f;
  EXPECT_EQ(f.prefix64(), 0u);
  for (std::uint8_t b : f.bytes()) EXPECT_EQ(b, 0);
}

TEST(Fingerprint, ContentIdIsDeterministic) {
  EXPECT_EQ(Fingerprint::of_content_id(42), Fingerprint::of_content_id(42));
}

TEST(Fingerprint, DistinctContentIdsDistinctFingerprints) {
  std::set<std::uint64_t> prefixes;
  for (std::uint64_t id = 0; id < 10000; ++id)
    prefixes.insert(Fingerprint::of_content_id(id).prefix64());
  EXPECT_EQ(prefixes.size(), 10000u);
}

TEST(Fingerprint, PrefixRoundTrip) {
  // of_prefix(prefix64()) must reproduce the full synthetic fingerprint —
  // the CSV trace format depends on this.
  for (std::uint64_t id : {0ULL, 1ULL, 42ULL, 1ULL << 40, ~0ULL}) {
    const Fingerprint f = Fingerprint::of_content_id(id);
    EXPECT_EQ(Fingerprint::of_prefix(f.prefix64()), f);
  }
}

TEST(Fingerprint, OfDataMatchesSha1Prefix) {
  const std::vector<std::uint8_t> data{'a', 'b', 'c'};
  const Fingerprint f = Fingerprint::of_data(data);
  // SHA-1("abc") = a9993e36 4706816a ba3e2571 7850c26c 9cd0d89d
  EXPECT_EQ(f.hex(), "a9993e364706816aba3e25717850c26c");
}

TEST(Fingerprint, OfDataDistinguishesContent) {
  const std::vector<std::uint8_t> a{1, 2, 3};
  const std::vector<std::uint8_t> b{1, 2, 4};
  EXPECT_NE(Fingerprint::of_data(a), Fingerprint::of_data(b));
}

// Fingerprint is trivially copyable; tests build exact byte patterns.
static_assert(std::is_trivially_copyable_v<Fingerprint>);

Fingerprint from_halves(std::uint64_t lo, std::uint64_t hi) {
  Fingerprint f;
  auto* bytes = reinterpret_cast<unsigned char*>(&f);
  std::memcpy(bytes, &lo, 8);
  std::memcpy(bytes + 8, &hi, 8);
  return f;
}

TEST(Fingerprint, EqualityComparesBothHalves) {
  const Fingerprint base = from_halves(0x0123456789ABCDEFull, 0xFEDCBA9876543210ull);
  EXPECT_EQ(base.prefix64(), 0x0123456789ABCDEFull);
  // Identical in both halves.
  EXPECT_EQ(base, from_halves(0x0123456789ABCDEFull, 0xFEDCBA9876543210ull));
  // Differs only in the low half (the prefix the tables hash on).
  EXPECT_NE(base, from_halves(0x0123456789ABCDEEull, 0xFEDCBA9876543210ull));
  // Differs only in the high half: same prefix, same hash, different key.
  EXPECT_NE(base, from_halves(0x0123456789ABCDEFull, 0x7EDCBA9876543210ull));
  EXPECT_NE(base, from_halves(0x0123456789ABCDEFull, 0xFEDCBA9876543211ull));
  // == agrees with the defaulted three-way comparison.
  const Fingerprint hi_only = from_halves(0x0123456789ABCDEFull, 0x1ull);
  EXPECT_EQ(base == hi_only, (base <=> hi_only) == 0);
  EXPECT_EQ(base == base, (base <=> base) == 0);
}

TEST(Fingerprint, OrderingIsTotal) {
  const Fingerprint a = Fingerprint::of_content_id(1);
  const Fingerprint b = Fingerprint::of_content_id(2);
  EXPECT_TRUE((a < b) || (b < a));
  EXPECT_FALSE(a < a);
}

TEST(Fingerprint, HashUsableInUnorderedSet) {
  std::unordered_set<Fingerprint, FingerprintHash> set;
  for (std::uint64_t id = 0; id < 1000; ++id)
    set.insert(Fingerprint::of_content_id(id));
  EXPECT_EQ(set.size(), 1000u);
  EXPECT_TRUE(set.count(Fingerprint::of_content_id(500)) > 0);
  EXPECT_EQ(set.count(Fingerprint::of_content_id(5000)), 0u);
}

TEST(Fingerprint, StdHashSpecialization) {
  std::unordered_set<Fingerprint> set;
  set.insert(Fingerprint::of_content_id(7));
  EXPECT_EQ(set.size(), 1u);
}

TEST(Fingerprint, HexLength) {
  EXPECT_EQ(Fingerprint::of_content_id(9).hex().size(), 32u);
}

}  // namespace
}  // namespace pod
