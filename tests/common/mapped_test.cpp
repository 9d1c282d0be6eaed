#include "common/mapped.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "hash/fingerprint.hpp"

namespace pod {
namespace {

TEST(ZeroedArray, StartsZeroedAtEverySize) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{1000},
                              std::size_t{3} << 20}) {  // one huge-page span
    ZeroedArray<std::uint32_t> a(n);
    ASSERT_EQ(a.size(), n);
    EXPECT_EQ(a[0], 0u);
    EXPECT_EQ(a[n / 2], 0u);
    EXPECT_EQ(a[n - 1], 0u);
  }
  ZeroedArray<Fingerprint> fps(4096);
  EXPECT_EQ(fps[4095], Fingerprint{});
}

TEST(ZeroedArray, EmptyHoldsNoStorage) {
  ZeroedArray<std::uint64_t> none;
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.data(), nullptr);
  ZeroedArray<std::uint64_t> zero(0);
  EXPECT_EQ(zero.data(), nullptr);
}

TEST(ZeroedArray, MoveTransfersTheStorage) {
  ZeroedArray<std::uint64_t> a(100);
  a[7] = 42;
  const std::uint64_t* data = a.data();
  ZeroedArray<std::uint64_t> b = std::move(a);
  EXPECT_EQ(b.data(), data);
  EXPECT_EQ(b[7], 42u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  ZeroedArray<std::uint64_t> c(3);
  c = std::move(b);
  EXPECT_EQ(c.size(), 100u);
  EXPECT_EQ(c[7], 42u);
}

TEST(ZeroedArray, ResizeKeepsContentsAndZeroesTheTail) {
  ZeroedArray<std::uint32_t> a;
  a.resize(1000);  // from empty
  for (std::uint32_t i = 0; i < 1000; ++i) a[i] = i + 1;
  a.resize(std::size_t{3} << 20);  // past a huge-page span
  ASSERT_EQ(a.size(), std::size_t{3} << 20);
  for (std::uint32_t i = 0; i < 1000; ++i) ASSERT_EQ(a[i], i + 1) << i;
  EXPECT_EQ(a[1000], 0u);
  EXPECT_EQ(a[a.size() - 1], 0u);
  a.resize(10);  // shrink keeps the head
  EXPECT_EQ(a[9], 10u);
  a.resize(0);
  EXPECT_EQ(a.data(), nullptr);
}

TEST(PagedVector, PushBackGrowsWithoutLosingElements) {
  PagedVector<std::uint64_t> v;
  EXPECT_EQ(v.size(), 0u);
  for (std::uint64_t i = 0; i < 100000; ++i) v.push_back(i * 3);
  ASSERT_EQ(v.size(), 100000u);
  for (std::uint64_t i = 0; i < 100000; ++i) ASSERT_EQ(v[i], i * 3) << i;
  v.reserve(1 << 20);  // moves the elements in use, nothing past them
  for (std::uint64_t i = 0; i < 100000; ++i) ASSERT_EQ(v[i], i * 3) << i;
  v.extend_to(100010);  // appended elements read as zero
  EXPECT_EQ(v.size(), 100010u);
  EXPECT_EQ(v[100009], 0u);
  v.extend_to(5);  // never shrinks
  EXPECT_EQ(v.size(), 100010u);
  v.clear();
  EXPECT_EQ(v.size(), 0u);
  v.push_back(7);
  EXPECT_EQ(v[0], 7u);
}

TEST(FileImage, StreamReadIsAlignedAndExact) {
  std::stringstream in(std::string("\x01\x02\x03pod", 6));
  const FileImage image = FileImage::read(in);
  ASSERT_EQ(image.bytes().size(), 6u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(image.bytes().data()) %
                FileImage::kAlign,
            0u);
  EXPECT_EQ(std::memcmp(image.bytes().data(), "\x01\x02\x03pod", 6), 0);
  std::stringstream empty;
  EXPECT_TRUE(FileImage::read(empty).empty());
}

TEST(FileImage, MapReadsTheWholeFileAndReleaseKeepsTheRest) {
  const std::string path = testing::TempDir() + "/pod_mapped_test.bin";
  std::string bytes(5 * 4096 + 123, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<char>(i * 7);
  std::ofstream(path, std::ios::binary) << bytes;

  FileImage image = FileImage::map(path);
  ASSERT_EQ(image.bytes().size(), bytes.size());
  EXPECT_EQ(std::memcmp(image.bytes().data(), bytes.data(), bytes.size()),
            0);
  // Dropping the middle pages leaves the bytes around them readable, and
  // the image still unmaps cleanly when it is destroyed.
  image.release(100, 3 * 4096);
  const auto* data = reinterpret_cast<const char*>(image.bytes().data());
  EXPECT_EQ(std::memcmp(data, bytes.data(), 100), 0);
  EXPECT_EQ(std::memcmp(data + 4 * 4096, bytes.data() + 4 * 4096,
                        bytes.size() - 4 * 4096),
            0);
  FileImage moved = std::move(image);
  EXPECT_EQ(moved.bytes().size(), bytes.size());
  std::filesystem::remove(path);
}

TEST(FileImage, MapRefusesMissingFilesAndAcceptsEmptyOnes) {
  EXPECT_THROW(FileImage::map("/nonexistent/pod_mapped_test.bin"),
               std::runtime_error);
  const std::string path = testing::TempDir() + "/pod_mapped_empty.bin";
  std::ofstream(path, std::ios::binary).close();
  EXPECT_TRUE(FileImage::map(path).empty());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace pod
