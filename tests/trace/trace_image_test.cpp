// Hostile-input sweep for the PODTRC05 trace image. The loader trusts
// nothing in the file: a flipped byte anywhere (header, name, each column,
// padding, blob) fails the checksum; header counts and offsets are bounded
// by the real file size before anything is allocated; and a structurally
// wrong image with a valid checksum is still refused by the layout and
// per-request checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "image_bytes.hpp"
#include "trace/request.hpp"
#include "trace/trace_io.hpp"

namespace pod {
namespace {

using test::expect_refused;
using test::header_of;
using test::image_of;
using test::put_header;
using test::reseal;

Fingerprint fp(std::uint64_t id) { return Fingerprint::of_content_id(id); }

/// Mixed reads and writes with an odd request count and a name length
/// that is not a multiple of the column alignment, so every gap between
/// blocks holds padding.
Trace hostile_trace() {
  Trace t;
  t.name = "hostile";
  std::vector<Fingerprint> fps;
  for (std::uint64_t i = 0; i < 7; ++i) {
    IoRequest r;
    r.arrival = static_cast<SimTime>(i) * 1000;
    r.type = i % 3 == 1 ? OpType::kRead : OpType::kWrite;
    r.lba = i * 16;
    r.nblocks = static_cast<std::uint32_t>(1 + i % 3);
    r.stream = static_cast<std::uint32_t>(i % 2);
    if (r.is_write()) {
      fps.clear();
      for (std::uint32_t b = 0; b < r.nblocks; ++b)
        fps.push_back(fp(i * 16 + b));
      t.append(r, fps);
    } else {
      t.append(r);
    }
  }
  t.warmup_count = 2;
  return t;
}

/// The block of the image that holds byte `pos`, for failure messages.
std::string region_of(const TraceImageHeader& h, std::size_t pos) {
  struct Block {
    const char* name;
    std::uint64_t off, bytes;
  };
  const Block blocks[] = {
      {"header", 0, sizeof(TraceImageHeader)},
      {"name", sizeof(TraceImageHeader), h.name_bytes},
      {"arrival", h.arrival_off, h.requests * sizeof(SimTime)},
      {"lba", h.lba_off, h.requests * sizeof(Lba)},
      {"nblocks", h.nblocks_off, h.requests * sizeof(std::uint32_t)},
      {"stream", h.stream_off, h.requests * sizeof(std::uint32_t)},
      {"type", h.type_off, h.requests},
      {"blob", h.fp_off, h.fingerprints * sizeof(Fingerprint)},
  };
  for (const Block& b : blocks)
    if (pos >= b.off && pos < b.off + b.bytes) return b.name;
  return "padding";
}

TEST(TraceImage, ColumnsAreAlignedAndTheHeaderDescribesTheFile) {
  const std::string bytes = image_of(hostile_trace());
  const TraceImageHeader h = header_of(bytes);
  EXPECT_EQ(std::string(h.magic, 8), "PODTRC05");
  EXPECT_EQ(h.file_bytes, bytes.size());
  EXPECT_EQ(h.requests, 7u);
  EXPECT_EQ(h.warmup, 2u);
  EXPECT_EQ(h.fingerprints, 1u + 3u + 1u + 3u + 1u);  // the five writes
  for (const std::uint64_t off : {h.arrival_off, h.lba_off, h.nblocks_off,
                                  h.stream_off, h.type_off, h.fp_off})
    EXPECT_EQ(off % kTraceColumnAlign, 0u) << off;
}

TEST(TraceImage, FlippedByteInEveryRegionIsRefused) {
  const std::string bytes = image_of(hostile_trace());
  const TraceImageHeader h = header_of(bytes);
  std::vector<std::string> seen;
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x20);
    std::stringstream in(corrupt);
    EXPECT_THROW(read_trace_binary(in), std::runtime_error)
        << "flip at " << pos << " (" << region_of(h, pos) << ")";
    const std::string region = region_of(h, pos);
    if (std::find(seen.begin(), seen.end(), region) == seen.end())
      seen.push_back(region);
  }
  // The sweep really covered every kind of byte the format has.
  for (const char* region : {"header", "name", "arrival", "lba", "nblocks",
                             "stream", "type", "blob", "padding"})
    EXPECT_NE(std::find(seen.begin(), seen.end(), region), seen.end())
        << region;
}

TEST(TraceImage, HeaderCountsBeyondTheFileAreRefusedBeforeAllocating) {
  // Each edit is resealed, so only the size bounds stand between the count
  // and a reserve of that many requests or a name of that many bytes. The
  // refusal must be that bound (a std::runtime_error), not a bad_alloc.
  const std::string good = image_of(hostile_trace());
  const std::uint64_t huge = std::uint64_t{1} << 60;
  for (int field = 0; field < 4; ++field) {
    std::string bytes = good;
    TraceImageHeader h = header_of(bytes);
    if (field == 0) h.requests = huge;
    if (field == 1) h.fingerprints = huge;
    if (field == 2) h.name_bytes = huge;
    if (field == 3) h.requests = bytes.size();  // fits u64 math, not the file
    put_header(bytes, h);
    reseal(bytes);
    expect_refused(bytes, "exceed the file size");
  }
}

TEST(TraceImage, OffsetsBeyondOrInsideTheFileMustMatchTheLayout) {
  const std::string good = image_of(hostile_trace());
  for (int column = 0; column < 6; ++column) {
    for (const std::uint64_t shift :
         {std::uint64_t{16}, std::uint64_t{1} << 40}) {
      std::string bytes = good;
      TraceImageHeader h = header_of(bytes);
      std::uint64_t* offs[] = {&h.arrival_off, &h.lba_off, &h.nblocks_off,
                               &h.stream_off,  &h.type_off, &h.fp_off};
      *offs[column] += shift;  // still aligned, but not where the data is
      put_header(bytes, h);
      reseal(bytes);
      expect_refused(bytes, "column layout");
    }
  }
}

TEST(TraceImage, MisalignedColumnOffsetIsRefused) {
  const std::string good = image_of(hostile_trace());
  for (int column = 0; column < 6; ++column) {
    std::string bytes = good;
    TraceImageHeader h = header_of(bytes);
    std::uint64_t* offs[] = {&h.arrival_off, &h.lba_off, &h.nblocks_off,
                             &h.stream_off,  &h.type_off, &h.fp_off};
    *offs[column] += 4;
    put_header(bytes, h);
    reseal(bytes);
    expect_refused(bytes, "misaligned column");
  }
}

TEST(TraceImage, FileSizeMustMatchTheHeader) {
  std::string longer = image_of(hostile_trace());
  longer.push_back('\0');
  expect_refused(longer, "longer than its header says");
  std::string shorter = image_of(hostile_trace());
  shorter.pop_back();
  expect_refused(shorter, "truncated");
}

TEST(TraceImage, PerRequestChecksHoldUnderAValidChecksum) {
  const std::string good = image_of(hostile_trace());
  const TraceImageHeader h = header_of(good);

  std::string bytes = good;
  const std::uint32_t zero = 0;
  std::memcpy(bytes.data() + h.nblocks_off + sizeof(std::uint32_t), &zero,
              sizeof(zero));  // request 1 is a read
  reseal(bytes);
  expect_refused(bytes, "zero-length request");

  bytes = good;
  TraceImageHeader bad = h;
  bad.warmup = h.requests + 1;
  put_header(bytes, bad);
  reseal(bytes);
  expect_refused(bytes, "bad warmup count");

  // A write turned into a read leaves its fingerprints unclaimed.
  bytes = good;
  bytes[h.type_off] = static_cast<char>(OpType::kRead);
  reseal(bytes);
  expect_refused(bytes, "fingerprint blob underrun");
}

TEST(TraceImage, EmptyAndReadOnlyTracesRoundTrip) {
  Trace empty;
  empty.name = "";
  std::stringstream a(image_of(empty));
  const Trace back = read_trace_binary(a);
  EXPECT_TRUE(back.requests.empty());
  EXPECT_EQ(back.arena().size(), 0u);

  Trace reads;
  reads.name = "reads";
  IoRequest r;
  r.nblocks = 3;
  reads.append(r);
  std::stringstream b(image_of(reads));
  const Trace back_reads = read_trace_binary(b);
  ASSERT_EQ(back_reads.requests.size(), 1u);
  EXPECT_EQ(back_reads.requests[0].nblocks, 3u);
  EXPECT_TRUE(back_reads.requests[0].chunks.empty());
}

TEST(TraceImage, WriterRefusesRequestsTheFormatCannotExpress) {
  // The format implies the fingerprint count from the type, so a write
  // whose chunk count is not nblocks must fail at write time, not load
  // as a different trace.
  Trace t;
  IoRequest w;
  w.type = OpType::kWrite;
  w.nblocks = 2;
  const Fingerprint one[] = {fp(1)};
  t.append(w, one);
  std::stringstream out;
  EXPECT_THROW(write_trace_binary(out, t), std::runtime_error);
}

TEST(TraceImage, MappedLoadPointsSpansIntoTheImage) {
  const Trace t = hostile_trace();
  const std::string path = testing::TempDir() + "/pod_trace_image.podtrc";
  save_trace_binary(path, t);
  const Trace back = load_trace_binary(path);
  ASSERT_EQ(back.requests.size(), t.requests.size());
  EXPECT_EQ(back.arena().block_count(), 1u);
  const Fingerprint* first = nullptr;
  for (std::size_t i = 0; i < t.requests.size(); ++i) {
    const IoRequest& x = t.requests[i];
    const IoRequest& y = back.requests[i];
    EXPECT_EQ(x.arrival, y.arrival);
    EXPECT_EQ(x.type, y.type);
    EXPECT_EQ(x.lba, y.lba);
    EXPECT_EQ(x.nblocks, y.nblocks);
    EXPECT_EQ(x.stream, y.stream);
    EXPECT_TRUE(same_chunks(x.chunks, y.chunks)) << i;
    EXPECT_TRUE(back.arena().owns(y.chunks)) << i;
    if (first == nullptr && !y.chunks.empty()) first = y.chunks.data();
  }
  // The blob is one flat run: the last write ends where the arena ends.
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(back.requests.back().chunks.data() +
                back.requests.back().chunks.size(),
            first + back.arena().size());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace pod
