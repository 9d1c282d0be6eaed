// FingerprintArena invariants, and the arena-span contract of the binary
// trace reader: every request's chunk span must point into the trace's own
// arena (a loaded trace's arena is the adopted file image), and truncated
// or structurally inconsistent inputs must fail loudly instead of yielding
// short spans.
#include <gtest/gtest.h>

#include <sstream>

#include "image_bytes.hpp"
#include "trace/request.hpp"
#include "trace/trace_io.hpp"

namespace pod {
namespace {

Fingerprint fp(std::uint64_t id) { return Fingerprint::of_content_id(id); }

TEST(FingerprintArena, AppendReturnsStableViews) {
  FingerprintArena arena;
  std::vector<std::span<const Fingerprint>> views;
  // Enough appends to force several growth blocks.
  for (std::uint64_t i = 0; i < 200'000; i += 4) {
    const Fingerprint batch[] = {fp(i), fp(i + 1), fp(i + 2), fp(i + 3)};
    views.push_back(arena.append(batch));
  }
  EXPECT_EQ(arena.size(), 200'000u);
  EXPECT_GT(arena.block_count(), 1u);
  for (std::size_t v = 0; v < views.size(); ++v) {
    ASSERT_TRUE(arena.owns(views[v]));
    ASSERT_EQ(views[v][0], fp(v * 4)) << "view " << v;
    ASSERT_EQ(views[v][3], fp(v * 4 + 3)) << "view " << v;
  }
}

TEST(FingerprintArena, ViewsSurviveArenaMove) {
  FingerprintArena arena;
  const Fingerprint batch[] = {fp(1), fp(2)};
  const std::span<const Fingerprint> view = arena.append(batch);
  const Fingerprint* data = view.data();
  FingerprintArena moved = std::move(arena);
  EXPECT_EQ(view.data(), data);
  EXPECT_TRUE(moved.owns(view));
  EXPECT_EQ(view[1], fp(2));
}

TEST(FingerprintArena, ReserveYieldsSingleFlatBlock) {
  FingerprintArena arena;
  arena.reserve(300'000);  // larger than the minimum block size
  const Fingerprint one[] = {fp(7)};
  const Fingerprint* first = arena.append(one).data();
  for (std::uint64_t i = 0; i < 299'999; ++i) {
    const Fingerprint next[] = {fp(i)};
    arena.append(next);
  }
  EXPECT_EQ(arena.block_count(), 1u);
  EXPECT_EQ(arena.size(), 300'000u);
  // One flat block means fingerprint i lives at base + i.
  EXPECT_EQ(*(first + 1), fp(0));
}

TEST(FingerprintArena, OwnsRejectsForeignSpans) {
  FingerprintArena arena;
  const Fingerprint batch[] = {fp(1)};
  arena.append(batch);
  const std::vector<Fingerprint> foreign = {fp(1)};
  EXPECT_FALSE(arena.owns(foreign));
  EXPECT_TRUE(arena.owns({}));  // empty spans belong to everyone
}

Trace mixed_trace(std::size_t writes) {
  Trace t;
  t.name = "arena";
  std::vector<Fingerprint> fps;
  for (std::size_t i = 0; i < writes; ++i) {
    IoRequest w;
    w.arrival = static_cast<SimTime>(i) * 100;
    w.type = OpType::kWrite;
    w.lba = i * 8;
    w.nblocks = static_cast<std::uint32_t>(1 + i % 4);
    fps.clear();
    for (std::uint32_t b = 0; b < w.nblocks; ++b) fps.push_back(fp(i * 8 + b));
    t.append(w, fps);

    IoRequest r;
    r.arrival = static_cast<SimTime>(i) * 100 + 50;
    r.type = OpType::kRead;
    r.lba = i * 8;
    r.nblocks = 2;
    t.append(r);
  }
  t.warmup_count = writes / 2;
  return t;
}

TEST(BinaryTraceArena, LoadedSpansPointIntoLoadedArena) {
  std::stringstream ss;
  write_trace_binary(ss, mixed_trace(500));
  const Trace back = read_trace_binary(ss);

  std::size_t total_fps = 0;
  for (const IoRequest& r : back.requests) {
    ASSERT_TRUE(back.arena().owns(r.chunks));
    if (r.is_write()) {
      ASSERT_EQ(r.chunks.size(), r.nblocks);
    } else {
      ASSERT_TRUE(r.chunks.empty());
    }
    total_fps += r.chunks.size();
  }
  EXPECT_EQ(back.arena().size(), total_fps);
  // The reader adopts the image's fingerprint blob: one flat block.
  EXPECT_EQ(back.arena().block_count(), 1u);
}

TEST(BinaryTraceArena, RoundTripPreservesChunks) {
  const Trace t = mixed_trace(300);
  std::stringstream ss;
  write_trace_binary(ss, t);
  const Trace back = read_trace_binary(ss);
  ASSERT_EQ(back.requests.size(), t.requests.size());
  for (std::size_t i = 0; i < t.requests.size(); ++i)
    ASSERT_TRUE(same_chunks(back.requests[i].chunks, t.requests[i].chunks))
        << "req " << i;
}

TEST(BinaryTraceArena, EveryTruncationPointThrows) {
  std::stringstream full;
  write_trace_binary(full, mixed_trace(40));
  const std::string bytes = full.str();
  // Every cut — in the magic, the header, the name, each column, the
  // padding and the fingerprint blob — must throw, never produce a short
  // trace.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_THROW(read_trace_binary(truncated), std::runtime_error)
        << "cut at " << cut << " of " << bytes.size();
  }
}

// Structural corruption with a valid checksum: the edits below reseal the
// image, so each refusal comes from the loader's per-request validation
// rather than from the checksum. mixed_trace interleaves write,read, so
// request 0 is a 1-block write and request 1 a 2-block read.
using test::expect_refused;
using test::header_of;
using test::reseal;

std::string mixed_image() { return test::image_of(mixed_trace(10)); }

TEST(BinaryTraceArena, RejectsCorruptOpByte) {
  std::string bytes = mixed_image();
  bytes[header_of(bytes).type_off] = 77;  // neither R nor W
  reseal(bytes);
  expect_refused(bytes, "bad op byte");
}

TEST(BinaryTraceArena, RejectsReadRecordClaimingFingerprints) {
  // Turning the last request (a read) into a write makes it claim nblocks
  // fingerprints the blob does not hold.
  std::string bytes = mixed_image();
  const TraceImageHeader h = header_of(bytes);
  bytes[h.type_off + h.requests - 1] = static_cast<char>(OpType::kWrite);
  reseal(bytes);
  expect_refused(bytes, "fingerprint blob overrun");
}

TEST(BinaryTraceArena, RejectsWriteFingerprintCountMismatch) {
  // Request 0 is a 1-block write; growing it to 2 blocks shifts every later
  // write's span, so the blob runs out before the last write.
  std::string bytes = mixed_image();
  bytes[header_of(bytes).nblocks_off] = 2;
  reseal(bytes);
  expect_refused(bytes, "fingerprint blob overrun");
  // Shrinking a write instead leaves fingerprints no request claims.
  bytes = mixed_image();
  const TraceImageHeader h = header_of(bytes);
  bytes[h.nblocks_off + 2 * sizeof(std::uint32_t)] = 1;  // request 2: 2 -> 1
  reseal(bytes);
  expect_refused(bytes, "fingerprint blob underrun");
}

}  // namespace
}  // namespace pod
