// The I/O request model shared by traces, engines and the replayer.
//
// Mirrors what the FIU traces provide after reconstruction (paper §IV-A):
// arrival timestamp, operation, LBA, length, and one content fingerprint
// per 4 KB chunk of write data.
//
// Storage layout (structure-of-arrays): a Trace keeps every fingerprint in
// one FingerprintArena; each IoRequest carries only a
// std::span<const Fingerprint> view into that arena. Requests are 64-byte
// plain values with no per-request heap allocation. A trace loaded from the
// binary format copies no fingerprints at all: the arena adopts the mapped
// file image and the spans point into its fingerprint blob.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mapped.hpp"
#include "common/types.hpp"
#include "hash/fingerprint.hpp"

namespace pod {

struct IoRequest {
  std::uint64_t id = 0;
  SimTime arrival = 0;
  OpType type = OpType::kRead;
  Lba lba = 0;
  std::uint32_t nblocks = 1;
  /// Stream / tenant id the request belongs to (0 = the default stream).
  /// Carried through replay for per-stream accounting (latency anatomy,
  /// HPDedup-style multi-tenant policies); engines ignore it.
  std::uint32_t stream = 0;
  /// One fingerprint per chunk for writes; empty for reads. A borrowed view:
  /// the bytes live in the owning Trace's arena (or an OwnedRequest's
  /// storage) and must outlive the request.
  std::span<const Fingerprint> chunks;

  std::uint64_t bytes() const { return std::uint64_t{nblocks} * kBlockSize; }
  Lba end_lba() const { return lba + nblocks; }
  bool is_write() const { return type == OpType::kWrite; }
  bool is_read() const { return type == OpType::kRead; }
};

/// True when both requests carry the same fingerprint sequence (spans have
/// no operator==; this compares contents).
bool same_chunks(std::span<const Fingerprint> a, std::span<const Fingerprint> b);

/// Bump allocator for fingerprints with stable addresses.
///
/// Fingerprints are appended in blocks that never move or shrink, so spans
/// handed out by append()/alloc()/adopt() stay valid for the arena's
/// lifetime (and across moves of the arena). reserve()ing the total up
/// front yields one flat contiguous block.
class FingerprintArena {
 public:
  FingerprintArena() = default;
  FingerprintArena(FingerprintArena&&) noexcept = default;
  FingerprintArena& operator=(FingerprintArena&&) noexcept = default;
  FingerprintArena(const FingerprintArena&) = delete;
  FingerprintArena& operator=(const FingerprintArena&) = delete;

  /// Ensures the next `n` fingerprints fit in one contiguous block without
  /// further allocation. Call once with the known total for a flat arena.
  void reserve(std::size_t n);

  /// Allocates `n` contiguous value-initialized slots and returns them for
  /// the caller to fill (bulk deserialization).
  std::span<Fingerprint> alloc(std::size_t n);

  /// Copies `fps` into the arena and returns the stable view.
  std::span<const Fingerprint> append(std::span<const Fingerprint> fps);

  /// Takes ownership of a loaded file image and makes `fps`, a range
  /// inside it, a read-only block of this arena (no copy). At most one
  /// image per arena.
  void adopt(FileImage image, std::span<const Fingerprint> fps);

  /// Total fingerprints stored.
  std::size_t size() const { return size_; }
  /// Number of backing blocks, an adopted image included (1 when reserve()
  /// preceded all appends, or for a trace loaded from a file image).
  std::size_t block_count() const {
    return blocks_.size() + (image_fps_.empty() ? 0 : 1);
  }
  /// True when `s` points into this arena's storage (debug/test invariant).
  bool owns(std::span<const Fingerprint> s) const;

 private:
  struct Block {
    std::unique_ptr<Fingerprint[]> data;
    std::size_t used = 0;
    std::size_t capacity = 0;
  };

  /// Minimum block size in fingerprints (1 MiB of 16-byte fingerprints):
  /// incremental generation pays at most a handful of mallocs per trace.
  static constexpr std::size_t kMinBlockFps = 64 * 1024;

  Block& block_with_room(std::size_t n);

  std::vector<Block> blocks_;
  FileImage image_;
  std::span<const Fingerprint> image_fps_;
  std::size_t size_ = 0;
};

/// A trace is a time-ordered request sequence plus the boundary between the
/// warm-up prefix (replayed functionally to warm caches and dedup state,
/// like the paper's first-14-days warm-up) and the measured suffix (the
/// paper's day 15). Move-only: request chunk spans point into the arena,
/// which a member-wise copy would leave dangling.
struct Trace {
  std::string name;
  std::vector<IoRequest> requests;
  std::size_t warmup_count = 0;

  Trace() = default;
  Trace(Trace&&) noexcept = default;
  Trace& operator=(Trace&&) noexcept = default;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  std::size_t measured_count() const { return requests.size() - warmup_count; }

  FingerprintArena& arena() { return arena_; }
  const FingerprintArena& arena() const { return arena_; }

  /// Appends a request whose fingerprints are copied into the arena (the
  /// only way write requests should enter a Trace).
  IoRequest& append(const IoRequest& meta, std::span<const Fingerprint> fps) {
    requests.push_back(meta);
    requests.back().chunks = arena_.append(fps);
    return requests.back();
  }

  /// Appends a fingerprint-less request (reads).
  IoRequest& append(const IoRequest& meta) {
    requests.push_back(meta);
    requests.back().chunks = {};
    return requests.back();
  }

 private:
  FingerprintArena arena_;
};

/// An IoRequest bundled with owned fingerprint storage, for requests that
/// live outside any Trace (public Pod API, unit tests). Copy/move re-point
/// the request's span at the owned storage.
class OwnedRequest {
 public:
  OwnedRequest() { fix(); }
  OwnedRequest(const IoRequest& meta, std::vector<Fingerprint> fps)
      : req_(meta), storage_(std::move(fps)) {
    fix();
  }
  /// Deep-copies `r`, including the chunk bytes it points at.
  explicit OwnedRequest(const IoRequest& r)
      : req_(r), storage_(r.chunks.begin(), r.chunks.end()) {
    fix();
  }
  OwnedRequest(const OwnedRequest& o) : req_(o.req_), storage_(o.storage_) {
    fix();
  }
  OwnedRequest(OwnedRequest&& o) noexcept
      : req_(o.req_), storage_(std::move(o.storage_)) {
    fix();
  }
  OwnedRequest& operator=(const OwnedRequest& o) {
    req_ = o.req_;
    storage_ = o.storage_;
    fix();
    return *this;
  }
  OwnedRequest& operator=(OwnedRequest&& o) noexcept {
    req_ = o.req_;
    storage_ = std::move(o.storage_);
    fix();
    return *this;
  }

  const IoRequest& req() const { return req_; }
  IoRequest& req() { return req_; }
  operator const IoRequest&() const { return req_; }

 private:
  void fix() { req_.chunks = storage_; }

  IoRequest req_;
  std::vector<Fingerprint> storage_;
};

}  // namespace pod
