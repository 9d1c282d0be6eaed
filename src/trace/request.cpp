#include "trace/request.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"

namespace pod {

bool same_chunks(std::span<const Fingerprint> a,
                 std::span<const Fingerprint> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

void FingerprintArena::reserve(std::size_t n) {
  if (n == 0) return;
  if (!blocks_.empty() &&
      blocks_.back().capacity - blocks_.back().used >= n)
    return;
  Block b;
  b.data = std::make_unique<Fingerprint[]>(n);
  b.capacity = n;
  blocks_.push_back(std::move(b));
}

FingerprintArena::Block& FingerprintArena::block_with_room(std::size_t n) {
  if (blocks_.empty() || blocks_.back().capacity - blocks_.back().used < n) {
    Block b;
    b.capacity = std::max(n, kMinBlockFps);
    b.data = std::make_unique<Fingerprint[]>(b.capacity);
    blocks_.push_back(std::move(b));
  }
  return blocks_.back();
}

std::span<Fingerprint> FingerprintArena::alloc(std::size_t n) {
  if (n == 0) return {};
  Block& b = block_with_room(n);
  Fingerprint* out = b.data.get() + b.used;
  b.used += n;
  size_ += n;
  return {out, n};
}

std::span<const Fingerprint> FingerprintArena::append(
    std::span<const Fingerprint> fps) {
  if (fps.empty()) return {};
  std::span<Fingerprint> dst = alloc(fps.size());
  std::memcpy(dst.data(), fps.data(), fps.size_bytes());
  return dst;
}

void FingerprintArena::adopt(FileImage image,
                             std::span<const Fingerprint> fps) {
  POD_CHECK(image_.empty());
  image_ = std::move(image);
  image_fps_ = fps;
  size_ += fps.size();
}

bool FingerprintArena::owns(std::span<const Fingerprint> s) const {
  if (s.empty()) return true;
  if (s.data() >= image_fps_.data() &&
      s.data() + s.size() <= image_fps_.data() + image_fps_.size())
    return true;
  for (const Block& b : blocks_) {
    const Fingerprint* begin = b.data.get();
    if (s.data() >= begin && s.data() + s.size() <= begin + b.used) return true;
  }
  return false;
}

}  // namespace pod
