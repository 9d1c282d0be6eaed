#include "cache/read_cache.hpp"

namespace pod {

ReadCache::ReadCache(std::uint64_t capacity_bytes)
    : table_(static_cast<std::size_t>(capacity_bytes / kBlockSize)) {}

bool ReadCache::resolve(BlockTable::Found f) {
  if (table_.resident(f)) {
    ++hits_;
    table_.promote(f.slot);
    return true;
  }
  ++misses_;
  return false;
}

void ReadCache::invalidate(Pba block) {
  const BlockTable::Found f = table_.find(table_.hash_tag(block), block);
  if (table_.resident(f)) table_.drop(BlockTable::kResident, f);
}

void ReadCache::resize(std::uint64_t capacity_bytes) {
  table_.set_resident_capacity(
      static_cast<std::size_t>(capacity_bytes / kBlockSize));
}

void ReadCache::collect_ghosts(std::size_t limit, std::vector<Pba>& out) const {
  std::size_t taken = 0;
  table_.for_each(BlockTable::kGhost, [&](std::uint32_t s) {
    if (taken == limit) return false;
    out.push_back(table_.key(s));
    ++taken;
    return true;
  });
}

}  // namespace pod
