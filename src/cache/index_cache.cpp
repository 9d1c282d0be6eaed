#include "cache/index_cache.hpp"

#include <algorithm>

namespace pod {

namespace {
using Table = FingerprintTable;
}  // namespace

IndexCache::IndexCache(std::uint64_t capacity_bytes)
    : table_(entries_for(capacity_bytes)) {}

const IndexEntry* IndexCache::resolve(Table::Found f) {
  if (table_.resident(f)) {
    ++hits_;
    return &table_.hit(f.slot);
  }
  ++misses_;
  return nullptr;
}

const IndexEntry* IndexCache::lookup(const Fingerprint& fp, Pba* on_disk) {
  const Table::Found f = table_.find(table_.hash_tag(fp), fp);
  const IndexEntry* e = resolve(f);
  if (e == nullptr && on_disk != nullptr) *on_disk = table_.on_disk_pba(f);
  return e;
}

const IndexEntry* IndexCache::peek(const Fingerprint& fp) const {
  const Table::Found f = table_.find(table_.hash_tag(fp), fp);
  return table_.resident(f) ? &table_.entry(f.slot) : nullptr;
}

const IndexEntry* IndexCache::lookup_tagged(Tag tag, const Fingerprint& fp,
                                            Pba* on_disk) {
  const Table::Found f = table_.find(tag, fp);
  const IndexEntry* e = resolve(f);
  if (e == nullptr) {
    // Read before the ghost take, which can erase the key and shift buckets.
    if (on_disk != nullptr) *on_disk = table_.on_disk_pba(f);
    table_.take_ghost(f);
  }
  return e;
}

void IndexCache::lookup_fused(std::span<const Fingerprint> fps,
                              const IndexEntry** out) {
  const std::size_t n = fps.size();
  batch_probes_ += n;
  tag_scratch_.resize(n);
  // Three-stage software pipeline with bounded lookahead (a whole-span
  // prefetch burst overruns the core's line-fill buffers at DRAM-resident
  // table sizes, so most hints would be dropped exactly when they matter):
  //   stage A (i + 2*kD): hash the fingerprint once; prefetch its home
  //     control group and bucket;
  //   stage B (i + kD): prefetch the slot the (now warm) home bucket names;
  //   stage C (i): one probe resolves hit, ghost hit or miss — the scalar
  //     engine's lookup-then-ghost_probe per chunk. Ghost consumption can
  //     erase keys and shift buckets; a stale hint costs one line, never
  //     correctness, and tags are pure functions of the key.
  constexpr std::size_t kD = 2;  // per-stage lookahead (lines in flight
                                 // stay within one core's fill buffers)
  const auto stage_a = [&](std::size_t i) {
    const Tag tag = table_.hash_tag(fps[i]);
    tag_scratch_[i] = tag;
    table_.prefetch_tag(tag);
  };
  for (std::size_t i = 0; i < std::min(2 * kD, n); ++i) stage_a(i);
  for (std::size_t i = 0; i < std::min(kD, n); ++i)
    table_.prefetch_slot_of(tag_scratch_[i]);
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 2 * kD < n) stage_a(i + 2 * kD);
    if (i + kD < n) table_.prefetch_slot_of(tag_scratch_[i + kD]);
    const Table::Found f = table_.find(tag_scratch_[i], fps[i]);
    out[i] = resolve(f);
    if (out[i] == nullptr) table_.take_ghost(f);
  }
}

void IndexCache::insert_batch(const Fingerprint* fps, const Pba* pbas,
                              std::size_t n) {
  tag_scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    tag_scratch_[i] = table_.hash_tag(fps[i]);
    table_.prefetch_tag(tag_scratch_[i]);
  }
  for (std::size_t i = 0; i < n; ++i)
    table_.insert(tag_scratch_[i], fps[i], pbas[i]);
}

void IndexCache::resize(std::uint64_t capacity_bytes) {
  table_.set_resident_capacity(entries_for(capacity_bytes));
}

void IndexCache::collect_spilled(
    std::size_t limit, std::vector<std::pair<Fingerprint, Pba>>& out) const {
  std::size_t taken = 0;
  table_.for_each(Table::kSpill, [&](std::uint32_t s) {
    if (taken == limit) return false;
    out.emplace_back(table_.key(s), table_.spilled_pba(s));
    ++taken;
    return true;
  });
}

}  // namespace pod
