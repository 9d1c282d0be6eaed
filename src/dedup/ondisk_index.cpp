#include "dedup/ondisk_index.hpp"

#include "common/check.hpp"
#include "fault/journal.hpp"

namespace pod {

namespace {

/// Four derived hash positions from the 128-bit fingerprint.
inline std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 33)) * 0xFF51AFD7ED558CCDULL;
  z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53ULL;
  return z ^ (z >> 33);
}

}  // namespace

OnDiskIndex::OnDiskIndex(const Config& cfg, FingerprintTable& table)
    : cfg_(cfg),
      table_(table),
      bloom_(static_cast<std::size_t>((cfg.bloom_bits + 63) / 64)) {
  POD_CHECK(cfg_.region_blocks > 0);
  POD_CHECK(cfg_.insert_batch > 0);
  POD_CHECK(cfg_.bloom_bits >= 64);
}

Pba OnDiskIndex::bucket_of(const Fingerprint& fp) const {
  return cfg_.region_start + fp.prefix64() % cfg_.region_blocks;
}

bool OnDiskIndex::bloom_maybe(const Fingerprint& fp) const {
  const std::uint64_t base = fp.prefix64();
  const std::uint64_t bits = bloom_.size() * 64;
  // Power-of-two bit counts (the default) reduce to a mask; the modulo
  // fallback keeps identical positions for arbitrary sizes.
  const bool pow2 = (bits & (bits - 1)) == 0;
  for (int k = 0; k < 4; ++k) {
    const std::uint64_t h =
        mix(base + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(k + 1));
    const std::uint64_t pos = pow2 ? (h & (bits - 1)) : h % bits;
    if ((bloom_[pos >> 6] & (1ULL << (pos & 63))) == 0) return false;
  }
  return true;
}

void OnDiskIndex::bloom_set(const Fingerprint& fp) {
  const std::uint64_t base = fp.prefix64();
  const std::uint64_t bits = bloom_.size() * 64;
  const bool pow2 = (bits & (bits - 1)) == 0;
  for (int k = 0; k < 4; ++k) {
    const std::uint64_t h =
        mix(base + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(k + 1));
    const std::uint64_t pos = pow2 ? (h & (bits - 1)) : h % bits;
    bloom_[pos >> 6] |= 1ULL << (pos & 63);
  }
}

OnDiskIndex::Lookup OnDiskIndex::lookup(const Fingerprint& fp,
                                        Pba stored) const {
  Lookup out;
  if (cfg_.bloom_enabled && !bloom_maybe(fp)) {
    ++bloom_negatives_;
    return out;  // definitely absent; no disk traffic
  }
  ++disk_lookups_;
  out.needs_disk_read = true;
  out.bucket = bucket_of(fp);
  out.found = stored != kInvalidPba;
  out.pba = stored;
  return out;
}

std::optional<Pba> OnDiskIndex::insert(const Fingerprint& fp, Pba pba) {
  if (journal_ != nullptr) journal_->index_put(fp, pba);
  table_.put_on_disk(table_.hash_tag(fp), fp, pba);
  bloom_set(fp);
  if (++pending_inserts_ >= cfg_.insert_batch) {
    pending_inserts_ = 0;
    ++bucket_writes_;
    return bucket_of(fp);
  }
  return std::nullopt;
}

void OnDiskIndex::erase(const Fingerprint& fp) {
  const FingerprintTable::Found f = table_.find(table_.hash_tag(fp), fp);
  if (table_.drop_entry_if(f, table_.on_disk_pba(f)) && journal_ != nullptr)
    journal_->index_del(fp);
}

void OnDiskIndex::restore_entry(const Fingerprint& fp, Pba pba) {
  table_.put_on_disk(table_.hash_tag(fp), fp, pba);
  bloom_set(fp);
}

}  // namespace pod
