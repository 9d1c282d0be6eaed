// I/O Deduplication (Koller & Rangaswami, FAST'10) — the Table-I fourth
// comparator, reimplemented as an extension engine.
//
// Writes are never eliminated ("write requests are still issued to disks
// even if their data has already been stored"); instead the scheme exploits
// content similarity on the *read* path: the block cache is keyed by
// content fingerprint, so a read whose content was cached under any LBA
// hits. (The original also performs dynamic replica retrieval — head-
// position-aware replica selection — which we approximate by the content
// cache alone; DESIGN.md documents the simplification.)
#pragma once

#include "cache/lru_table.hpp"
#include "engines/engine.hpp"

namespace pod {

class IoDedupEngine : public DedupEngine {
 public:
  IoDedupEngine(Simulator& sim, Volume& volume, EngineConfig cfg);

  const char* name() const override { return "io-dedup"; }

  std::uint64_t content_hits() const { return content_hits_; }
  std::uint64_t content_misses() const { return content_misses_; }

  /// The base digest plus the content cache.
  std::uint64_t state_digest() const override;

 protected:
  IoPlan process_write(const IoRequest& req, SimTime now) override;
  IoPlan process_read(const IoRequest& req, SimTime now) override;

 private:
  /// Content-addressed cache, a resident list only: key = fingerprint
  /// prefix (or home PBA for never-written blocks).
  LruTable<std::uint64_t> content_cache_;
  std::uint64_t content_hits_ = 0;
  std::uint64_t content_misses_ = 0;
};

}  // namespace pod
