// Full-Dedupe: traditional complete inline deduplication.
//
// Every redundant chunk is deduplicated, wherever its duplicate lives.
// The authoritative fingerprint index is on disk; lookups that miss the
// in-memory index cache (and pass the Bloom filter) cost a random read in
// the reserved index region — the §II-B "in-disk index-lookup" bottleneck.
// The simulator keeps the on-disk entries in the index cache's own table,
// so every key has one home: after each request, every resident key is
// also on disk, at the same PBA.
// Scattered dedup hits fragment logical ranges, producing the read
// amplification that degrades web-vm and homes in Figure 9(b).
#pragma once

#include "dedup/ondisk_index.hpp"
#include "engines/engine.hpp"

namespace pod {

class FullDedupeEngine : public DedupEngine {
 public:
  FullDedupeEngine(Simulator& sim, Volume& volume, const EngineConfig& cfg);

  const char* name() const override { return "full-dedupe"; }

  const OnDiskIndex& ondisk_index() const { return ondisk_; }

 protected:
  IoPlan process_write(const IoRequest& req, SimTime now) override;

 private:
  OnDiskIndex ondisk_;
};

}  // namespace pod
