// Select-Dedupe: POD's request-based selective deduplicator (paper §III-B).
//
// Every write — small or large — is fingerprinted and classified by the
// shape of its redundancy (Figure 5):
//   category 1 (fully redundant, duplicates sequential on disk) and
//   category 3 (a sequential redundant run of >= threshold chunks)
// are deduplicated; category 2 (scattered partial redundancy) is written
// as-is so later reads stay sequential. Only the in-memory hot Index table
// is consulted; a cold fingerprint is simply a missed opportunity, never a
// disk lookup.
#pragma once

#include "engines/engine.hpp"

namespace pod {

class SelectDedupeEngine : public DedupEngine {
 public:
  SelectDedupeEngine(Simulator& sim, Volume& volume, const EngineConfig& cfg);

  const char* name() const override { return "select-dedupe"; }

 protected:
  IoPlan process_write(const IoRequest& req, SimTime now) override;

  /// Shared with PodEngine: the full Select-Dedupe write path.
  IoPlan select_dedupe_write(const IoRequest& req);
};

}  // namespace pod
