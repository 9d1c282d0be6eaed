// iDedup (Srinivasan et al., FAST'12): capacity-oriented selective inline
// deduplication, reimplemented as the paper's main comparison point.
//
// Policy: small requests (<= idedup_bypass_blocks, "4KB, 8KB or less") are
// bypassed entirely — not even fingerprinted. Larger requests are
// deduplicated only where a *sequential* duplicate run of at least
// idedup_seq_threshold blocks exists, preserving on-disk sequentiality.
// Only an in-memory dedup-metadata cache is consulted (no on-disk index on
// the write path).
#pragma once

#include "engines/engine.hpp"

namespace pod {

class IDedupEngine : public DedupEngine {
 public:
  IDedupEngine(Simulator& sim, Volume& volume, const EngineConfig& cfg);

  const char* name() const override { return "idedup"; }

  std::uint64_t bypassed_requests() const { return bypassed_; }

 protected:
  IoPlan process_write(const IoRequest& req, SimTime now) override;

 private:
  std::uint64_t bypassed_ = 0;
};

}  // namespace pod
