// POD = Select-Dedupe + iCache (the complete system of the paper).
//
// Identical write/read policy to Select-Dedupe, but the memory partition
// between the Index table and the read cache adapts to the workload's
// read/write bursts via iCache. Swap traffic lands in the reserved swap
// region of the volume.
#pragma once

#include <memory>

#include "engines/select_dedupe.hpp"
#include "icache/icache.hpp"

namespace pod {

struct PodEngineOptions {
  /// iCache adaptation parameters; total_bytes is forced to the engine's
  /// memory budget.
  ICacheConfig icache;

  bool operator==(const PodEngineOptions&) const = default;
};

class PodEngine : public SelectDedupeEngine {
 public:
  PodEngine(Simulator& sim, Volume& volume, const EngineConfig& cfg,
            const PodEngineOptions& opts = {});

  const char* name() const override { return "pod"; }

  const ICache& icache() const { return *icache_; }
  const ICache* adaptive_cache() const override { return icache_.get(); }

 protected:
  IoPlan process_write(const IoRequest& req, SimTime now) override;
  IoPlan process_read(const IoRequest& req, SimTime now) override;

 private:
  void swap_io(OpType type, std::uint64_t blocks);

  std::unique_ptr<ICache> icache_;
  Pba swap_cursor_ = 0;
};

}  // namespace pod
