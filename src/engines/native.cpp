#include "engines/native.hpp"

namespace pod {

namespace {
EngineConfig all_memory_to_read_cache(EngineConfig cfg) {
  cfg.index_fraction = 0.0;  // no fingerprint index at all
  return cfg;
}
}  // namespace

NativeEngine::NativeEngine(Simulator& sim, Volume& volume, EngineConfig cfg)
    : DedupEngine(sim, volume, all_memory_to_read_cache(std::move(cfg)),
                  /*keep_fingerprints=*/false) {}

DedupEngine::IoPlan NativeEngine::process_write(const IoRequest& req,
                                                SimTime /*now*/) {
  IoPlan plan;
  // No hashing, no dedup decision: place every chunk (home locations are
  // always available since nothing is ever shared) and write.
  scratch_.reset_write(req.nblocks);
  write_remaining_chunks(req, scratch_, plan);
  return plan;
}

}  // namespace pod
