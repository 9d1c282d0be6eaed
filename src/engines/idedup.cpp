#include "engines/idedup.hpp"

#include "common/check.hpp"

namespace pod {

IDedupEngine::IDedupEngine(Simulator& sim, Volume& volume, const EngineConfig& cfg)
    : DedupEngine(sim, volume, cfg) {
  POD_CHECK(index_cache_ != nullptr);
}

DedupEngine::IoPlan IDedupEngine::process_write(const IoRequest& req,
                                                SimTime /*now*/) {
  IoPlan plan;
  WriteScratch& s = scratch_;
  s.reset_write(req.nblocks);

  // Small requests contribute little capacity; iDedup skips them outright
  // (no fingerprinting cost, but also no chance of eliminating them —
  // exactly what POD criticises).
  if (req.nblocks <= cfg_.idedup_bypass_blocks) {
    ++bypassed_;
    write_remaining_chunks(req, s, plan);
    return plan;
  }

  plan.cpu = hash_.latency_for_chunks(req.nblocks);
  hash_.note_chunks_hashed(req.nblocks);

  // Index-table lookups (fused single pass; see probe_dups).
  probe_dups(req, s);

  // Deduplicate only sequential duplicate runs long enough to keep later
  // reads sequential AND pay for themselves in capacity.
  find_dup_runs_into({s.dups.data(), req.nblocks}, s.dedup_runs);
  std::erase_if(s.dedup_runs, [this](const DupRun& run) {
    return run.length < cfg_.idedup_seq_threshold;
  });
  for (const DupRun& run : s.dedup_runs)
    for (std::size_t i = 0; i < run.length; ++i) s.set_mask(run.begin + i);

  apply_dedup_runs(req, s);
  write_remaining_chunks(req, s, plan);

  // Index only the genuinely new chunks (redundant-but-unselected chunks
  // keep their canonical entry; see select_dedupe.cpp for the rationale).
  std::size_t w = 0;
  for (std::uint32_t i = 0; i < req.nblocks; ++i) {
    if (s.masked(i)) continue;
    const Pba pba = s.written[w++];
    if (s.dups[i].redundant) continue;
    stage_index_insert(s, req.chunks[i], pba);
  }
  flush_index_inserts(s);
  return plan;
}

}  // namespace pod
