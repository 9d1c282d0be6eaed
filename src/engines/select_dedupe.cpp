#include "engines/select_dedupe.hpp"

#include "common/check.hpp"

namespace pod {

SelectDedupeEngine::SelectDedupeEngine(Simulator& sim, Volume& volume,
                                       const EngineConfig& cfg)
    : DedupEngine(sim, volume, cfg) {
  POD_CHECK(index_cache_ != nullptr);
}

DedupEngine::IoPlan SelectDedupeEngine::process_write(const IoRequest& req,
                                                      SimTime /*now*/) {
  return select_dedupe_write(req);
}

DedupEngine::IoPlan SelectDedupeEngine::select_dedupe_write(const IoRequest& req) {
  IoPlan plan;
  plan.cpu = hash_.latency_for_chunks(req.nblocks);
  hash_.note_chunks_hashed(req.nblocks);

  WriteScratch& s = scratch_;
  s.reset_write(req.nblocks);

  // Index-table lookups (fused single pass; see probe_dups): hits bump the
  // Count (popularity / pin-against-modification signal); misses probe the
  // ghost list so iCache can tell when a larger index cache would have
  // found the dup.
  probe_dups(req, s);

  const WriteCategory cat =
      categorize_into({s.dups.data(), req.nblocks}, cfg_.select_threshold,
                      s.dedup_runs);
  ++stats_.category_counts[static_cast<std::size_t>(cat)];

  for (const DupRun& run : s.dedup_runs)
    for (std::size_t i = 0; i < run.length; ++i) s.set_mask(run.begin + i);

  apply_dedup_runs(req, s);
  write_remaining_chunks(req, s, plan);

  // Freshly written chunks enter the hot Index table (Count = 0) so future
  // duplicates of them can be detected. Chunks that were redundant but not
  // deduplicated (category 2) keep their existing canonical entry — binding
  // the fingerprint to the newly written scattered copy would destroy run
  // detection for every later replay of the source extent. Inserts are the
  // request's final metadata action, so they stage into one insert_batch.
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
