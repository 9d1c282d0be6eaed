#include "engines/post_process.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pod {

namespace {

EngineConfig native_like(EngineConfig cfg) {
  cfg.index_fraction = 0.0;  // no online index; all memory serves reads
  return cfg;
}

constexpr std::size_t kMaxBacklog = 1 << 20;

}  // namespace

PostProcessEngine::PostProcessEngine(Simulator& sim, Volume& volume,
                                     const EngineConfig& cfg,
                                     const PostProcessOptions& opts)
    : DedupEngine(sim, volume, native_like(cfg)), opts_(opts) {
  POD_CHECK(opts_.blocks_per_pass > 0);
  POD_CHECK(opts_.read_batch_blocks > 0);
}

void PostProcessEngine::begin_measured() {
  DedupEngine::begin_measured();
  measured_ = true;
}

DedupEngine::IoPlan PostProcessEngine::process_write(const IoRequest& req,
                                                     SimTime now) {
  // Foreground path identical to Native: no fingerprinting, no lookups.
  IoPlan plan;
  scratch_.reset_write(req.nblocks);
  write_remaining_chunks(req, scratch_, plan);

  // Remember the written range for the background scrubber.
  for (std::uint32_t i = 0; i < req.nblocks; ++i)
    pending_.push_back(req.lba + i);
  while (pending_.size() > kMaxBacklog) pending_.pop_front();

  // The scrubber is driven from the request path (like iCache's ticks):
  // time-based scheduling via a recurring event would keep the simulation
  // alive forever.
  if (measured_) {
    // Run at most one pass per scan_interval of simulated time.
    if (now >= next_pass_due_) {
      next_pass_due_ = now + opts_.scan_interval;
      scrub_pass();
    }
  }
  return plan;
}

void PostProcessEngine::scrub_pass() {
  ++passes_;
  std::uint64_t scanned_in_pass = 0;
  Pba batch_start = kInvalidPba;
  std::uint64_t batch_len = 0;

  auto flush_batch = [&]() {
    if (batch_len == 0 || warming_) return;
    const std::uint64_t n =
        std::min<std::uint64_t>(batch_len, opts_.read_batch_blocks);
    issue_background(OpType::kRead, batch_start, n);
    batch_start = kInvalidPba;
    batch_len = 0;
  };

  while (!pending_.empty() && scanned_in_pass < opts_.blocks_per_pass) {
    const Lba lba = pending_.front();
    pending_.pop_front();
    ++scanned_in_pass;
    ++blocks_scanned_;

    const Pba pba = store_.resolve(lba);
    if (pba == kInvalidPba) continue;  // discarded since being written
    const Fingerprint* fp = store_.fingerprint_of(pba);
    POD_DCHECK(fp != nullptr);

    // Charge the out-of-band read (sequential sweeps of the scan batch).
    if (batch_start == kInvalidPba) batch_start = pba;
    if (++batch_len >= opts_.read_batch_blocks) flush_batch();

    const auto it = offline_index_.find(*fp);
    if (it == offline_index_.end()) {
      offline_index_.emplace(*fp, pba);
      continue;
    }
    if (it->second == pba) continue;  // already canonical
    if (!candidate_valid(*fp, it->second)) {
      it->second = pba;  // canonical copy died; re-anchor
      continue;
    }
    // Reclaim: point this logical block at the canonical copy.
    store_.dedup_to(lba, it->second);
    ++stats_.chunks_deduped;
    ++blocks_reclaimed_;
  }
  drain_freed();
  flush_batch();
}

}  // namespace pod
