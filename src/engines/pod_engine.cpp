#include "engines/pod_engine.hpp"

#include "common/check.hpp"
#include "telemetry/telemetry.hpp"

namespace pod {

PodEngine::PodEngine(Simulator& sim, Volume& volume, const EngineConfig& cfg,
                     const PodEngineOptions& opts)
    : SelectDedupeEngine(sim, volume, cfg) {
  ICacheConfig icfg = opts.icache;
  icfg.total_bytes = cfg_.memory_bytes;
  icfg.initial_index_fraction = cfg_.index_fraction;
  // Never shrink the Index table far below its initial share: its entries
  // carry the accumulated dedup knowledge Select-Dedupe depends on. The
  // floor bounds how far POD's detection can fall behind fixed-partition
  // Select-Dedupe (paper §IV-C / Figure 11); it does not rule that out
  // (DESIGN.md, divergence 1).
  icfg.min_fraction = std::max(icfg.min_fraction, 0.9 * cfg_.index_fraction);
  icache_ = std::make_unique<ICache>(
      icfg, *index_cache_, read_cache_,
      [this](OpType type, std::uint64_t blocks) { swap_io(type, blocks); });
  icache_->repartition_hook = [this](std::uint64_t old_bytes,
                                     std::uint64_t new_bytes) {
    if (warming_) return;  // warm-up runs at no simulated time
    // Only a telemetry run reads the clock here, and telemetry keeps the
    // replay inline, where sim_.now() is this request's admission time.
    Telemetry* t = sim_.telemetry();
    if (t == nullptr) return;
    // Repartitions are rare (one per adaptation interval at most), so the
    // by-name registry lookups here are off the hot path.
    MetricsRegistry& m = t->metrics();
    m.counter("icache.repartitions").inc();
    m.counter(new_bytes > old_bytes ? "icache.repartitions_grew_index"
                                    : "icache.repartitions_grew_read")
        .inc();
    const double frac = icache_->index_fraction();
    m.gauge("icache.index_fraction").set(frac);
    if (TraceEventWriter* tr = t->trace()) {
      tr->instant(kTracePidRequests, 0, "icache-repartition", sim_.now(),
                  {{"old_index_bytes", old_bytes},
                   {"new_index_bytes", new_bytes},
                   {"index_fraction", frac}});
      tr->counter(kTracePidRequests, "icache index_fraction", sim_.now(), frac);
    }
  };
}

void PodEngine::swap_io(OpType type, std::uint64_t blocks) {
  if (warming_) return;
  // Sequential traffic in the reserved swap region, wrapping around.
  const std::uint64_t region = cfg_.swap_region_blocks;
  POD_CHECK(region > 0);
  blocks = std::min<std::uint64_t>(blocks, region);
  if (swap_cursor_ + blocks > region) swap_cursor_ = 0;
  issue_background(type, swap_region_start() + swap_cursor_, blocks);
  swap_cursor_ += blocks;
}

DedupEngine::IoPlan PodEngine::process_write(const IoRequest& req,
                                             SimTime now) {
  icache_->maybe_adapt(now);
  return select_dedupe_write(req);
}

DedupEngine::IoPlan PodEngine::process_read(const IoRequest& req,
                                            SimTime now) {
  icache_->maybe_adapt(now);
  return build_read_plan(req);
}

}  // namespace pod
