// iCache: adaptive partitioning of one DRAM budget between the fingerprint
// index cache and the block read cache (paper §III-C, Figure 7).
//
// Every adaptation interval the Access Monitor's epoch deltas feed the
// ghost-hit cost-benefit estimator; the winning cache grows by a step and
// the loser shrinks. The Swap module then moves data:
//   * shrinking the index cache spills its LRU entries (dirty metadata) to
//     a reserved swap area — charged as sequential disk writes;
//   * growing the index cache re-admits the most recently spilled entries —
//     charged as sequential disk reads;
//   * growing the read cache prefetches the most recent ghost blocks from
//     their data-region homes — charged as disk reads. (Read blocks are
//     clean, so shrinking the read cache writes nothing back; the paper
//     swaps both, we document this divergence in DESIGN.md.)
#pragma once

#include <cstdint>
#include <functional>

#include "cache/index_cache.hpp"
#include "cache/read_cache.hpp"
#include "common/types.hpp"
#include "icache/access_monitor.hpp"
#include "icache/cost_benefit.hpp"

namespace pod {

struct ICacheConfig {
  std::uint64_t total_bytes = 64 * kMiB;
  double initial_index_fraction = 0.5;
  double min_fraction = 0.1;
  double max_fraction = 0.9;
  /// Fraction of the total budget moved per adaptation.
  double step_fraction = 0.05;
  /// Adaptation interval in simulated time.
  Duration interval = ms(500);
  /// Cap on swap traffic per adaptation (blocks), bounding the cost of one
  /// repartition (the swap itself competes with foreground I/O).
  std::uint64_t max_swap_blocks = 256;  // 1 MiB
  CostBenefitConfig cost_benefit;

  bool operator==(const ICacheConfig&) const = default;
};

struct ICacheStats {
  std::uint64_t adaptations = 0;
  std::uint64_t grew_index = 0;
  std::uint64_t grew_read = 0;
  std::uint64_t swap_blocks_read = 0;
  std::uint64_t swap_blocks_written = 0;
  std::uint64_t index_entries_readmitted = 0;
  std::uint64_t read_blocks_prefetched = 0;
};

class ICache {
 public:
  /// Swap-traffic sink: the owning engine turns (op, blocks) into volume
  /// I/O against the reserved swap / data regions.
  using SwapIoFn = std::function<void(OpType, std::uint64_t blocks)>;

  ICache(const ICacheConfig& cfg, IndexCache& index, ReadCache& read,
         SwapIoFn swap_io);

  /// Called by the engine on the request path; adapts when `now` has moved
  /// past the end of the current interval.
  void maybe_adapt(SimTime now);

  /// Forces one adaptation round (tests / explicit control).
  void adapt();

  double index_fraction() const;
  std::uint64_t index_bytes() const { return index_.capacity_bytes(); }
  std::uint64_t read_bytes() const { return read_.capacity_bytes(); }
  const ICacheStats& stats() const { return stats_; }
  const AccessMonitor& monitor() const { return monitor_; }

  /// Fired after a repartition actually moves memory, with the index
  /// cache's (old_bytes, new_bytes). Observation only (telemetry): the
  /// repartition is complete — including swap I/O — by the time it runs.
  std::function<void(std::uint64_t old_bytes, std::uint64_t new_bytes)>
      repartition_hook;

 private:
  void apply(PartitionDecision decision);
  void readmit_index_entries(std::uint64_t budget_entries);
  void prefetch_read_blocks(std::uint64_t budget_blocks);

  ICacheConfig cfg_;
  IndexCache& index_;
  ReadCache& read_;
  SwapIoFn swap_io_;
  AccessMonitor monitor_;
  SimTime next_adapt_ = 0;
  /// Repartition only when the same direction wins two epochs in a row —
  /// shrinking one cache inflates its ghost-hit signal in the very next
  /// epoch, so a single-epoch signal ping-pongs memory (and swap traffic)
  /// between the caches.
  PartitionDecision pending_ = PartitionDecision::kHold;
  ICacheStats stats_;
};

}  // namespace pod
