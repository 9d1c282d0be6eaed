#include "icache/icache.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"

namespace pod {

ICache::ICache(const ICacheConfig& cfg, IndexCache& index, ReadCache& read,
               SwapIoFn swap_io)
    : cfg_(cfg),
      index_(index),
      read_(read),
      swap_io_(std::move(swap_io)),
      monitor_(index, read) {
  POD_CHECK(cfg_.total_bytes > 0);
  POD_CHECK(cfg_.min_fraction > 0.0 && cfg_.max_fraction < 1.0);
  POD_CHECK(cfg_.min_fraction < cfg_.max_fraction);
  POD_CHECK(cfg_.step_fraction > 0.0 && cfg_.step_fraction < 0.5);

  // The shadow lists are iCache's: each cache's ghost list remembers the
  // keys it evicted, for the cost-benefit signal, and index evictions also
  // park their payloads on the index cache's spill list (the swap area) so
  // they can be re-admitted later. Each list represents the whole budget.
  const auto index_entries =
      static_cast<std::size_t>(cfg_.total_bytes / IndexCache::kEntryBytes);
  index_.enable_ghost(index_entries);
  index_.enable_spill(index_entries);
  read_.enable_ghost(static_cast<std::size_t>(cfg_.total_bytes / kBlockSize));

  const auto ibytes = static_cast<std::uint64_t>(
      static_cast<double>(cfg_.total_bytes) * cfg_.initial_index_fraction);
  index_.resize(ibytes);
  read_.resize(cfg_.total_bytes - ibytes);
  // A few adaptation steps' worth of entries defines the "near" horizon of
  // each ghost list (see LruTable::take_ghost): growth is worth it when the
  // hits sit within reach of a short run of same-direction steps.
  const auto step = static_cast<std::uint64_t>(
      static_cast<double>(cfg_.total_bytes) * cfg_.step_fraction);
  index_.set_ghost_near_threshold(4 * step / IndexCache::kEntryBytes);
  read_.set_ghost_near_threshold(4 * step / kBlockSize);
  next_adapt_ = cfg_.interval;
}

double ICache::index_fraction() const {
  return static_cast<double>(index_.capacity_bytes()) /
         static_cast<double>(cfg_.total_bytes);
}

void ICache::maybe_adapt(SimTime now) {
  if (now < next_adapt_) return;
  // Catch up a single interval boundary (bursty gaps may skip several).
  next_adapt_ = now + cfg_.interval;
  adapt();
}

void ICache::adapt() {
  ++stats_.adaptations;
  const EpochActivity activity = monitor_.end_epoch();
  const CostBenefit cb = evaluate_cost_benefit(activity, cfg_.cost_benefit);
  // Two consecutive epochs must agree before memory moves (see pending_).
  if (cb.decision != PartitionDecision::kHold && cb.decision == pending_) {
    apply(cb.decision);
  }
  pending_ = cb.decision;
}

void ICache::apply(PartitionDecision decision) {
  if (decision == PartitionDecision::kHold) return;

  const auto step = static_cast<std::uint64_t>(
      static_cast<double>(cfg_.total_bytes) * cfg_.step_fraction);
  const std::uint64_t min_bytes = static_cast<std::uint64_t>(
      static_cast<double>(cfg_.total_bytes) * cfg_.min_fraction);
  const std::uint64_t max_bytes = static_cast<std::uint64_t>(
      static_cast<double>(cfg_.total_bytes) * cfg_.max_fraction);

  std::uint64_t index_bytes = index_.capacity_bytes();
  if (decision == PartitionDecision::kGrowIndex) {
    const std::uint64_t target = std::min(index_bytes + step, max_bytes);
    if (target == index_bytes) return;
    ++stats_.grew_index;
    const std::uint64_t delta = target - index_bytes;
    // Shrink the read cache first (its evictions are clean), then grow and
    // refill the index cache from the swap area.
    read_.resize(cfg_.total_bytes - target);
    index_.resize(target);
    readmit_index_entries(delta / IndexCache::kEntryBytes);
    if (repartition_hook) repartition_hook(index_bytes, target);
  } else {
    const std::uint64_t target =
        index_bytes > step ? std::max(index_bytes - step, min_bytes) : min_bytes;
    if (target == index_bytes) return;
    ++stats_.grew_read;
    const std::uint64_t delta = index_bytes - target;
    // Shrinking the index cache spills dirty metadata to the swap area.
    index_.resize(target);
    const std::uint64_t spill_blocks = std::min<std::uint64_t>(
        cfg_.max_swap_blocks, std::max<std::uint64_t>(1, bytes_to_blocks(delta)));
    swap_io_(OpType::kWrite, spill_blocks);
    stats_.swap_blocks_written += spill_blocks;
    read_.resize(cfg_.total_bytes - target);
    prefetch_read_blocks(delta / kBlockSize);
    if (repartition_hook) repartition_hook(index_bytes, target);
  }
}

void ICache::readmit_index_entries(std::uint64_t budget_entries) {
  if (budget_entries == 0 || index_.spill_size() == 0) return;
  const std::uint64_t want = std::min<std::uint64_t>(
      budget_entries, cfg_.max_swap_blocks * (kBlockSize / IndexCache::kEntryBytes));
  // Collect first: the re-inserts below evict, and evictions spill again.
  std::vector<std::pair<Fingerprint, Pba>> to_admit;
  index_.collect_spilled(static_cast<std::size_t>(want), to_admit);
  // Swap-in cost: sequential read of the re-admitted metadata.
  const std::uint64_t blocks = std::max<std::uint64_t>(
      1, bytes_to_blocks(to_admit.size() * IndexCache::kEntryBytes));
  swap_io_(OpType::kRead, std::min<std::uint64_t>(blocks, cfg_.max_swap_blocks));
  stats_.swap_blocks_read += blocks;
  for (const auto& [fp, pba] : to_admit) {
    index_.readmit(fp, pba);
    ++stats_.index_entries_readmitted;
  }
}

void ICache::prefetch_read_blocks(std::uint64_t budget_blocks) {
  if (budget_blocks == 0) return;
  const std::uint64_t want =
      std::min<std::uint64_t>(budget_blocks, cfg_.max_swap_blocks);
  // Collect first: the re-inserts below evict onto the ghost list.
  std::vector<Pba> to_fetch;
  read_.collect_ghosts(static_cast<std::size_t>(want), to_fetch);
  if (to_fetch.empty()) return;
  swap_io_(OpType::kRead, to_fetch.size());
  for (Pba pba : to_fetch) {
    read_.readmit(pba);
    ++stats_.read_blocks_prefetched;
  }
  stats_.swap_blocks_read += to_fetch.size();
}

}  // namespace pod
