// Ghost-hit cost-benefit estimation (paper §III-C).
//
// A ghost hit on the index side means "had the index cache been larger, a
// redundant write would have been detected and the disk write avoided"; a
// ghost hit on the read side means "a read miss would have been a hit".
// Each avoided operation is weighted by its disk cost; the side with the
// larger prospective benefit receives memory.
#pragma once

#include "common/types.hpp"
#include "icache/access_monitor.hpp"

namespace pod {

struct CostBenefitConfig {
  /// Disk cost of one read miss (what a read ghost hit would save).
  Duration read_miss_cost = ms(8);
  /// Disk cost of one undetected redundant write (what an index ghost hit
  /// would save): a RAID5 small write is a read-modify-write of ~4 disk
  /// ops, each a mechanical seek.
  Duration write_save_cost = ms(20);
  /// The index side must beat the read side by this factor before memory
  /// moves toward the index (hysteresis against oscillation).
  double hysteresis = 1.5;
  /// The read side must clear a higher bar: index entries carry long-lived
  /// dedup knowledge whose reuse distances exceed the ghost horizon, so the
  /// near-hit signal systematically understates the cost of shrinking the
  /// index cache.
  double grow_read_hysteresis = 3.0;

  bool operator==(const CostBenefitConfig&) const = default;
};

enum class PartitionDecision { kHold, kGrowIndex, kGrowRead };

struct CostBenefit {
  double index_benefit_ns = 0.0;
  double read_benefit_ns = 0.0;
  PartitionDecision decision = PartitionDecision::kHold;
};

CostBenefit evaluate_cost_benefit(const EpochActivity& activity,
                                  const CostBenefitConfig& cfg);

}  // namespace pod
