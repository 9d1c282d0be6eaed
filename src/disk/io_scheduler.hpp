// The per-disk op queue and its scheduling policies.
//
// FCFS is the default (and what Linux MD + CFQ approximately gave the
// paper's testbed once requests reach a single SATA disk's NCQ-less queue);
// SSTF and SCAN (elevator) are provided for the scheduling ablation bench.
//
// An op is built in a pooled slot when it enters the disk and stays in that
// slot until it completes. Waiting ops are linked in arrival order, and the
// three policies are one pick rule over that list (see DiskQueue::pop).
#pragma once

#include <cstdint>
#include <vector>

#include "common/inline_fn.hpp"
#include "common/types.hpp"
#include "fault/fault.hpp"

namespace pod {

/// Completion callback carried by disk and volume operations. Sized so
/// every hot-path callback (pooled-state pointers, replayer latency
/// recorders) stays inline; oversized test captures fall back to the heap.
using IoDoneFn = InlineFn<void(IoStatus), 56>;

/// One operation addressed to a single disk (disk-local block address).
struct DiskOp {
  OpType type = OpType::kRead;
  std::uint64_t block = 0;
  std::uint64_t nblocks = 1;
  /// cylinder_of(block), set by the disk when the op arrives: the pick
  /// rule, dispatch's seek statistic and the service model all read it.
  std::uint64_t cylinder = 0;
  /// Set by the disk when the op arrives.
  SimTime enqueue_time = 0;
  /// Invoked at the simulated completion time with the op's outcome
  /// (always IoStatus::kOk unless a fault injector is attached).
  IoDoneFn done;
};

enum class SchedulerKind { kFcfs, kSstf, kScan };

const char* to_string(SchedulerKind k);

class DiskQueue {
 public:
  explicit DiskQueue(SchedulerKind kind = SchedulerKind::kFcfs) : kind_(kind) {}

  /// Links a free slot at the tail of the arrival order and returns it; the
  /// caller fills op(slot) in place.
  std::uint32_t push();

  /// Unlinks and returns the waiting op the policy serves next with the
  /// head at `head_cylinder`: the op of smallest rank, ties to the earliest
  /// arrival. FCFS ranks every op 0; SSTF ranks by cylinder distance from
  /// the head; SCAN ranks by distance ahead of the head in its sweep
  /// direction (same cylinder included) and reverses the sweep when no op
  /// lies ahead. Requires !empty().
  std::uint32_t pop(std::uint64_t head_cylinder);

  /// Returns a finished op's slot to the pool; its `done` must already have
  /// been moved out (or never set).
  void release(std::uint32_t slot);

  /// The op in `slot`. The reference is invalidated by the next push().
  DiskOp& op(std::uint32_t slot) { return slots_[slot].op; }

  bool empty() const { return waiting_ == 0; }
  /// Ops waiting (pushed and not yet popped).
  std::size_t size() const { return waiting_; }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Slot {
    DiskOp op;
    /// Next waiting op in arrival order, or next free slot.
    std::uint32_t next = kNone;
  };

  /// The rank pop() minimises; ~0 marks an op SCAN may not serve in the
  /// current sweep direction.
  std::uint64_t rank(std::uint64_t cylinder, std::uint64_t head) const;
  /// The waiting op of smallest rank (kNone if every op is unrankable);
  /// `prev` receives its list predecessor.
  std::uint32_t pick(std::uint64_t head, std::uint32_t& prev) const;

  SchedulerKind kind_;
  bool upward_ = true;  // SCAN sweep direction
  std::vector<Slot> slots_;
  std::uint32_t head_ = kNone;
  std::uint32_t tail_ = kNone;
  std::uint32_t free_ = kNone;
  std::size_t waiting_ = 0;
};

}  // namespace pod
