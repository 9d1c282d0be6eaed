// Block-volume abstraction over an array of simulated disks.
//
// Engines address the volume with physical block addresses (PBAs); the
// volume maps PBAs onto member disks (striping, parity) and reports
// completion in simulated time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/inline_fn.hpp"
#include "common/inline_vec.hpp"
#include "common/types.hpp"
#include "disk/disk.hpp"
#include "fault/fault.hpp"
#include "replay/anatomy.hpp"
#include "sim/simulator.hpp"

namespace pod {

/// One volume-level operation (contiguous PBA range).
struct VolumeIo {
  OpType type = OpType::kRead;
  Pba block = 0;
  std::uint64_t nblocks = 1;
  /// Fires at completion with the worst status among the op's disk
  /// fragments (always kOk when no fault injector is attached).
  IoDoneFn done;
};

/// Layout-level activity counters a volume implementation may maintain
/// (all zero for layouts without parity).
struct VolumeCounters {
  /// Writes served as full-stripe writes (no parity pre-reads).
  std::uint64_t full_stripe_writes = 0;
  /// Writes that paid the parity read-modify-write penalty.
  std::uint64_t rmw_writes = 0;
  /// Reads reconstructed from parity while degraded.
  std::uint64_t reconstruction_reads = 0;
  /// Stripe rows rewritten onto the spare by the background rebuild.
  std::uint64_t rebuild_rows = 0;
};

class Volume {
 public:
  virtual ~Volume() = default;

  virtual void submit(VolumeIo io) = 0;
  /// Usable (data) capacity in blocks.
  virtual std::uint64_t capacity_blocks() const = 0;
  virtual std::size_t num_disks() const = 0;
  virtual const Disk& disk(std::size_t i) const = 0;
  /// Layout counters (parity write modes etc.); defaults to all-zero.
  virtual VolumeCounters counters() const { return {}; }
  /// The array's fault injector, or null when faults are disabled.
  virtual const FaultInjector* fault_injector() const { return nullptr; }

  /// Sum of member-disk queue lengths (in-flight + waiting).
  std::size_t total_queue_length() const;
};

struct ArrayConfig {
  std::size_t num_disks = 4;
  /// Stripe unit in blocks (paper: 64 KB = 16 x 4 KB blocks).
  std::uint64_t stripe_unit_blocks = 16;
  HddGeometry disk_geometry;
  HddTiming disk_timing;
  SchedulerKind scheduler = SchedulerKind::kFcfs;
  /// Fault injection (disabled by default: no injector is constructed and
  /// the array behaves bit-for-bit as before the fault subsystem existed).
  FaultConfig fault;

  bool operator==(const ArrayConfig&) const = default;
};

/// A contiguous fragment of a volume I/O on one member disk.
struct DiskFragment {
  std::size_t disk = 0;
  std::uint64_t block = 0;
  std::uint64_t nblocks = 0;
};

/// Fragment list sized for the common case: a request split across a
/// 4-disk array needs a handful of fragments, so layout planning carries
/// them inline and only pathological scatter (or the rebuild sweep) spills.
using FragList = InlineVec<DiskFragment, 12>;

/// Sorts `frags` by (disk, block) and merges adjacent fragments in place —
/// the allocation-free form layout planning uses on reused scratch lists.
inline void merge_fragments_inplace(FragList& frags) {
  std::sort(frags.begin(), frags.end(),
            [](const DiskFragment& a, const DiskFragment& b) {
              if (a.disk != b.disk) return a.disk < b.disk;
              return a.block < b.block;
            });
  std::size_t out = 0;
  for (std::size_t i = 0; i < frags.size(); ++i) {
    if (out > 0 && frags[out - 1].disk == frags[i].disk &&
        frags[out - 1].block + frags[out - 1].nblocks == frags[i].block) {
      frags[out - 1].nblocks += frags[i].nblocks;
    } else {
      frags[out++] = frags[i];
    }
  }
  frags.truncate(out);
}

/// Merges fragments that are adjacent on the same disk (sorted copy;
/// test-facing convenience over merge_fragments_inplace).
std::vector<DiskFragment> merge_fragments(std::vector<DiskFragment> frags);

/// Shared machinery: owns the member disks.
class DiskArray : public Volume {
 public:
  DiskArray(Simulator& sim, const ArrayConfig& cfg);

  std::size_t num_disks() const override { return disks_.size(); }
  const Disk& disk(std::size_t i) const override { return *disks_[i]; }
  Disk& mutable_disk(std::size_t i) { return *disks_[i]; }

  const ArrayConfig& config() const { return cfg_; }
  Simulator& sim() { return sim_; }

  const FaultInjector* fault_injector() const override { return fault_.get(); }
  FaultInjector* mutable_fault_injector() { return fault_.get(); }

 protected:
  /// Issues `phase1` then, once all complete, `phase2`, then `done`.
  /// Either phase may be empty. `done` receives the worst status observed
  /// across both phases' fragments. The spans need only stay valid for the
  /// duration of the call (phase2 is staged into a pooled state slot), so
  /// callers may pass reused scratch lists; steady state allocates nothing.
  /// `reconstruct` marks ops RAID5 serves degraded: when attribution is on,
  /// their whole span is charged to raid_reconstruct.
  void run_two_phase(std::span<const DiskFragment> phase1, OpType phase1_type,
                     std::span<const DiskFragment> phase2, OpType phase2_type,
                     IoDoneFn done, bool reconstruct = false);

  Simulator& sim_;
  ArrayConfig cfg_;
  std::vector<std::unique_ptr<Disk>> disks_;
  /// Present only when cfg_.fault.enabled.
  std::unique_ptr<FaultInjector> fault_;

 private:
  /// In-flight two-phase op state, pooled and recycled through a freelist:
  /// per-fragment disk callbacks capture one pointer to a slot, and the
  /// slot's staged phase-2 list keeps its spill capacity across reuse — the
  /// volume layer performs no steady-state allocation.
  struct TwoPhaseState {
    std::size_t outstanding = 0;
    IoStatus status = IoStatus::kOk;  // worst-of across both phases
    FragList phase2;
    OpType phase2_type = OpType::kRead;
    IoDoneFn done;
    /// Attribution accumulator: each phase's critical-fragment breakdown is
    /// added here (phase spans are disjoint, so the sum is the op's span).
    /// Touched only when a collector is attached.
    LatBreakdown anatomy;
    /// Degraded-mode op (see run_two_phase).
    bool reconstruct = false;
    TwoPhaseState* next_free = nullptr;
  };

  TwoPhaseState* acquire_state();
  void release_state(TwoPhaseState* st);
  void issue_fragments(std::span<const DiskFragment> frags, OpType type,
                       TwoPhaseState* st, bool phase1);
  void fragment_done(TwoPhaseState* st, IoStatus s, bool phase1);
  void start_phase2(TwoPhaseState* st);
  void finish_two_phase(TwoPhaseState* st);

  std::vector<std::unique_ptr<TwoPhaseState>> state_pool_;
  TwoPhaseState* free_states_ = nullptr;
};

}  // namespace pod
