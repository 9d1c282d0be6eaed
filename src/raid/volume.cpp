#include "raid/volume.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pod {

std::size_t Volume::total_queue_length() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < num_disks(); ++i) total += disk(i).queue_length();
  return total;
}

std::vector<DiskFragment> merge_fragments(std::vector<DiskFragment> frags) {
  std::sort(frags.begin(), frags.end(), [](const DiskFragment& a, const DiskFragment& b) {
    if (a.disk != b.disk) return a.disk < b.disk;
    return a.block < b.block;
  });
  std::vector<DiskFragment> out;
  for (const DiskFragment& f : frags) {
    if (!out.empty() && out.back().disk == f.disk &&
        out.back().block + out.back().nblocks == f.block) {
      out.back().nblocks += f.nblocks;
    } else {
      out.push_back(f);
    }
  }
  return out;
}

DiskArray::TwoPhaseState* DiskArray::acquire_state() {
  if (free_states_ == nullptr) {
    state_pool_.push_back(std::make_unique<TwoPhaseState>());
    free_states_ = state_pool_.back().get();
  }
  TwoPhaseState* st = free_states_;
  free_states_ = st->next_free;
  st->next_free = nullptr;
  st->outstanding = 0;
  st->status = IoStatus::kOk;
  return st;
}

void DiskArray::release_state(TwoPhaseState* st) {
  st->phase2.clear();  // keeps spill capacity for the next op
  st->done.reset();
  st->next_free = free_states_;
  free_states_ = st;
}

void DiskArray::issue_fragments(std::span<const DiskFragment> frags,
                                OpType type, TwoPhaseState* st, bool phase1) {
  for (const DiskFragment& f : frags) {
    POD_CHECK(f.disk < disks_.size());
    disks_[f.disk]->submit(type, f.block, f.nblocks,
                           [this, st, phase1](IoStatus s) {
                             fragment_done(st, s, phase1);
                           });
  }
}

void DiskArray::fragment_done(TwoPhaseState* st, IoStatus s, bool phase1) {
  POD_CHECK(st->outstanding > 0);
  st->status = combine(st->status, s);
  if (--st->outstanding != 0) return;
  // Critical fragment: every fragment of a phase was enqueued at the same
  // instant, so the phase's span equals the latency of this last completion
  // — whose breakdown the disk published into the register just before
  // invoking us.
  if (LatencyAnatomy* a = sim_.anatomy()) st->anatomy.add(a->disk_op());
  if (phase1) {
    start_phase2(st);
  } else {
    finish_two_phase(st);
  }
}

void DiskArray::start_phase2(TwoPhaseState* st) {
  if (st->phase2.empty()) {
    finish_two_phase(st);
    return;
  }
  st->outstanding = st->phase2.size();
  // Disk::submit never completes synchronously (completions arrive as
  // simulator events), so iterating st->phase2 while issuing is safe.
  issue_fragments({st->phase2.data(), st->phase2.size()}, st->phase2_type, st,
                  /*phase1=*/false);
}

void DiskArray::finish_two_phase(TwoPhaseState* st) {
  if (LatencyAnatomy* a = sim_.anatomy()) {
    // Phase 2 starts synchronously inside the last phase-1 completion, so
    // the accumulated phase spans cover the op's whole life. Degraded ops
    // are reclassified wholesale: their extra fragments exist only because
    // of the failure, so splitting them mechanically would be a lie.
    if (st->reconstruct) st->anatomy.fold_into(LatComp::kRaidReconstruct);
    a->publish_volume_op(st->anatomy);
  }
  IoDoneFn done = std::move(st->done);
  const IoStatus status = st->status;
  release_state(st);  // before `done`: a resubmitting callback reuses the slot
  if (done) done(status);
}

DiskArray::DiskArray(Simulator& sim, const ArrayConfig& cfg) : sim_(sim), cfg_(cfg) {
  POD_CHECK(cfg_.num_disks >= 1);
  POD_CHECK(cfg_.stripe_unit_blocks >= 1);
  if (cfg_.fault.enabled) fault_ = std::make_unique<FaultInjector>(cfg_.fault);
  HddModel model(cfg_.disk_geometry, cfg_.disk_timing);
  disks_.reserve(cfg_.num_disks);
  for (std::size_t i = 0; i < cfg_.num_disks; ++i) {
    disks_.push_back(std::make_unique<Disk>(sim_, model, cfg_.scheduler,
                                            "disk" + std::to_string(i),
                                            static_cast<int>(i)));
    if (fault_ != nullptr) disks_.back()->set_fault_injector(fault_.get(), i);
  }
}

void DiskArray::run_two_phase(std::span<const DiskFragment> phase1,
                              OpType phase1_type,
                              std::span<const DiskFragment> phase2,
                              OpType phase2_type, IoDoneFn done,
                              bool reconstruct) {
  TwoPhaseState* st = acquire_state();
  st->phase2.assign(phase2.data(), phase2.size());
  st->phase2_type = phase2_type;
  st->done = std::move(done);
  st->reconstruct = reconstruct;
  if (sim_.anatomy() != nullptr) st->anatomy.clear();

  if (phase1.empty()) {
    start_phase2(st);
    return;
  }
  st->outstanding = phase1.size();
  issue_fragments(phase1, phase1_type, st, /*phase1=*/true);
}

}  // namespace pod
