// A single simulated disk: mechanical model + request queue + dispatcher.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "disk/hdd_model.hpp"
#include "disk/io_scheduler.hpp"
#include "sim/simulator.hpp"

namespace pod {

class Telemetry;
class MetricHistogram;
class TraceEventWriter;

struct DiskStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t blocks_read = 0;
  std::uint64_t blocks_written = 0;
  std::uint64_t sequential_hits = 0;
  Duration busy_time = 0;
  /// Queue depth observed at each enqueue (excluding the new op).
  OnlineStats queue_depth;
  /// Head movement per dispatched op, in cylinders (0 for sequential
  /// continuations).
  OnlineStats seek_cylinders;
  /// Per-op total latency (wait + service), in ns: count, mean and max
  /// only (no per-op samples are kept).
  OnlineStats op_latency;
};

/// One disk services one op at a time; waiting ops sit in the queue. An op
/// is built in its queue slot at submit and stays there until completion,
/// when its callback is moved out once and fired in simulated time.
class Disk {
 public:
  /// `lane` is the disk's trace-event tid under the "disks" process (-1 =
  /// unnumbered standalone disk; it shares lane 0).
  Disk(Simulator& sim, const HddModel& model,
       SchedulerKind scheduler = SchedulerKind::kFcfs, std::string name = "disk",
       int lane = -1);

  /// Enqueues an op on disk-local blocks [block, block + nblocks); `done`
  /// (anything an IoDoneFn holds) is built in the op's queue slot and fires
  /// at completion with the op's outcome.
  template <typename F = IoDoneFn>
  void submit(OpType type, std::uint64_t block, std::uint64_t nblocks,
              F&& done = IoDoneFn{}) {
    POD_CHECK(nblocks > 0);
    POD_CHECK(block + nblocks <= model_.total_blocks());
    note_arrival();
    const std::uint32_t slot = queue_.push();
    DiskOp& op = queue_.op(slot);
    op.type = type;
    op.block = block;
    op.nblocks = nblocks;
    op.cylinder = model_.cylinder_of(block);
    op.enqueue_time = sim_.now();
    op.done.emplace(std::forward<F>(done));
    if (!busy_) dispatch_next();
  }

  /// Attaches a fault injector; `index` is this disk's slot in the array
  /// (selects the injector's per-disk decision stream). Null detaches —
  /// the default, in which case every op completes IoStatus::kOk with no
  /// extra branches beyond one pointer test per dispatch.
  void set_fault_injector(FaultInjector* injector, std::size_t index) {
    fault_ = injector;
    fault_index_ = index;
  }

  std::uint64_t total_blocks() const { return model_.total_blocks(); }
  std::size_t queue_length() const { return queue_.size() + (busy_ ? 1 : 0); }
  const DiskStats& stats() const { return stats_; }
  const HddModel& model() const { return model_; }
  const std::string& name() const { return name_; }

 private:
  /// Records the queue depth an arriving op sees (excluding itself).
  void note_arrival();
  void dispatch_next();
  /// Completes the op in slot `in_service_`. `service` is the total busy
  /// time charged (mechanical service plus any injected retry rounds);
  /// `svc` carries the mechanical split for traces.
  void complete(const HddModel::Service& svc, Duration service,
                IoStatus status);

  /// Lazily binds telemetry handles (registry probes for the cumulative
  /// DiskStats counters, histograms for queue depth / seek distance, the
  /// per-disk trace lane). Lazy so construction order relative to
  /// Simulator::set_telemetry does not matter.
  void init_telemetry(Telemetry& t);

  Simulator& sim_;
  HddModel model_;
  DiskQueue queue_;
  std::string name_;
  int lane_ = -1;
  FaultInjector* fault_ = nullptr;
  std::size_t fault_index_ = 0;

  /// Telemetry handles, bound on first submit when telemetry is on. All
  /// null/false when off — the hot-path cost is one pointer test.
  struct Telem {
    bool init = false;
    MetricHistogram* queue_depth = nullptr;
    MetricHistogram* seek_cylinders = nullptr;
    TraceEventWriter* trace = nullptr;
    std::string qd_counter_name;
  };
  Telem telem_;

  bool busy_ = false;
  /// Queue slot of the op in service (valid while busy_); the completion
  /// event carries only the timing split.
  std::uint32_t in_service_ = 0;
  std::uint64_t head_cylinder_ = 0;
  std::uint64_t next_sequential_block_ = ~std::uint64_t{0};
  SimTime last_completion_ = 0;

  DiskStats stats_;
};

}  // namespace pod
