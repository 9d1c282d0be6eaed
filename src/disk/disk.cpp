#include "disk/disk.hpp"

#include <cstdlib>
#include <utility>

#include "common/check.hpp"
#include "replay/anatomy.hpp"
#include "telemetry/telemetry.hpp"

namespace pod {

Disk::Disk(Simulator& sim, const HddModel& model, SchedulerKind scheduler,
           std::string name, int lane)
    : sim_(sim),
      model_(model),
      queue_(scheduler),
      name_(std::move(name)),
      lane_(lane) {}

void Disk::init_telemetry(Telemetry& t) {
  telem_.init = true;
  MetricsRegistry& m = t.metrics();
  telem_.queue_depth = &m.histogram(name_ + ".queue_depth");
  telem_.seek_cylinders = &m.histogram(name_ + ".seek_cylinders");
  // Cumulative counters already live in DiskStats; export them as pull
  // probes instead of double-counting on the hot path.
  m.probe(name_ + ".reads", [this] { return static_cast<double>(stats_.reads); });
  m.probe(name_ + ".writes",
          [this] { return static_cast<double>(stats_.writes); });
  m.probe(name_ + ".busy_ms", [this] { return to_ms(stats_.busy_time); });
  m.probe(name_ + ".sequential_hits",
          [this] { return static_cast<double>(stats_.sequential_hits); });
  telem_.trace = t.trace();
  telem_.qd_counter_name = name_ + " queue";
  if (telem_.trace != nullptr)
    telem_.trace->set_thread_name(kTracePidDisks, lane_ < 0 ? 0 : lane_,
                                  name_.c_str());
}

void Disk::note_arrival() {
  const double depth = static_cast<double>(queue_length());
  stats_.queue_depth.add(depth);
  if (Telemetry* t = sim_.telemetry()) {
    if (!telem_.init) init_telemetry(*t);
    telem_.queue_depth->add(depth);
    if (telem_.trace != nullptr)
      telem_.trace->counter(kTracePidDisks, telem_.qd_counter_name.c_str(),
                            sim_.now(), depth + 1.0);
  }
}

void Disk::dispatch_next() {
  POD_CHECK(!busy_);
  if (queue_.empty()) return;
  busy_ = true;
  in_service_ = queue_.pop(head_cylinder_);
  const DiskOp& op = queue_.op(in_service_);

  if (fault_ != nullptr && fault_->disk_dead(fault_index_, sim_.now())) {
    // The device is gone: the controller returns an error without any
    // mechanical service. Head state and mechanical stats are untouched.
    ++fault_->stats().dead_disk_ops;
    sim_.schedule_after(us(50), [this]() {
      DiskOp& dead = queue_.op(in_service_);
      const SimTime enqueued = dead.enqueue_time;
      IoDoneFn done = std::move(dead.done);
      queue_.release(in_service_);
      busy_ = false;
      if (LatencyAnatomy* a = sim_.anatomy()) {
        // The controller error-return is pure fault overhead: no mechanics
        // were exercised, the rest of the op's life was queueing.
        LatBreakdown b;
        b[LatComp::kQueueWait] = (sim_.now() - us(50)) - enqueued;
        b[LatComp::kFaultRetry] = us(50);
        a->publish_disk_op(b);
      }
      if (done) done(IoStatus::kFailedDevice);
      if (!busy_) dispatch_next();
    });
    return;
  }

  // Sequential streaming: the op continues exactly where the previous one
  // ended and the disk has not sat idle long enough for the platter
  // position to matter (within one rotation, the on-drive buffer and
  // read-ahead hide the gap).
  const bool sequential =
      op.block == next_sequential_block_ &&
      sim_.now() - last_completion_ <= model_.rotation_period();

  const std::uint64_t seek_cyls =
      sequential ? 0
                 : (op.cylinder > head_cylinder_ ? op.cylinder - head_cylinder_
                                                 : head_cylinder_ - op.cylinder);
  stats_.seek_cylinders.add(static_cast<double>(seek_cyls));
  if (telem_.init)
    telem_.seek_cylinders->add(static_cast<double>(seek_cyls));

  const HddModel::Service svc =
      model_.service(head_cylinder_, op.cylinder, op.block, op.nblocks,
                     sim_.now(), sequential);
  if (sequential) ++stats_.sequential_hits;

  Duration service = svc.total();
  IoStatus status = IoStatus::kOk;

  // Fault consultation. The whole retry ladder is resolved synchronously —
  // attempt k fails, waits k * backoff, re-runs the same mechanical
  // service — and charged as one busy period, so a faulty op still costs
  // exactly one completion event (determinism: the event count and order
  // depend only on the decision stream, which is seeded).
  if (fault_ != nullptr) {
    switch (fault_->decide(fault_index_, op.type, op.block, op.nblocks)) {
      case FaultKind::kNone:
        break;
      case FaultKind::kMediaError:
        // Mechanically a normal access; the medium returned garbage.
        status = IoStatus::kMediaError;
        break;
      case FaultKind::kTransient: {
        const FaultConfig& fc = fault_->config();
        const Duration base = svc.total();
        status = IoStatus::kTimeout;
        for (std::uint32_t attempt = 1; attempt <= fc.max_retries; ++attempt) {
          service += static_cast<Duration>(attempt) * fc.transient_backoff +
                     base;
          if (!fault_->retry_still_failing(fault_index_)) {
            status = IoStatus::kOk;
            break;
          }
        }
        if (status == IoStatus::kTimeout) ++fault_->stats().timeouts;
        break;
      }
    }
  }

  stats_.busy_time += service;

  // The op stays in its queue slot until completion; the event carries
  // only the timing split (fits InlineEvent's inline buffer).
  sim_.schedule_after(service, [this, svc, service, status]() {
    complete(svc, service, status);
  });
}

void Disk::complete(const HddModel::Service& svc, Duration service,
                    IoStatus status) {
  DiskOp& op = queue_.op(in_service_);
  head_cylinder_ = model_.cylinder_of(op.block + op.nblocks - 1);
  next_sequential_block_ = op.block + op.nblocks;
  if (next_sequential_block_ >= model_.total_blocks())
    next_sequential_block_ = ~std::uint64_t{0};
  last_completion_ = sim_.now();

  if (op.type == OpType::kRead) {
    ++stats_.reads;
    stats_.blocks_read += op.nblocks;
  } else {
    ++stats_.writes;
    stats_.blocks_written += op.nblocks;
  }
  stats_.op_latency.add(static_cast<double>(sim_.now() - op.enqueue_time));

  if (telem_.init && telem_.trace != nullptr) {
    // The service period [dispatch, completion] — per-disk lanes carry only
    // non-overlapping spans (one op in service at a time); queueing wait is
    // reported in args.
    const SimTime start = sim_.now() - service;
    telem_.trace->complete(
        kTracePidDisks, lane_ < 0 ? 0 : lane_, to_string(op.type), start,
        service,
        {{"block", op.block},
         {"nblocks", op.nblocks},
         {"wait_us", to_us(start - op.enqueue_time)},
         {"seek_us", to_us(svc.seek)},
         {"rotation_us", to_us(svc.rotation)}});
    telem_.trace->counter(
        kTracePidDisks, telem_.qd_counter_name.c_str(), sim_.now(),
        static_cast<double>(queue_.size()));
  }

  busy_ = false;
  if (LatencyAnatomy* a = sim_.anatomy()) {
    // Publish this op's exact decomposition into the hand-off register
    // right before firing `done` — the volume layer reads it synchronously
    // inside the callback when this op completes a phase. The retry ladder
    // (`service` beyond the mechanical split) is fault time; controller
    // overhead is folded into transfer.
    LatBreakdown b;
    b[LatComp::kQueueWait] = (sim_.now() - service) - op.enqueue_time;
    b[LatComp::kSeek] = svc.seek;
    b[LatComp::kRotation] = svc.rotation;
    b[LatComp::kTransfer] = svc.transfer + svc.overhead;
    b[LatComp::kFaultRetry] = service - svc.total();
    a->publish_disk_op(b);
  }
  IoDoneFn done = std::move(op.done);
  queue_.release(in_service_);
  if (done) done(status);
  // The completion callback may have submitted more work already (in which
  // case submit() found busy_ == false and dispatched); only dispatch here
  // if still idle.
  if (!busy_) dispatch_next();
}

}  // namespace pod
