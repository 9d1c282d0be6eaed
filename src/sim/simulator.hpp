// The discrete-event simulator driving disks, RAID volumes and the replayer.
//
// A Simulator owns virtual time. Components schedule callbacks at absolute
// times or after delays; run() executes events in time order until the
// queue drains. All response times reported by the benches are measured in
// this virtual time, so replaying a full trace "day" takes only real
// seconds.
#pragma once

#include <utility>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/event_queue.hpp"

namespace pod {

class Telemetry;
class LatencyAnatomy;

class Simulator {
 public:
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `at` (>= now()). The callable
  /// is built directly in its event-queue slot.
  template <typename F>
  void schedule_at(SimTime at, F&& fn) {
    POD_CHECK(at >= now_);
    events_.push(at, std::forward<F>(fn));
  }

  /// Schedules `fn` after `delay` nanoseconds of virtual time.
  template <typename F>
  void schedule_after(Duration delay, F&& fn) {
    POD_CHECK(delay >= 0);
    events_.push(now_ + delay, std::forward<F>(fn));
  }

  /// Runs until the event queue is empty.
  void run();

  /// Runs events with time <= `until`; afterwards now() == max(now, until).
  void run_until(SimTime until);

  /// Executes a single event if one exists; returns false when drained.
  bool step();

  /// Fire time of the earliest pending event. Requires !idle().
  SimTime next_event_time() const { return events_.next_time(); }

  /// Advances now() to `t` without executing anything. `t` must not be
  /// after the earliest pending event (used by streaming admission to
  /// inject external arrivals between events).
  void advance_to(SimTime t);

  bool idle() const { return events_.empty(); }
  std::uint64_t events_executed() const { return events_executed_; }
  /// Total events scheduled since construction/reset.
  std::uint64_t events_scheduled() const { return events_.pushes(); }
  /// High-water mark of the pending-event heap.
  std::size_t peak_event_depth() const { return events_.peak_size(); }

  void reset();

  /// Telemetry for the run this simulator drives (null = telemetry off).
  /// The simulator is the one object every timed component already holds,
  /// so it doubles as the telemetry rendezvous point; it does not own the
  /// Telemetry, and the disabled path is a single null-pointer branch at
  /// each instrumentation site.
  Telemetry* telemetry() const { return telemetry_; }
  void set_telemetry(Telemetry* t) { telemetry_ = t; }

  /// Latency-anatomy collector for this run (null = attribution off). Same
  /// rendezvous pattern as telemetry: not owned, one null-pointer branch
  /// per charge site when off.
  LatencyAnatomy* anatomy() const { return anatomy_; }
  void set_anatomy(LatencyAnatomy* a) { anatomy_ = a; }

 private:
  SimTime now_ = 0;
  EventQueue events_;
  std::uint64_t events_executed_ = 0;
  // The observers sit on their own cache line: an engine policy running
  // ahead on another thread reads these two pointers per request while the
  // simulator's thread writes the clock and the queue.
  alignas(64) Telemetry* telemetry_ = nullptr;
  LatencyAnatomy* anatomy_ = nullptr;
};

}  // namespace pod
