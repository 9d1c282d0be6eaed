// The prescheduled replay, kept as a test oracle: every measured arrival is
// scheduled as a simulator event up front, then the simulator runs, each
// arrival event submitting its request. The replayer streams arrivals in
// instead (an arrival is admitted when its time is <= the earliest pending
// event), which must reproduce this (time, seq) order exactly: every
// arrival event here carries a smaller sequence number than any event
// scheduled during the run, so at equal times arrivals fire first, in
// trace order. Only the heap differs: here it holds the whole measured
// trace.
#pragma once

#include <memory>

#include "common/check.hpp"
#include "replay/replayer.hpp"

namespace pod {

/// Replays `trace` against `engine` with every measured arrival scheduled
/// up front. Fills the latency recorders, the measured counters, the event
/// counts and the makespan, as Replayer::replay does.
inline ReplayResult prescheduled_replay(Simulator& sim, DedupEngine& engine,
                                        const Trace& trace) {
  ReplayResult result;
  result.engine_name = engine.name();
  result.trace_name = trace.name;
  for (std::size_t i = 0; i < trace.warmup_count; ++i)
    engine.warm(trace.requests[i]);
  engine.begin_measured();
  const std::size_t first = trace.warmup_count;
  if (first == trace.requests.size()) return result;
  const SimTime t0 = trace.requests[first].arrival;
  const std::uint64_t scheduled_before = sim.events_scheduled();
  for (std::size_t i = first; i < trace.requests.size(); ++i) {
    const IoRequest& req = trace.requests[i];
    const SimTime arrival = req.arrival - t0;
    POD_CHECK(arrival >= 0);
    sim.schedule_at(arrival, [&sim, &engine, &req, &result, arrival] {
      engine.submit(req, [&sim, &result, arrival, type = req.type](IoStatus) {
        const Duration latency = sim.now() - arrival;
        result.all.add(latency);
        if (type == OpType::kWrite) result.writes.add(latency);
        else result.reads.add(latency);
      });
    });
  }
  sim.run();
  result.measured = engine.measured_stats();
  result.events_scheduled = sim.events_scheduled() - scheduled_before;
  result.peak_event_depth = sim.peak_event_depth();
  result.physical_blocks_used = engine.physical_blocks_used();
  result.makespan = sim.now();
  return result;
}

/// run_replay's one-stop form: a fresh simulator, volume and engine for
/// `spec`, plus the volume's disk op counts.
inline ReplayResult prescheduled_replay(const RunSpec& spec,
                                        const Trace& trace) {
  Simulator sim;
  std::unique_ptr<Volume> volume = make_volume(sim, spec);
  std::unique_ptr<DedupEngine> engine = make_engine(sim, *volume, spec);
  ReplayResult result = prescheduled_replay(sim, *engine, trace);
  for (std::size_t d = 0; d < volume->num_disks(); ++d) {
    result.disk_reads += volume->disk(d).stats().reads;
    result.disk_writes += volume->disk(d).stats().writes;
  }
  return result;
}

}  // namespace pod
