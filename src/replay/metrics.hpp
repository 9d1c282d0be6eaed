// Replay results: per-class latency plus engine/disk counters.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/resource.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "engines/engine.hpp"
#include "icache/icache.hpp"
#include "raid/volume.hpp"
#include "replay/anatomy.hpp"

namespace pod {

struct ReplayResult {
  std::string engine_name;
  std::string trace_name;

  /// User response times over the measured phase.
  LatencyRecorder all;
  LatencyRecorder reads;
  LatencyRecorder writes;

  /// Engine counters accumulated during the measured phase only.
  EngineStats measured;

  /// End-of-run state.
  std::uint64_t physical_blocks_used = 0;
  std::uint64_t map_table_bytes = 0;
  std::uint64_t map_table_max_bytes = 0;
  std::uint64_t chunks_hashed = 0;
  std::uint64_t index_cache_bytes = 0;
  std::uint64_t read_cache_bytes = 0;
  double read_cache_hit_rate = 0.0;
  double index_cache_hit_rate = 0.0;

  /// Aggregate member-disk activity during the measured phase.
  std::uint64_t disk_reads = 0;
  std::uint64_t disk_writes = 0;
  double mean_disk_queue_depth = 0.0;

  /// Per-member-disk activity breakdown (index = member position).
  struct DiskBreakdown {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t blocks_read = 0;
    std::uint64_t blocks_written = 0;
    std::uint64_t sequential_hits = 0;
    double busy_ms = 0.0;
    double mean_queue_depth = 0.0;
    double mean_seek_cylinders = 0.0;
  };
  std::vector<DiskBreakdown> per_disk;

  /// Parity-layout write-mode counters (all zero for RAID-0).
  VolumeCounters volume_counters;

  /// Fault-injection outcome (all zero when faults are disabled).
  struct FaultSummary {
    bool enabled = false;
    /// Injector activity (what was thrown at the disks).
    FaultStats injected;
    /// Request-level outcomes live in `measured` (media_error_ops,
    /// damaged_*_blocks, failed_requests); journal state, when journaling
    /// was on:
    std::uint64_t journal_records = 0;
    std::uint64_t journal_lost = 0;
  };
  FaultSummary fault;

  /// iCache end-of-run state (all zero for engines without one).
  ICacheStats icache;
  /// Final index/total memory split (0 when the engine has no iCache).
  double final_index_fraction = 0.0;

  /// Snapshot of the telemetry metrics registry at end of run, sorted by
  /// name (empty when telemetry is off).
  std::vector<std::pair<std::string, double>> telemetry_counters;

  /// Latency-anatomy summary (enabled == false when attribution was off).
  /// Per-component recorders, per-stream accounting, and the top-K tail.
  AnatomyResult anatomy;

  /// Simulated completion time of the last request.
  SimTime makespan = 0;

  /// Host-side replay-core counters (memory-regression tripwires):
  /// events pushed onto the simulator heap during the measured phase …
  std::uint64_t events_scheduled = 0;
  /// … the heap's high-water mark (streaming admission keeps this at
  /// O(in-flight I/O) instead of O(trace)) …
  std::uint64_t peak_event_depth = 0;
  /// … and the process peak RSS (bytes, process-wide high-water mark) at
  /// the end of the run. 0 when unavailable.
  std::uint64_t peak_rss_bytes = 0;

  /// Fingerprints probed through the fused index pass (0 when the engine
  /// has no index cache or runs with scalar_probes).
  std::uint64_t batch_probes = 0;
  /// Heap bytes held by the engine's request scratch arena at the end of
  /// the run — flat across request counts once the largest request has
  /// been seen (the zero-steady-state-allocation tripwire).
  std::uint64_t scratch_bytes = 0;

  /// Host time per phase, each read on the thread that did the work.
  /// They describe the host, not the simulation: result files carry them,
  /// stdout never does. The functional warm-up (calling thread) …
  HostTime host_warmup;
  /// … the measured phase's engine policy (DedupEngine::prepare on the
  /// calling thread; zero for an inline replay, where it runs interleaved
  /// with the DES and is counted in host_des) …
  HostTime host_policy;
  /// … and the measured phase's DES: admission, DedupEngine::execute and
  /// Simulator::step, on the helper thread when des_helper is set.
  HostTime host_des;
  bool des_helper = false;

  double mean_ms() const { return all.mean_ms(); }
  double read_mean_ms() const { return reads.mean_ms(); }
  double write_mean_ms() const { return writes.mean_ms(); }
};

/// "x relative to baseline" as the percentage the paper uses (normalized
/// response time: 100 = Native).
double normalized_pct(double value, double baseline);

/// Improvement of `value` over `baseline` in percent (positive = faster).
double improvement_pct(double value, double baseline);

}  // namespace pod
