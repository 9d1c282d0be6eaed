// Telemetry facade: one per replay run, reached via Simulator::telemetry().
//
// Bundles the three sinks of the sim-time telemetry subsystem:
//   * a MetricsRegistry of counters/gauges/histograms (always present when
//     telemetry is on; snapshot exported into ReplayResult);
//   * an optional Chrome/Perfetto trace_event writer;
//   * an optional sim-time periodic sampler.
//
// Overhead contract: when the run's TelemetryConfig names no sink,
// Simulator::telemetry() stays null and every instrumentation site in the
// engines/disks/RAID/replayer is a single branch on that null pointer —
// nothing is allocated, formatted or counted. ParallelRunner safety comes
// from per-run ownership: each run builds its own Telemetry, and file sinks
// are suffixed with a process-wide run sequence number plus the run's
// engine/trace label, so concurrent runs never share a FILE*. A run's
// TelemetryConfig comes from its RunSpec.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/trace_writer.hpp"

namespace pod {

/// Trace-event lane layout shared by all instrumentation sites: pid 1
/// carries the per-request async spans (and process-wide instants /
/// counters), pid 2 carries one tid lane per member disk.
inline constexpr int kTracePidRequests = 1;
inline constexpr int kTracePidDisks = 2;
/// Async-event category for per-request spans.
inline constexpr const char* kTraceCatRequest = "req";

struct TelemetryConfig {
  /// Base path for trace-event JSON, one file per run
  /// (base.<seq>-<label>.json); empty = span tracing off.
  std::string trace_events_path;
  /// Base path for the sampled time series (a .jsonl extension selects
  /// JSON-lines rows); empty = sampling off.
  std::string timeseries_path;
  Duration sample_interval = ms(100);
  /// Cap on trace events per run (0 = unlimited).
  std::uint64_t trace_event_limit = 500'000;

  bool any() const {
    return !trace_events_path.empty() || !timeseries_path.empty();
  }

  bool operator==(const TelemetryConfig&) const = default;
};

class Telemetry {
 public:
  /// Opens the configured sinks with per-run suffixed paths. `run_label`
  /// names the run in filenames and lane titles (e.g. "web-vm-pod").
  Telemetry(const TelemetryConfig& cfg, const std::string& run_label);
  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  /// Null when span tracing is disabled: callers branch once and skip all
  /// event formatting.
  TraceEventWriter* trace() { return trace_.get(); }
  TimeSeriesSampler* sampler() { return sampler_.get(); }

  const std::string& run_label() const { return run_label_; }

  /// Forwards to the sampler when present (the replayer's poll site).
  void maybe_sample(SimTime now) {
    if (sampler_) sampler_->maybe_sample(now);
  }

  /// End of run: final sample row, closes both sinks.
  void finish(SimTime now);

 private:
  std::string run_label_;
  MetricsRegistry metrics_;
  std::unique_ptr<TraceEventWriter> trace_;
  std::unique_ptr<TimeSeriesSampler> sampler_;
};

/// "base.ext" -> "base.<seq>-<label>.ext" (label sanitized to
/// [A-Za-z0-9._-]); exposed for tests.
std::string telemetry_run_path(const std::string& base, std::uint64_t seq,
                               const std::string& label);

}  // namespace pod
