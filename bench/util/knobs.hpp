// The benches' POD_* environment knobs, read once at the start of main.
// README.md's "Environment knobs" is the reference for each knob's meaning
// and range. knobs_from_env() is the one function here that reads the
// environment; the library (src/) and the examples read none, and take
// what a knob sets as arguments (RunSpec, obtain_traces, ...).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "replay/replayer.hpp"
#include "telemetry/telemetry.hpp"

namespace pod::bench {

/// The host's hardware threads (at least 1).
std::size_t hardware_threads();

struct Knobs {
  double scale = 0.25;  ///< POD_SCALE
  std::string trace;    ///< POD_TRACE; empty = all three paper traces
  /// POD_JOBS, capped at the hardware threads: replays are CPU-bound, so
  /// more jobs than cores only buys context switches.
  std::size_t jobs = hardware_threads();
  std::string trace_cache;  ///< POD_TRACE_CACHE; empty = no cache
  std::string bench_json;   ///< POD_BENCH_JSON; empty = no records
  /// POD_TRACE_EVENTS, POD_TELEMETRY_CSV, POD_TELEMETRY_INTERVAL_MS and
  /// POD_TRACE_LIMIT.
  TelemetryConfig telemetry;
  bool anatomy = false;                     ///< POD_ANATOMY
  std::optional<std::size_t> tail_anatomy;  ///< POD_TAIL_ANATOMY
  FaultConfig fault;  ///< POD_FAULT_*; enabled when any of them is set
  bool scalar_probes = false;        ///< POD_SCALAR_PROBES
  std::uint64_t cdc_sweep_mb = 24;   ///< POD_CDC_SWEEP_MB

  /// Sets on `spec` what the knobs choose for every replay: fault
  /// injection, probe mode, telemetry and anatomy.
  void apply(RunSpec& spec) const;
};

/// Every knob's name, in README order.
const std::vector<std::string_view>& knob_names();

/// Sets knob `name` from `value`. Throws std::invalid_argument reading
/// "POD_X='value' is not ..." when the value is malformed or out of range
/// (an empty value too), or when `name` is not a knob.
void set_knob(Knobs& knobs, std::string_view name, std::string_view value);

/// Reads every knob from the environment. A bad value is refused: its
/// message goes to stderr and the process exits with status 2.
Knobs knobs_from_env();

}  // namespace pod::bench
