// Process resource probes used by the replay/bench counters.
#pragma once

#include <cstdint>

namespace pod {

/// Peak resident-set size of the current process in bytes (VmHWM), or 0
/// when the platform offers no probe. Process-wide and monotone: useful as
/// a high-water trajectory across a bench run, not as a per-run delta.
std::uint64_t current_peak_rss_bytes();

/// Host seconds one phase took: wall clock, and the CPU time of the thread
/// that ran it.
struct HostTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Measures a phase on the thread that runs it: construct at its start,
/// call elapsed() at its end on the same thread.
class HostTimer {
 public:
  HostTimer();
  HostTime elapsed() const;

 private:
  double wall0_;
  double cpu0_;
};

}  // namespace pod
