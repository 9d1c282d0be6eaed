#include "common/resource.hpp"

#include <chrono>
#include <ctime>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace pod {

std::uint64_t current_peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

namespace {

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds of the calling thread (0 where the clock is missing).
double thread_cpu_seconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
#else
  return 0.0;
#endif
}

}  // namespace

HostTimer::HostTimer() : wall0_(wall_seconds()), cpu0_(thread_cpu_seconds()) {}

HostTime HostTimer::elapsed() const {
  return HostTime{wall_seconds() - wall0_, thread_cpu_seconds() - cpu0_};
}

}  // namespace pod
