#include "fault/fault.hpp"

namespace pod {

const char* to_string(IoStatus s) {
  switch (s) {
    case IoStatus::kOk: return "ok";
    case IoStatus::kTimeout: return "timeout";
    case IoStatus::kMediaError: return "media_error";
    case IoStatus::kFailedDevice: return "failed_device";
  }
  return "unknown";
}

FaultInjector::FaultInjector(const FaultConfig& cfg) : cfg_(cfg) {}

Rng& FaultInjector::stream(std::size_t disk) {
  // Lazily grown: stream d is the seed advanced by d jumps (2^128 steps
  // each), so each disk draws from a provably disjoint subsequence
  // regardless of how its ops interleave with other disks'.
  while (streams_.size() <= disk) {
    Rng r(cfg_.seed);
    for (std::size_t j = 0; j < streams_.size(); ++j) r.jump();
    streams_.push_back(r);
  }
  return streams_[disk];
}

FaultKind FaultInjector::decide(std::size_t disk, OpType /*type*/,
                                std::uint64_t /*block*/,
                                std::uint64_t /*nblocks*/) {
  const double media = cfg_.media_error_rate;
  const double transient = cfg_.transient_rate;
  if (media <= 0.0 && transient <= 0.0) return FaultKind::kNone;
  const double u = stream(disk).next_double();
  if (u < media) {
    ++stats_.media_errors;
    return FaultKind::kMediaError;
  }
  if (u < media + transient) {
    ++stats_.transients;
    return FaultKind::kTransient;
  }
  return FaultKind::kNone;
}

bool FaultInjector::retry_still_failing(std::size_t disk) {
  ++stats_.transient_retries;
  return stream(disk).next_double() < cfg_.transient_rate;
}

bool FaultInjector::disk_dead(std::size_t disk, SimTime now) const {
  if (spare_attached_) return false;
  return disk == cfg_.fail_disk && cfg_.fail_at >= 0 && now >= cfg_.fail_at;
}

bool FaultInjector::disk_failure_due(SimTime now) const {
  if (failure_noted_) return false;
  return cfg_.fail_disk != ~std::size_t{0} && cfg_.fail_at >= 0 &&
         now >= cfg_.fail_at;
}

void FaultInjector::note_disk_failed() {
  if (!failure_noted_) {
    failure_noted_ = true;
    ++stats_.disk_failures;
  }
}

void FaultInjector::attach_spare() { spare_attached_ = true; }

}  // namespace pod
