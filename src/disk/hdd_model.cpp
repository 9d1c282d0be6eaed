#include "disk/hdd_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace pod {

HddModel::HddModel() : HddModel(HddGeometry{}, HddTiming{}) {}

HddModel::HddModel(const HddGeometry& geometry, const HddTiming& timing)
    : geometry_(geometry), timing_(timing) {
  POD_CHECK(geometry_.total_blocks > 0);
  POD_CHECK(geometry_.blocks_per_track_outer >= geometry_.blocks_per_track_inner);
  POD_CHECK(geometry_.blocks_per_track_inner > 0);
  POD_CHECK(geometry_.tracks_per_cylinder > 0);
  POD_CHECK(timing_.rpm > 0);

  rotation_period_ = static_cast<Duration>(60.0 * kSecond / timing_.rpm);

  const double avg_density =
      0.5 * (geometry_.blocks_per_track_outer + geometry_.blocks_per_track_inner);
  avg_blocks_per_cylinder_ = avg_density * geometry_.tracks_per_cylinder;
  num_cylinders_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(static_cast<double>(geometry_.total_blocks) /
                       avg_blocks_per_cylinder_)));

  // Calibrate seek = a + b*sqrt(d) so that d=1 gives track_to_track and
  // d=C/3 gives the average seek (the common datasheet definition).
  const double d_avg = std::max(1.0, static_cast<double>(num_cylinders_) / 3.0);
  const double t1 = static_cast<double>(timing_.seek_track_to_track);
  const double tavg = static_cast<double>(timing_.seek_average);
  if (d_avg > 1.0) {
    seek_b_ = (tavg - t1) / (std::sqrt(d_avg) - 1.0);
    seek_a_ = t1 - seek_b_;
  } else {
    seek_b_ = 0.0;
    seek_a_ = t1;
  }
}

std::uint64_t HddModel::cylinder_of(std::uint64_t block) const {
  POD_DCHECK(block < geometry_.total_blocks);
  const auto cyl = static_cast<std::uint64_t>(static_cast<double>(block) /
                                              avg_blocks_per_cylinder_);
  return std::min(cyl, num_cylinders_ - 1);
}

std::uint32_t HddModel::blocks_per_track(std::uint64_t cylinder) const {
  const double frac = num_cylinders_ > 1
                          ? static_cast<double>(cylinder) /
                                static_cast<double>(num_cylinders_ - 1)
                          : 0.0;
  const double bpt = geometry_.blocks_per_track_outer -
                     frac * (geometry_.blocks_per_track_outer -
                             geometry_.blocks_per_track_inner);
  return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(bpt));
}

double HddModel::angle_in_track(std::uint64_t block, std::uint32_t bpt) {
  return static_cast<double>(block % bpt) / static_cast<double>(bpt);
}

Duration HddModel::seek_time(std::uint64_t from_cyl, std::uint64_t to_cyl) const {
  if (from_cyl == to_cyl) return 0;
  const double dist = from_cyl > to_cyl
                          ? static_cast<double>(from_cyl - to_cyl)
                          : static_cast<double>(to_cyl - from_cyl);
  const double t = seek_a_ + seek_b_ * std::sqrt(dist);
  const auto capped =
      std::min<double>(t, static_cast<double>(timing_.seek_full_stroke));
  return static_cast<Duration>(std::max(
      capped, static_cast<double>(timing_.seek_track_to_track)));
}

Duration HddModel::rotational_delay(double target_angle, SimTime at) const {
  const double head_angle =
      static_cast<double>(at % rotation_period_) /
      static_cast<double>(rotation_period_);
  double delta = target_angle - head_angle;
  if (delta < 0.0) delta += 1.0;
  return static_cast<Duration>(delta * static_cast<double>(rotation_period_));
}

Duration HddModel::transfer_at_density(std::uint32_t bpt,
                                       std::uint64_t blocks) const {
  const double per_block =
      static_cast<double>(rotation_period_) / static_cast<double>(bpt);
  return static_cast<Duration>(per_block * static_cast<double>(blocks));
}

HddModel::Service HddModel::service(std::uint64_t head_cylinder,
                                    std::uint64_t cylinder, std::uint64_t block,
                                    std::uint64_t blocks, SimTime at,
                                    bool sequential_hint) const {
  POD_CHECK(blocks > 0);
  POD_CHECK(block + blocks <= geometry_.total_blocks);
  POD_DCHECK(cylinder == cylinder_of(block));
  const std::uint32_t bpt = blocks_per_track(cylinder);
  Service s{};
  s.overhead = timing_.controller_overhead;
  s.transfer = transfer_at_density(bpt, blocks);
  if (sequential_hint) {
    // Streaming continuation: head already positioned, media flows.
    return s;
  }
  s.seek = seek_time(head_cylinder, cylinder);
  s.rotation = rotational_delay(angle_in_track(block, bpt), at + s.seek);
  return s;
}

}  // namespace pod
