// Mechanical model of a single hard disk drive.
//
// Parameterised after the WDC WD1600AAJS-class SATA drives used in the
// paper's testbed: 7200 RPM, ~8.9 ms average seek, ~90 MB/s outer-zone
// media rate. The model computes per-operation service components:
//
//   service = seek(cylinder distance) + rotation(target angle vs head
//             angle at arrival) + transfer(blocks / track rate)
//
// Sequential continuation (next block follows the previous op on the same
// track) skips both seek and rotational delay, which is what makes the
// paper's fragmentation / read-amplification effects visible.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace pod {

struct HddGeometry {
  /// Usable capacity in 4 KB blocks (default ~160 GB / 8 disks worth; the
  /// benches size the volume per trace footprint instead).
  std::uint64_t total_blocks = 8 * kGiB / kBlockSize;
  /// 4 KB blocks per track in the outermost zone.
  std::uint32_t blocks_per_track_outer = 256;  // 1 MiB/track
  /// 4 KB blocks per track in the innermost zone (zoned bit recording).
  std::uint32_t blocks_per_track_inner = 128;
  /// Tracks per cylinder (surfaces).
  std::uint32_t tracks_per_cylinder = 4;

  bool operator==(const HddGeometry&) const = default;
};

struct HddTiming {
  std::uint32_t rpm = 7200;
  /// Track-to-track (minimum) seek.
  Duration seek_track_to_track = us(800);
  /// Average seek as quoted on datasheets (1/3 stroke).
  Duration seek_average = ms(8.9);
  /// Full-stroke seek.
  Duration seek_full_stroke = ms(21.0);
  /// Fixed per-op controller/command overhead.
  Duration controller_overhead = us(100);

  bool operator==(const HddTiming&) const = default;
};

class HddModel {
 public:
  HddModel();
  HddModel(const HddGeometry& geometry, const HddTiming& timing);

  std::uint64_t total_blocks() const { return geometry_.total_blocks; }
  std::uint64_t num_cylinders() const { return num_cylinders_; }
  Duration rotation_period() const { return rotation_period_; }

  /// Cylinder holding a disk-local block address.
  std::uint64_t cylinder_of(std::uint64_t block) const;

  /// Blocks per track in the zone of the given cylinder (linear
  /// interpolation between the outer and inner zone densities).
  std::uint32_t blocks_per_track(std::uint64_t cylinder) const;

  /// Seek time between two cylinders (0 when equal; a + b*sqrt(distance)
  /// curve calibrated to hit the track-to-track / average / full-stroke
  /// points of the timing spec).
  Duration seek_time(std::uint64_t from_cyl, std::uint64_t to_cyl) const;

  /// Rotational delay until `target_angle` passes under the head, given the
  /// head angle implied by the absolute time `at`.
  Duration rotational_delay(double target_angle, SimTime at) const;

  /// Full service-time decomposition of one op.
  struct Service {
    Duration seek;
    Duration rotation;
    Duration transfer;
    Duration overhead;
    Duration total() const { return seek + rotation + transfer + overhead; }
  };

  /// Computes the service components for an op at `block`..`block+blocks`
  /// when the head currently sits at `head_cylinder` and dispatch happens at
  /// absolute time `at`. `cylinder` is cylinder_of(block), which the disk
  /// computes once when the op arrives. `sequential_hint` marks an op that
  /// continues the immediately preceding transfer (no seek, no rotation).
  /// The transfer is track-rate limited: blocks / blocks_per_track(cylinder)
  /// revolutions (track switches inside a run keep the rotational
  /// continuation). Otherwise seek = seek_time(head_cylinder, cylinder) and
  /// rotation = rotational_delay(angle of block on its track, at + seek).
  Service service(std::uint64_t head_cylinder, std::uint64_t cylinder,
                  std::uint64_t block, std::uint64_t blocks, SimTime at,
                  bool sequential_hint) const;

  const HddGeometry& geometry() const { return geometry_; }
  const HddTiming& timing() const { return timing_; }

 private:
  /// service()'s angle and transfer terms, given the block's track density:
  /// the block's angular position on its track in [0, 1), and the media
  /// time of `blocks` blocks.
  static double angle_in_track(std::uint64_t block, std::uint32_t bpt);
  Duration transfer_at_density(std::uint32_t bpt, std::uint64_t blocks) const;

  HddGeometry geometry_;
  HddTiming timing_;
  std::uint64_t num_cylinders_;
  Duration rotation_period_;
  double seek_a_;  // constant term (ns)
  double seek_b_;  // sqrt coefficient (ns per sqrt(cylinder))
  // Precomputed cumulative blocks at each "zone step" would be overkill;
  // we use an average density to map block->cylinder analytically and the
  // per-cylinder density only for transfer/angle computation.
  double avg_blocks_per_cylinder_;
};

}  // namespace pod
