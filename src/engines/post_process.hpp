// Post-processing (offline) deduplication — the fourth comparator of the
// paper's Table I (El-Shimi et al., USENIX ATC'12).
//
// Writes pass through untouched (Native-like foreground path, no
// fingerprinting on the critical path). A background scrubber periodically
// scans recently written blocks, fingerprints them out-of-band, and
// rewrites duplicate logical blocks as map-table redirections, releasing
// the physical copies. Capacity is reclaimed *after* the fact; the I/O
// path never benefits — which is exactly the contrast with POD that
// Table I draws (capacity saving: yes; performance enhancement: no;
// write elimination: no).
//
// The scan is charged to the volume as sequential reads of the scanned
// blocks (plus the eventual metadata writes), so heavy scrubbing visibly
// competes with foreground traffic.
#pragma once

#include <deque>

#include "engines/engine.hpp"

namespace pod {

struct PostProcessOptions {
  /// Simulated period between scrub passes.
  Duration scan_interval = sec(5);
  /// Blocks fingerprinted per pass (bounds the background load).
  std::uint64_t blocks_per_pass = 4096;
  /// Charge one sequential read per this many scanned blocks (the scrubber
  /// reads in large sequential sweeps).
  std::uint64_t read_batch_blocks = 256;

  bool operator==(const PostProcessOptions&) const = default;
};

class PostProcessEngine : public DedupEngine {
 public:
  PostProcessEngine(Simulator& sim, Volume& volume, const EngineConfig& cfg,
                    const PostProcessOptions& opts = {});

  const char* name() const override { return "post-process"; }

  void begin_measured() override;

  /// Runs one scrub pass immediately (also used by tests).
  void scrub_pass();

  std::uint64_t blocks_scanned() const { return blocks_scanned_; }
  std::uint64_t blocks_reclaimed() const { return blocks_reclaimed_; }
  std::uint64_t scrub_passes() const { return passes_; }

 protected:
  IoPlan process_write(const IoRequest& req, SimTime now) override;

 private:
  void schedule_next_pass();

  PostProcessOptions opts_;
  /// FIFO of written (lba) pending background fingerprinting.
  std::deque<Lba> pending_;
  /// Offline fingerprint index: content -> canonical PBA. Unbounded in
  /// memory here; a real system keeps it on disk, but the scrubber is off
  /// the critical path so its index cost does not affect response times.
  std::unordered_map<Fingerprint, Pba, FingerprintHash> offline_index_;
  bool measured_ = false;
  SimTime next_pass_due_ = 0;
  std::uint64_t blocks_scanned_ = 0;
  std::uint64_t blocks_reclaimed_ = 0;
  std::uint64_t passes_ = 0;
};

}  // namespace pod
