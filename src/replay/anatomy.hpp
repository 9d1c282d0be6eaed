// Latency anatomy: per-request causal attribution of simulated time.
//
// Every nanosecond of a request's response time is charged to exactly one
// component at the site where the simulator charges the time itself:
//   * queue_wait        disk scheduler queueing (enqueue -> dispatch)
//   * seek / rotation   HddModel mechanical positioning of the critical op
//   * transfer          media transfer + controller overhead
//   * dedup_meta        engine CPU (hashing/classify) plus whole volume ops
//                       addressed to the metadata regions (on-disk index,
//                       iCache swap)
//   * raid_reconstruct  volume ops that RAID5 served degraded (parity
//                       reconstruction reads, reconstruct-writes)
//   * fault_retry       FaultInjector retry ladders and dead-device stalls
//
// The decomposition follows the critical path: a request is its CPU delay
// plus the spans of its (at most two) I/O stages; a stage's span equals the
// latency of its last-completing ("critical") volume op, because every op
// of a stage is issued at the same instant; a volume op's span is the sum
// of its phase spans for the same reason one level down. All quantities are
// integer nanoseconds, so the components sum EXACTLY to the recorded
// request latency — POD_DCHECKed on every completion and surfaced through
// `sum_mismatches` (always 0) for release builds where DCHECK compiles out.
//
// The collector follows the telemetry contract (PR 4): attached to the
// Simulator as a plain pointer, every charge site costs one null-pointer
// branch when off, it schedules no simulator events, and replay output is
// byte-identical with attribution on or off.
//
// Hand-off registers: disk and volume completions publish the breakdown of
// the op that *just completed* into a single-slot register immediately
// before invoking the op's callback; the consumer one level up reads the
// register synchronously inside that callback (only the critical op's
// consumer reads — the others return early on their outstanding counter).
// No callback signature changes, no per-op allocation.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace pod {

/// Latency components, in reporting order.
enum class LatComp : std::uint8_t {
  kQueueWait = 0,
  kSeek,
  kRotation,
  kTransfer,
  kDedupMeta,
  kRaidReconstruct,
  kFaultRetry,
};

inline constexpr std::size_t kNumLatComps = 7;

const char* to_string(LatComp c);

/// One request's (or op's) component vector. Integer nanoseconds; the sum
/// over components is exact.
struct LatBreakdown {
  std::array<Duration, kNumLatComps> comp{};

  Duration& operator[](LatComp c) { return comp[static_cast<std::size_t>(c)]; }
  Duration operator[](LatComp c) const {
    return comp[static_cast<std::size_t>(c)];
  }

  Duration total() const {
    Duration t = 0;
    for (const Duration d : comp) t += d;
    return t;
  }

  void add(const LatBreakdown& o) {
    for (std::size_t i = 0; i < kNumLatComps; ++i) comp[i] += o.comp[i];
  }

  /// Collapses the whole vector into one component (used to reclassify a
  /// volume op wholesale: metadata-region ops -> dedup_meta, degraded ops
  /// -> raid_reconstruct).
  void fold_into(LatComp c) {
    const Duration t = total();
    comp.fill(0);
    comp[static_cast<std::size_t>(c)] = t;
  }

  void clear() { comp.fill(0); }
};

/// End-of-run attribution summary, moved into ReplayResult.
struct AnatomyResult {
  bool enabled = false;
  std::uint64_t requests = 0;
  /// Completions whose component sum differed from the recorded latency.
  /// The sum invariant says this is always 0; tests assert it per engine
  /// (POD_DCHECK catches it at the site in debug builds).
  std::uint64_t sum_mismatches = 0;
  /// Total simulated time charged to each component across all requests.
  std::array<Duration, kNumLatComps> total{};
  /// Per-component latency distributions (one sample per request).
  std::array<LatencyRecorder, kNumLatComps> comp;

  /// Per-stream (tenant) accounting, keyed by IoRequest::stream.
  struct StreamStats {
    std::uint32_t stream = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t read_blocks = 0;
    std::uint64_t write_blocks = 0;
    /// Chunks this stream's writes deduplicated (engine-stat delta).
    std::uint64_t dedup_hits = 0;
    std::uint64_t failed_requests = 0;
    LatencyRecorder latency;
  };
  /// Sorted by stream id.
  std::vector<StreamStats> streams;

  /// One retained slowest request with its full decomposition.
  struct TailEntry {
    std::uint64_t req_id = 0;
    std::uint32_t stream = 0;
    OpType type = OpType::kRead;
    std::uint32_t nblocks = 0;
    SimTime submit = 0;
    Duration latency = 0;
    LatBreakdown breakdown;
  };
  /// The top-K slowest requests, slowest first (K = tail_k).
  std::vector<TailEntry> tail;
  std::size_t tail_k = 0;

  Duration total_all() const {
    Duration t = 0;
    for (const Duration d : total) t += d;
    return t;
  }
};

/// The per-run collector. Owned by run_replay (or a test), attached to the
/// Simulator; never shared across runs (ParallelRunner builds one per run).
class LatencyAnatomy {
 public:
  struct Config {
    /// Slowest-request ring capacity (0 = keep no tail entries).
    std::size_t tail_k = 64;

    bool operator==(const Config&) const = default;
  };

  explicit LatencyAnatomy(const Config& cfg);

  // ---- hand-off registers (see file comment) --------------------------
  void publish_disk_op(const LatBreakdown& b) { disk_reg_ = b; }
  const LatBreakdown& disk_op() const { return disk_reg_; }
  void publish_volume_op(const LatBreakdown& b) { volume_reg_ = b; }
  const LatBreakdown& volume_op() const { return volume_reg_; }

  /// Records one completed request. `latency` is the engine-observed
  /// response time (now - submit); `b` must sum to it exactly.
  void record_request(std::uint64_t req_id, std::uint32_t stream, OpType type,
                      std::uint32_t nblocks, SimTime submit, Duration latency,
                      std::uint64_t dedup_hits, bool failed,
                      const LatBreakdown& b);

  std::uint64_t requests() const { return requests_; }
  std::uint64_t sum_mismatches() const { return sum_mismatches_; }

  /// Finalizes and moves the aggregates out (sorts streams by id and the
  /// tail by descending latency). The collector is spent afterwards.
  AnatomyResult take_result();

 private:
  AnatomyResult::StreamStats& stream_slot(std::uint32_t stream);

  Config cfg_;
  LatBreakdown disk_reg_;
  LatBreakdown volume_reg_;

  std::uint64_t requests_ = 0;
  std::uint64_t sum_mismatches_ = 0;
  std::array<Duration, kNumLatComps> total_{};
  std::array<LatencyRecorder, kNumLatComps> comp_;

  /// Stream table: the common case is a handful of streams, so a sorted
  /// vector with a one-entry cache beats a hash map.
  std::vector<AnatomyResult::StreamStats> streams_;
  std::size_t last_stream_slot_ = ~std::size_t{0};

  /// Min-heap on latency (heap[0] = smallest retained), capacity tail_k.
  std::vector<AnatomyResult::TailEntry> tail_;
};

}  // namespace pod
