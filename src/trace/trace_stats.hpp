// Trace analysis: produces the statistics behind Table II, Figure 1 and
// Figure 2 of the paper, from one pass over a trace (scan_trace).
#pragma once

#include <cstdint>
#include <vector>

#include "common/histogram.hpp"
#include "trace/request.hpp"

namespace pod {

/// Table II: basic workload characteristics.
struct TraceCharacteristics {
  std::uint64_t total_requests = 0;
  std::uint64_t write_requests = 0;
  std::uint64_t read_requests = 0;
  double write_ratio = 0.0;
  double avg_request_kb = 0.0;
  double avg_write_kb = 0.0;
  double avg_read_kb = 0.0;
  std::uint64_t footprint_blocks = 0;  // distinct LBAs touched
};

/// Figure 1: per-size-bucket counts of write requests, total vs redundant.
/// A write request is counted redundant when every chunk's content was seen
/// by an earlier write in the trace (I/O redundancy on the write path).
struct RedundancyBySize {
  SizeHistogram total;
  SizeHistogram fully_redundant;
  SizeHistogram partially_redundant;  // >=1 but not all chunks redundant
};

/// Figure 2: decomposition of redundant write *data* (in blocks).
struct RedundancyBreakdown {
  std::uint64_t write_blocks = 0;
  /// Block rewritten to the same LBA with identical content (temporal
  /// locality on the I/O path; invisible to capacity-oriented dedup).
  std::uint64_t same_lba_redundant_blocks = 0;
  /// Block whose content exists (or existed) at a different LBA (classic
  /// capacity redundancy).
  std::uint64_t diff_lba_redundant_blocks = 0;

  double io_redundancy_pct() const {
    return write_blocks == 0
               ? 0.0
               : 100.0 *
                     static_cast<double>(same_lba_redundant_blocks +
                                         diff_lba_redundant_blocks) /
                     static_cast<double>(write_blocks);
  }
  double capacity_redundancy_pct() const {
    return write_blocks == 0 ? 0.0
                             : 100.0 * static_cast<double>(diff_lba_redundant_blocks) /
                                   static_cast<double>(write_blocks);
  }
};

/// Analysis window: whole trace or the measured ("day 15") suffix only.
enum class StatsWindow { kAll, kMeasuredOnly };

/// Table II, Figure 1 and Figure 2 of one trace in one window.
struct TraceScan {
  TraceCharacteristics characteristics;
  RedundancyBySize by_size;
  RedundancyBreakdown breakdown;
};

/// Computes all three in one pass over the trace. Window kMeasuredOnly
/// primes the content state (what was written, and where) with the warm-up
/// prefix's writes, mirroring the paper, which analyses day 15 after 14
/// days of history; Table II counts the window's requests only, warm-up
/// excluded. "Seen before" means two things: Figure 1 counts a chunk
/// redundant when its content was written by an earlier *request*, Figure 2
/// when it was written by any earlier *block*, the same request's included.
/// The per-LBA state is dense, so the scan covers the block range the
/// simulator's 32-bit block addresses do: it throws std::invalid_argument,
/// naming the LBA, when the trace addresses a block at or past
/// kPackedPbaLimit (2^32 - 2), and when it holds more requests than that
/// (each fingerprint records its first writer's 32-bit request index).
TraceScan scan_trace(const Trace& trace,
                     StatsWindow window = StatsWindow::kMeasuredOnly);

}  // namespace pod
