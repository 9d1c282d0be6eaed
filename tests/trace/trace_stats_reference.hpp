// Reference trace statistics: the test oracle scan_trace
// (src/trace/trace_stats.hpp) is checked against.
//
// These are the three passes the trace figures ran before they shared one
// scan: Table II's characterize, Figure 1's redundancy_by_size and Figure
// 2's redundancy_breakdown, each walking the whole trace again through
// node-based std::unordered_* containers. They share no code with the scan
// they check.
#pragma once

#include <unordered_map>
#include <unordered_set>

#include "trace/trace_stats.hpp"

namespace pod::reference {

inline TraceCharacteristics characterize(const Trace& trace, StatsWindow window) {
  TraceCharacteristics c;
  std::unordered_set<Lba> footprint;
  double total_kb = 0, write_kb = 0, read_kb = 0;
  const std::size_t begin =
      window == StatsWindow::kMeasuredOnly ? trace.warmup_count : 0;
  for (std::size_t i = begin; i < trace.requests.size(); ++i) {
    const IoRequest& r = trace.requests[i];
    ++c.total_requests;
    const double kb = static_cast<double>(r.bytes()) / kKiB;
    total_kb += kb;
    if (r.is_write()) {
      ++c.write_requests;
      write_kb += kb;
    } else {
      ++c.read_requests;
      read_kb += kb;
    }
    for (std::uint32_t b = 0; b < r.nblocks; ++b) footprint.insert(r.lba + b);
  }
  c.footprint_blocks = footprint.size();
  if (c.total_requests > 0) {
    c.write_ratio = static_cast<double>(c.write_requests) /
                    static_cast<double>(c.total_requests);
    c.avg_request_kb = total_kb / static_cast<double>(c.total_requests);
  }
  if (c.write_requests > 0)
    c.avg_write_kb = write_kb / static_cast<double>(c.write_requests);
  if (c.read_requests > 0)
    c.avg_read_kb = read_kb / static_cast<double>(c.read_requests);
  return c;
}

inline RedundancyBySize redundancy_by_size(const Trace& trace, StatsWindow window) {
  RedundancyBySize out;
  std::unordered_set<Fingerprint, FingerprintHash> seen;

  auto observe = [&seen](const IoRequest& r) {
    for (const Fingerprint& fp : r.chunks) seen.insert(fp);
  };

  std::size_t begin = 0;
  if (window == StatsWindow::kMeasuredOnly) {
    for (std::size_t i = 0; i < trace.warmup_count; ++i) {
      if (trace.requests[i].is_write()) observe(trace.requests[i]);
    }
    begin = trace.warmup_count;
  }

  for (std::size_t i = begin; i < trace.requests.size(); ++i) {
    const IoRequest& r = trace.requests[i];
    if (!r.is_write()) continue;
    std::size_t redundant = 0;
    for (const Fingerprint& fp : r.chunks)
      if (seen.count(fp)) ++redundant;
    out.total.add(r.bytes());
    if (redundant == r.nblocks) out.fully_redundant.add(r.bytes());
    else if (redundant > 0) out.partially_redundant.add(r.bytes());
    observe(r);
  }
  return out;
}

inline RedundancyBreakdown redundancy_breakdown(const Trace& trace, StatsWindow window) {
  RedundancyBreakdown out;
  // Content seen anywhere on the write path so far.
  std::unordered_set<Fingerprint, FingerprintHash> seen;
  // Current content of each LBA.
  std::unordered_map<Lba, Fingerprint> lba_content;

  auto observe = [&](const IoRequest& r) {
    for (std::uint32_t b = 0; b < r.nblocks; ++b) {
      seen.insert(r.chunks[b]);
      lba_content[r.lba + b] = r.chunks[b];
    }
  };

  std::size_t begin = 0;
  if (window == StatsWindow::kMeasuredOnly) {
    for (std::size_t i = 0; i < trace.warmup_count; ++i)
      if (trace.requests[i].is_write()) observe(trace.requests[i]);
    begin = trace.warmup_count;
  }

  for (std::size_t i = begin; i < trace.requests.size(); ++i) {
    const IoRequest& r = trace.requests[i];
    if (!r.is_write()) continue;
    for (std::uint32_t b = 0; b < r.nblocks; ++b) {
      ++out.write_blocks;
      const Fingerprint& fp = r.chunks[b];
      const Lba lba = r.lba + b;
      const auto cur = lba_content.find(lba);
      if (cur != lba_content.end() && cur->second == fp) {
        // Rewriting the same content to the same location: pure I/O
        // redundancy, contributes nothing to capacity savings.
        ++out.same_lba_redundant_blocks;
      } else if (seen.count(fp)) {
        ++out.diff_lba_redundant_blocks;
      }
      seen.insert(fp);
      lba_content[lba] = fp;
    }
  }
  return out;
}

}  // namespace pod::reference
