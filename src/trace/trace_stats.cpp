#include "trace/trace_stats.hpp"

#include <stdexcept>
#include <string>

#include "cache/lru_table.hpp"
#include "common/mapped.hpp"
#include "common/packed_pba.hpp"

namespace pod {

namespace {

/// The blocks of per-LBA state the scan keeps: LBAs [0, span). Throws
/// when a request reaches past the range 32-bit indexes cover.
std::uint64_t lba_span(const Trace& trace) {
  std::uint64_t span = 0;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const IoRequest& r = trace.requests[i];
    if (r.lba > kPackedPbaLimit || r.nblocks > kPackedPbaLimit - r.lba)
      throw std::invalid_argument(
          "scan_trace: request " + std::to_string(i) + " addresses LBA " +
          std::to_string(r.lba) + " (+" + std::to_string(r.nblocks) +
          " blocks), past the " + std::to_string(kPackedPbaLimit) +
          "-block range of the scan's per-LBA state");
    if (r.end_lba() > span) span = r.end_lba();
  }
  return span;
}

}  // namespace

TraceScan scan_trace(const Trace& trace, StatsWindow window) {
  if (trace.requests.size() > kPackedPbaLimit)
    throw std::invalid_argument(
        "scan_trace: " + std::to_string(trace.requests.size()) +
        " requests exceed the " + std::to_string(kPackedPbaLimit) +
        "-request range of 32-bit request indexes");
  const std::uint64_t span = lba_span(trace);
  const std::size_t begin =
      window == StatsWindow::kMeasuredOnly ? trace.warmup_count : 0;

  // Every content written so far, as an on-disk key whose PBA field holds
  // the index of the request that first wrote it. Its slot number is the
  // content's dense id.
  LruTable<Fingerprint, FingerprintHash> seen(0);
  // Current content of each LBA: its id + 1, 0 while never written.
  // Both per-LBA arrays are sized by the LBA span but touched only where
  // the trace goes, so they take small pages: a sparse trace then zeroes
  // 4 KB per touched region, not 2 MB.
  ZeroedArray<std::uint32_t> lba_content(span, Pages::kSmall);
  // Table II's footprint: one bit per LBA the window touches.
  ZeroedArray<std::uint64_t> touched((span + 63) / 64, Pages::kSmall);

  TraceScan out;
  TraceCharacteristics& c = out.characteristics;
  double total_kb = 0, write_kb = 0, read_kb = 0;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const IoRequest& r = trace.requests[i];
    const bool measured = i >= begin;
    if (measured) {
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
      for (Lba lba = r.lba; lba < r.end_lba(); ++lba) {
        const std::uint64_t bit = std::uint64_t{1} << (lba % 64);
        std::uint64_t& word = touched[lba / 64];
        c.footprint_blocks += (word & bit) == 0;
        word |= bit;
      }
    }
    if (!r.is_write()) continue;

    std::uint32_t redundant = 0;  // chunks written by an earlier request
    for (std::uint32_t b = 0; b < r.nblocks; ++b) {
      const Fingerprint& fp = r.chunks[b];
      const auto [slot, found] =
          seen.find_or_put_on_disk(seen.hash_tag(fp), fp, i);
      std::uint32_t& current = lba_content[r.lba + b];
      if (measured) {
        redundant += found && seen.entry(slot).pba() < i;
        ++out.breakdown.write_blocks;
        if (current == slot + 1) ++out.breakdown.same_lba_redundant_blocks;
        else if (found) ++out.breakdown.diff_lba_redundant_blocks;
      }
      current = slot + 1;
    }
    if (measured) {
      out.by_size.total.add(r.bytes());
      if (redundant == r.nblocks) out.by_size.fully_redundant.add(r.bytes());
      else if (redundant > 0) out.by_size.partially_redundant.add(r.bytes());
    }
  }

  if (c.total_requests > 0) {
    c.write_ratio = static_cast<double>(c.write_requests) /
                    static_cast<double>(c.total_requests);
    c.avg_request_kb = total_kb / static_cast<double>(c.total_requests);
  }
  if (c.write_requests > 0)
    c.avg_write_kb = write_kb / static_cast<double>(c.write_requests);
  if (c.read_requests > 0)
    c.avg_read_kb = read_kb / static_cast<double>(c.read_requests);
  return out;
}

}  // namespace pod
