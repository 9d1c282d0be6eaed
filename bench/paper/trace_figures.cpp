// Trace characterisation: Figures 1 and 2 and Table II format the scans of
// the synthetic day-15 segments (scan_trace); nothing is replayed.
#include <cstdio>

#include "paper/figures.hpp"

namespace pod::bench {

// Figure 1: distribution of I/O redundancy among requests of different
// sizes on the 15th day of the traces.
//
// For each request-size bucket (4 KB ... >=128 KB) the paper plots the
// total number of write requests and the number of redundant ones. Shape to
// reproduce: small writes (4-8 KB) dominate the request population AND
// carry the highest redundancy.
Figure fig01_redundancy_by_size(const PaperSetup& setup) {
  return {setup.profiles, {}, [setup](const FigureData& data) {
    print_header("Figure 1 — I/O redundancy distribution by request size",
                 "write requests on the measured day, primed with warm-up "
                 "history; scale=" + std::to_string(setup.scale));

    for (std::size_t t = 0; t < setup.profiles.size(); ++t) {
      const RedundancyBySize& r = data.scans[t]->by_size;
      std::printf("\n--- %s ---\n", setup.profiles[t].name.c_str());
      std::printf("%-10s %14s %18s %20s %10s\n", "Size", "Total writes",
                  "Fully redundant", "Partially redundant", "Red. %");
      for (std::size_t b = 0; b < r.total.num_buckets(); ++b) {
        const auto total = r.total.count(b);
        const auto full = r.fully_redundant.count(b);
        const auto part = r.partially_redundant.count(b);
        std::printf("%-10s %14llu %18llu %20llu %9.1f%%\n",
                    r.total.label(b).c_str(),
                    static_cast<unsigned long long>(total),
                    static_cast<unsigned long long>(full),
                    static_cast<unsigned long long>(part),
                    total ? 100.0 * static_cast<double>(full) /
                                static_cast<double>(total)
                          : 0.0);
      }
      const double small_share =
          r.total.total()
              ? 100.0 *
                    static_cast<double>(r.total.count(0) + r.total.count(1)) /
                    static_cast<double>(r.total.total())
              : 0.0;
      const double small_red_share =
          r.fully_redundant.total()
              ? 100.0 *
                    static_cast<double>(r.fully_redundant.count(0) +
                                        r.fully_redundant.count(1)) /
                    static_cast<double>(r.fully_redundant.total())
              : 0.0;
      std::printf("4-8KB writes: %.1f%% of all writes, carrying %.1f%% of "
                  "all fully redundant writes\n", small_share,
                  small_red_share);
    }
    std::printf("\npaper shape: small writes dominate the population and "
                "have the highest redundancy (Fig. 1a-c)\n");
  }};
}

// Figure 2: I/O redundancy vs capacity redundancy.
//
// Write data splits into (a) blocks rewritten to the same location with the
// same content (pure I/O redundancy — invisible to capacity-oriented
// dedup) and (b) blocks whose content already exists at other locations
// (capacity redundancy). I/O redundancy = (a) + (b). The paper reports I/O
// redundancy exceeding capacity redundancy by an average of 21.9 points.
Figure fig02_io_vs_capacity_redundancy(const PaperSetup& setup) {
  return {setup.profiles, {}, [setup](const FigureData& data) {
    print_header("Figure 2 — I/O redundancy vs capacity redundancy",
                 "percentage of write data (blocks); scale=" +
                     std::to_string(setup.scale));

    std::printf("%-10s %18s %22s %22s %10s\n", "Trace", "I/O redundancy",
                "Capacity redundancy", "Same-location part", "Gap (pp)");
    double gap_sum = 0.0;
    for (std::size_t t = 0; t < setup.profiles.size(); ++t) {
      const RedundancyBreakdown& b = data.scans[t]->breakdown;
      const double same_pct =
          b.write_blocks
              ? 100.0 * static_cast<double>(b.same_lba_redundant_blocks) /
                    static_cast<double>(b.write_blocks)
              : 0.0;
      const double gap = b.io_redundancy_pct() - b.capacity_redundancy_pct();
      gap_sum += gap;
      std::printf("%-10s %17.1f%% %21.1f%% %21.1f%% %9.1f\n",
                  setup.profiles[t].name.c_str(), b.io_redundancy_pct(),
                  b.capacity_redundancy_pct(), same_pct, gap);
    }
    std::printf("\naverage gap: %.1f pp  (paper: I/O redundancy is higher by "
                "an average of 21.9 pp)\n",
                gap_sum / static_cast<double>(setup.profiles.size()));
  }};
}

// Table II: characteristics of the three traces (write ratio, I/O count,
// average request size) — measured on the synthetic day-15 segments.
//
// Paper values: web-vm 69.8% / 154,105 / 14.8 KB; homes 80.5% / 64,819 /
// 13.1 KB; mail 78.5% / 328,145 / 40.8 KB.
Figure table2_trace_characteristics(const PaperSetup& setup) {
  return {setup.profiles, {}, [setup](const FigureData& data) {
    print_header("Table II — characteristics of the three traces",
                 "day-15 (measured) segment; scale=" +
                     std::to_string(setup.scale));

    std::printf("%-10s %12s %12s %16s %16s %16s\n", "Trace", "Write ratio",
                "I/Os", "Avg. Req. (KB)", "Avg. Write (KB)",
                "Avg. Read (KB)");
    for (std::size_t t = 0; t < setup.profiles.size(); ++t) {
      const TraceCharacteristics& c = data.scans[t]->characteristics;
      std::printf("%-10s %11.1f%% %12llu %16.1f %16.1f %16.1f\n",
                  setup.profiles[t].name.c_str(), 100.0 * c.write_ratio,
                  static_cast<unsigned long long>(c.total_requests),
                  c.avg_request_kb, c.avg_write_kb, c.avg_read_kb);
    }
    std::printf(
        "\npaper:     web-vm 69.8%% 154,105 14.8KB | homes 80.5%% 64,819 "
        "13.1KB | mail 78.5%% 328,145 40.8KB\n"
        "(I/O counts scale with POD_SCALE; ratios and sizes are "
        "scale-invariant)\n");
  }};
}

}  // namespace pod::bench
