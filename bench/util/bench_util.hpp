// Shared machinery for the experiment benches: the paper run spec and the
// result printers. The figures themselves are data (bench/paper/);
// bench/util/run_list.hpp runs them, and bench/util/knobs.hpp reads the
// POD_* environment knobs README.md lists.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "replay/replayer.hpp"
#include "synth/profile.hpp"

namespace pod::bench {

/// Members of the paper's RAID5 array (§IV-B).
inline constexpr std::size_t kPaperDisks = 4;

/// The paper workloads at `scale`: all three, or only the one named `trace`
/// when it is not empty (a name knobs.hpp has already checked).
std::vector<WorkloadProfile> selected_profiles(double scale,
                                               const std::string& trace);

/// Builds the standard 4-disk RAID5 / 64 KB stripe run spec of §IV-B with
/// the paper's per-trace memory budget.
RunSpec paper_spec(EngineKind engine, const WorkloadProfile& profile,
                   double scale);

/// Prints a figure's title banner.
void print_header(const std::string& title, const std::string& what);

}  // namespace pod::bench
