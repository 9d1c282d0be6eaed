// The bench run list: equal (spec, trace) pairs share one replay across
// figures, a difference in any nested field keeps runs apart, and every
// figure reads its results back in the order it listed them.
#include "util/run_list.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/bench_util.hpp"

namespace pod::bench {
namespace {

WorkloadProfile other_tiny_profile() {
  WorkloadProfile p = tiny_test_profile();
  p.seed = 8;
  return p;
}

Run tiny_run(EngineKind kind) {
  const WorkloadProfile p = tiny_test_profile();
  return {p, paper_spec(kind, p, 1.0)};
}

/// What a render was handed for one run. The results live only while
/// run_figures renders, so the record keeps the address as a number.
struct Seen {
  std::uintptr_t address;
  std::string engine;
  std::uint64_t write_requests;
};

/// A figure over `runs` whose render records the results it is handed.
Figure recording_figure(std::vector<bench::Run> runs, std::vector<Seen>& seen) {
  return {{}, std::move(runs), [&seen](const FigureData& data) {
            for (const ReplayResult* r : data.results)
              seen.push_back({reinterpret_cast<std::uintptr_t>(r),
                              r->engine_name, r->measured.write_requests});
          }};
}

TEST(RunList, EqualRunAcrossFiguresRunsOnceWithOneResult) {
  std::vector<Seen> a, b;
  run_figures({recording_figure({tiny_run(EngineKind::kSelectDedupe)}, a),
               recording_figure({tiny_run(EngineKind::kSelectDedupe)}, b)},
              Knobs{});
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].address, b[0].address);
  EXPECT_EQ(a[0].engine, "select-dedupe");
  EXPECT_GT(a[0].write_requests, 0u);
}

TEST(RunList, OneNestedFieldApartStaysDistinct) {
  const bench::Run base = tiny_run(EngineKind::kPod);
  std::vector<bench::Run> runs(8, base);
  runs[1].spec.engine_cfg.index_fraction = 0.3;
  runs[2].spec.raid = RaidLevel::kRaid0;
  runs[3].spec.array_cfg.scheduler = SchedulerKind::kSstf;
  runs[4].spec.array_cfg.fault.fail_disk = 2;
  runs[5].spec.pod.icache.interval = sec(2);
  runs[6].spec.post_process.scan_interval = sec(1);
  runs[7].profile = other_tiny_profile();
  runs.push_back(base);

  std::vector<Seen> seen;
  run_figures({recording_figure(runs, seen)}, Knobs{});
  ASSERT_EQ(seen.size(), 9u);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < i; ++j)
      EXPECT_NE(seen[i].address, seen[j].address) << i << " vs " << j;
  EXPECT_EQ(seen[8].address, seen[0].address);
}

TEST(RunList, EachFigureGetsResultsInItsOwnOrder) {
  std::vector<Seen> a, b;
  run_figures(
      {recording_figure({tiny_run(EngineKind::kNative),
                         tiny_run(EngineKind::kSelectDedupe)},
                        a),
       recording_figure({tiny_run(EngineKind::kSelectDedupe),
                         tiny_run(EngineKind::kPod),
                         tiny_run(EngineKind::kNative)},
                        b)},
      Knobs{});
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(a[0].engine, "native");
  EXPECT_EQ(a[1].engine, "select-dedupe");
  EXPECT_EQ(b[0].engine, "select-dedupe");
  EXPECT_EQ(b[1].engine, "pod");
  EXPECT_EQ(b[2].engine, "native");
  EXPECT_EQ(b[0].address, a[1].address);
  EXPECT_EQ(b[2].address, a[0].address);
}

}  // namespace
}  // namespace pod::bench
