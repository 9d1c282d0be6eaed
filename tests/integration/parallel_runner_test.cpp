// ISSUE acceptance: replaying the same specs serially and via
// ParallelRunner with 4 jobs must produce identical per-config metrics —
// parallelism changes wall-clock only, never results.
#include "replay/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "synth/generator.hpp"

namespace pod {
namespace {

Trace sized_trace(std::uint64_t requests) {
  WorkloadProfile p = tiny_test_profile();
  p.warmup_requests = requests;
  p.measured_requests = requests;
  return TraceGenerator(p).generate();
}

Trace small_trace() { return sized_trace(2000); }

/// Swaps two measured arrivals so run_replay rejects the trace.
void make_out_of_order(Trace& t) {
  std::swap(t.requests[t.warmup_count].arrival,
            t.requests[t.warmup_count + 1].arrival);
  t.requests[t.warmup_count].arrival += 1;
}

RunSpec small_spec(EngineKind kind) {
  RunSpec spec;
  spec.engine = kind;
  spec.engine_cfg.logical_blocks = tiny_test_profile().volume_blocks;
  spec.engine_cfg.memory_bytes = 2 * kMiB;
  return spec;
}

void expect_identical(const ReplayResult& a, const ReplayResult& b) {
  EXPECT_EQ(a.engine_name, b.engine_name);
  EXPECT_EQ(a.all.count(), b.all.count());
  EXPECT_EQ(a.all.stats().sum(), b.all.stats().sum());
  EXPECT_EQ(a.reads.stats().sum(), b.reads.stats().sum());
  EXPECT_EQ(a.writes.stats().sum(), b.writes.stats().sum());
  EXPECT_EQ(a.all.percentile_ns(0.99), b.all.percentile_ns(0.99));
  EXPECT_EQ(a.measured.writes_eliminated, b.measured.writes_eliminated);
  EXPECT_EQ(a.physical_blocks_used, b.physical_blocks_used);
  EXPECT_EQ(a.disk_reads, b.disk_reads);
  EXPECT_EQ(a.disk_writes, b.disk_writes);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(ParallelRunner, MatchesSerialByteForByte) {
  const Trace trace = small_trace();
  const std::vector<EngineKind> kinds = {
      EngineKind::kNative, EngineKind::kFullDedupe, EngineKind::kIDedup,
      EngineKind::kSelectDedupe};

  std::vector<ParallelRunner::RunItem> items;
  std::vector<ReplayResult> serial;
  for (EngineKind kind : kinds) {
    items.push_back({small_spec(kind), &trace, {}});
    serial.push_back(run_replay(small_spec(kind), trace));
  }

  const ParallelRunner runner(4);
  const std::vector<ReplayResult> parallel = runner.run(items);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].engine_name);
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(ParallelRunner, SingleJobRunsInline) {
  const Trace trace = small_trace();
  std::vector<ParallelRunner::RunItem> items;
  items.push_back({small_spec(EngineKind::kNative), &trace, {}});

  const ParallelRunner runner(1);
  const std::vector<ReplayResult> out = runner.run(items);
  ASSERT_EQ(out.size(), 1u);
  expect_identical(out[0], run_replay(small_spec(EngineKind::kNative), trace));
}

TEST(ParallelRunner, ZeroJobsDegradesToSerial) {
  // A caller forwarding an unvalidated POD_JOBS=0 must get serial execution,
  // not a deadlock on a pool with no workers.
  const Trace trace = small_trace();
  std::vector<ParallelRunner::RunItem> items;
  items.push_back({small_spec(EngineKind::kNative), &trace, {}});
  items.push_back({small_spec(EngineKind::kSelectDedupe), &trace, {}});

  const std::vector<ReplayResult> out = ParallelRunner(0).run(items);
  ASSERT_EQ(out.size(), 2u);
  expect_identical(out[0], run_replay(small_spec(EngineKind::kNative), trace));
  expect_identical(out[1],
                   run_replay(small_spec(EngineKind::kSelectDedupe), trace));
}

TEST(ParallelRunner, EmptyItemListReturnsEmpty) {
  const std::vector<ReplayResult> out =
      ParallelRunner(4).run(std::vector<ParallelRunner::RunItem>{});
  EXPECT_TRUE(out.empty());
}

TEST(ParallelRunner, ResultsStayInInputOrder) {
  const Trace trace = small_trace();
  // Duplicate specs in a known order; engine_name must match slot by slot.
  const std::vector<EngineKind> kinds = {
      EngineKind::kFullDedupe, EngineKind::kNative, EngineKind::kFullDedupe,
      EngineKind::kNative,     EngineKind::kIDedup, EngineKind::kNative};
  std::vector<ParallelRunner::RunItem> items;
  for (EngineKind kind : kinds) items.push_back({small_spec(kind), &trace, {}});

  const std::vector<ReplayResult> out = ParallelRunner(3).run(items);
  ASSERT_EQ(out.size(), kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i)
    EXPECT_EQ(out[i].engine_name, to_string(kinds[i]));
}

TEST(ParallelRunner, LongestFirstStartKeepsInputOrder) {
  // Items start longest trace first; results still land in input order and
  // match a serial run_replay item for item, at every job count.
  const Trace small = sized_trace(500);
  const Trace medium = sized_trace(1500);
  const Trace large = sized_trace(3000);
  ASSERT_LT(small.requests.size(), medium.requests.size());
  ASSERT_LT(medium.requests.size(), large.requests.size());
  const std::vector<std::pair<EngineKind, const Trace*>> plan = {
      {EngineKind::kNative, &small},       {EngineKind::kSelectDedupe, &large},
      {EngineKind::kIDedup, &medium},      {EngineKind::kNative, &large},
      {EngineKind::kFullDedupe, &small},   {EngineKind::kPod, &medium}};
  std::vector<ParallelRunner::RunItem> items;
  std::vector<ReplayResult> serial;
  for (const auto& [kind, trace] : plan) {
    items.push_back({small_spec(kind), trace, ""});
    serial.push_back(run_replay(small_spec(kind), *trace));
  }
  for (const std::size_t jobs : {1u, 2u, 4u}) {
    SCOPED_TRACE(jobs);
    const std::vector<ReplayResult> out = ParallelRunner(jobs).run(items);
    ASSERT_EQ(out.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE(i);
      expect_identical(serial[i], out[i]);
    }
  }
}

TEST(ParallelRunner, FirstErrorInInputOrderWinsUnderLongestFirst) {
  // The larger failing run starts first, but the error rethrown is the
  // first failing item in input order.
  Trace short_bad = sized_trace(500);
  Trace long_bad = sized_trace(3000);
  make_out_of_order(short_bad);
  make_out_of_order(long_bad);
  std::vector<ParallelRunner::RunItem> items;
  items.push_back({small_spec(EngineKind::kNative), &short_bad, "short-bad"});
  items.push_back({small_spec(EngineKind::kNative), &long_bad, "long-bad"});
  for (const std::size_t jobs : {1u, 2u}) {
    try {
      ParallelRunner(jobs).run(items);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("short-bad"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ParallelRunner, NullTraceRejectedUpFront) {
  std::vector<ParallelRunner::RunItem> items;
  items.push_back({small_spec(EngineKind::kNative), nullptr, "null-run"});
  try {
    ParallelRunner(2).run(items);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("null-run"), std::string::npos);
  }
}

TEST(ParallelRunner, WorkerExceptionCarriesLabelAndSeed) {
  // A non-time-ordered trace makes run_replay throw inside the worker; the
  // rethrown error must identify which run failed.
  Trace bad = small_trace();
  ASSERT_GT(bad.requests.size(), bad.warmup_count + 2);
  std::swap(bad.requests[bad.warmup_count].arrival,
            bad.requests[bad.warmup_count + 1].arrival);
  bad.requests[bad.warmup_count].arrival += 1;  // strictly out of order

  const Trace good = small_trace();
  RunSpec failing_spec = small_spec(EngineKind::kNative);
  failing_spec.array_cfg.fault.seed = 1234;
  std::vector<ParallelRunner::RunItem> items;
  items.push_back({small_spec(EngineKind::kNative), &good, "good-run"});
  items.push_back({failing_spec, &bad, "bad-run"});

  try {
    ParallelRunner(2).run(items);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad-run"), std::string::npos) << what;
    EXPECT_NE(what.find("1234"), std::string::npos) << what;
    EXPECT_NE(what.find("not time-ordered"), std::string::npos) << what;
  }
}

TEST(ParallelRunner, DefaultLabelNamesEngineAndTrace) {
  Trace bad = small_trace();
  ASSERT_GT(bad.requests.size(), bad.warmup_count + 2);
  std::swap(bad.requests[bad.warmup_count].arrival,
            bad.requests[bad.warmup_count + 1].arrival);
  bad.requests[bad.warmup_count].arrival += 1;

  std::vector<ParallelRunner::RunItem> items;
  items.push_back({small_spec(EngineKind::kIDedup), &bad, {}});  // no label

  try {
    ParallelRunner(1).run(items);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("idedup"), std::string::npos) << what;
    EXPECT_NE(what.find(bad.name), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace pod
