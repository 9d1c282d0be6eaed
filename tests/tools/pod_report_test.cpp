// pod_report golden test: a fixed POD_BENCH_JSON capture must render to
// exactly this markdown (the report is consumed by humans and CI diffs, so
// format drift should be a deliberate, reviewed change).
#include "pod_report/report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace pod::report {
namespace {

constexpr const char* kCapture =
    R"({"trace":"t1","engine":"native","mean_ms":2.0,"anatomy":{"requests":10,)"
    R"("sum_mismatches":0,"tail_k":2,"components":{)"
    R"("queue_wait":{"total_ms":10,"mean_ms":1.0,"p50_ms":1,"p95_ms":1,"p99_ms":1,"max_ms":1},)"
    R"("seek":{"total_ms":5,"mean_ms":0.5,"p50_ms":0.5,"p95_ms":0.5,"p99_ms":0.5,"max_ms":0.5},)"
    R"("rotation":{"total_ms":2.5,"mean_ms":0.25,"p50_ms":0.25,"p95_ms":0.25,"p99_ms":0.25,"max_ms":0.25},)"
    R"("transfer":{"total_ms":2.5,"mean_ms":0.25,"p50_ms":0.25,"p95_ms":0.25,"p99_ms":0.25,"max_ms":0.25}},)"
    R"("streams":[{"stream":0,"reads":5,"writes":5,"read_blocks":5,"write_blocks":5,)"
    R"("dedup_hits":0,"failed_requests":0,"mean_ms":2,"p50_ms":2,"p95_ms":3,"p99_ms":4,"max_ms":4}],)"
    R"("tail":[{"req_id":7,"stream":0,"type":"W","nblocks":8,"submit_ms":1,"latency_ms":4,)"
    R"("components":{"queue_wait":3,"seek":0.5,"rotation":0.25,"transfer":0.25}}]}})"
    "\n";

constexpr const char* kGolden = R"(# POD bench report

## t1

| engine | mean ms | vs native |
|---|---|---|
| native | 2.000 | 100.0% |

Mean milliseconds per request by component (rows sum to the engine's mean response time):

| engine | queue_wait | seek | rotation | transfer | dedup_meta | raid_reconstruct | fault_retry |
|---|---|---|---|---|---|---|---|
| native | 1.000 | 0.500 | 0.250 | 0.250 | - | - | - |

Per-stream accounting — native:

| stream | reads | writes | dedup hits | failed | mean ms | p95 ms | p99 ms |
|---|---|---|---|---|---|---|---|
| 0 | 5 | 5 | 0 | 0 | 2.000 | 3.000 | 4.000 |

Tail anatomy — native (slowest 1 of 1 retained):

| req | op | blocks | stream | latency ms | queue_wait | seek | rotation | transfer | dedup_meta | raid_reconstruct | fault_retry |
|---|---|---|---|---|---|---|---|---|---|---|---|
| 7 | W | 8 | 0 | 4.000 | 3.000 | 0.500 | 0.250 | 0.250 | - | - | - |

)";

TEST(PodReport, GoldenRender) {
  std::stringstream in(kCapture);
  const auto runs = load_jsonl(in);
  ASSERT_EQ(runs.size(), 1u);
  std::stringstream out;
  render(out, runs);
  EXPECT_EQ(out.str(), kGolden);
}

TEST(PodReport, CompareReportsPairedMedianDelta) {
  std::stringstream base_in(
      "{\"trace\":\"t1\",\"engine\":\"native\",\"mean_ms\":2.0}\n"
      "{\"trace\":\"t1\",\"engine\":\"native\",\"mean_ms\":4.0}\n");
  std::stringstream cur_in(
      "{\"trace\":\"t1\",\"engine\":\"native\",\"mean_ms\":1.5}\n"
      "{\"trace\":\"t1\",\"engine\":\"native\",\"mean_ms\":3.0}\n");
  const auto base = load_jsonl(base_in);
  const auto cur = load_jsonl(cur_in);
  std::stringstream out;
  render_compare(out, base, cur);
  // Both pairs improve by exactly 25%: the paired median is -25.0%.
  EXPECT_NE(out.str().find("| t1 | native | 2 | 3.000 | 2.250 | -25.0% |"),
            std::string::npos)
      << out.str();
}

TEST(PodReport, RunsWithoutAnatomyRenderResponseTableOnly) {
  std::stringstream in(
      "{\"trace\":\"t1\",\"engine\":\"native\",\"mean_ms\":2.0}\n"
      "{\"trace\":\"t1\",\"engine\":\"pod\",\"mean_ms\":1.0}\n");
  std::stringstream out;
  render(out, load_jsonl(in));
  const std::string text = out.str();
  EXPECT_NE(text.find("| pod | 1.000 | 50.0% |"), std::string::npos);
  EXPECT_EQ(text.find("component"), std::string::npos);
}

TEST(PodReport, MalformedLineThrowsWithLineNumber) {
  std::stringstream in("{\"trace\":\"t1\",\"engine\":\"native\"}\n{oops\n");
  try {
    load_jsonl(in);
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(PodReport, EmptyCapture) {
  std::stringstream in("\n\n");
  std::stringstream out;
  render(out, load_jsonl(in));
  EXPECT_NE(out.str().find("No runs"), std::string::npos);
}

}  // namespace
}  // namespace pod::report
