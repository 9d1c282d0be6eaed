// The POD_* knob parser, called with (name, value): every knob takes a
// valid value and refuses an empty one, junk, trailing garbage and values
// out of its range, with one message shape, "POD_X='value' is not ...".
#include "util/knobs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/bench_util.hpp"

namespace pod::bench {
namespace {

/// Expects `name='value'` to be refused with a message naming both.
void expect_refused(std::string_view name, std::string_view value) {
  Knobs k;
  try {
    set_knob(k, name, value);
    ADD_FAILURE() << "accepted " << name << "='" << value << "'";
  } catch (const std::invalid_argument& e) {
    const std::string want =
        std::string(name) + "='" + std::string(value) + "' is not ";
    EXPECT_EQ(std::string(e.what()).rfind(want, 0), 0u) << e.what();
  }
}

struct Case {
  std::string_view name;
  std::string_view valid;
  /// What the valid value sets.
  std::function<void(const Knobs&)> check;
  /// Values of the right shape outside the knob's range.
  std::vector<std::string_view> out_of_range;
  /// A path knob takes any non-empty text, junk included.
  bool path = false;
};

const std::vector<Case>& cases() {
  static const std::vector<Case> all = {
      {"POD_SCALE", "0.5", [](const Knobs& k) { EXPECT_EQ(k.scale, 0.5); },
       {"0", "1.5", "-0.25", "nan", "inf"}},
      {"POD_TRACE", "homes",
       [](const Knobs& k) { EXPECT_EQ(k.trace, "homes"); },
       {"bogus", "Homes"}},
      {"POD_JOBS", "1", [](const Knobs& k) { EXPECT_EQ(k.jobs, 1u); },
       {"0", "-2", " 4", "1.5"}},
      {"POD_TRACE_CACHE", "traces",
       [](const Knobs& k) { EXPECT_EQ(k.trace_cache, "traces"); }, {}, true},
      {"POD_BENCH_JSON", "run.jsonl",
       [](const Knobs& k) { EXPECT_EQ(k.bench_json, "run.jsonl"); }, {}, true},
      {"POD_TRACE_EVENTS", "trace.json",
       [](const Knobs& k) {
         EXPECT_EQ(k.telemetry.trace_events_path, "trace.json");
       },
       {}, true},
      {"POD_TELEMETRY_CSV", "series.csv",
       [](const Knobs& k) {
         EXPECT_EQ(k.telemetry.timeseries_path, "series.csv");
       },
       {}, true},
      {"POD_TELEMETRY_INTERVAL_MS", "50",
       [](const Knobs& k) { EXPECT_EQ(k.telemetry.sample_interval, ms(50)); },
       {"0", "-1", "1e10", "nan"}},
      {"POD_TRACE_LIMIT", "0",
       [](const Knobs& k) { EXPECT_EQ(k.telemetry.trace_event_limit, 0u); },
       {"-1", "18446744073709551616"}},
      {"POD_ANATOMY", "1", [](const Knobs& k) { EXPECT_TRUE(k.anatomy); },
       {"2", "-1", "yes"}},
      {"POD_TAIL_ANATOMY", "8",
       [](const Knobs& k) { EXPECT_EQ(k.tail_anatomy, std::size_t{8}); },
       {"-1", "1000001"}},
      {"POD_FAULT_SEED", "7",
       [](const Knobs& k) {
         EXPECT_TRUE(k.fault.enabled);
         EXPECT_EQ(k.fault.seed, 7u);
       },
       {"-1"}},
      {"POD_FAULT_MEDIA_RATE", "0.001",
       [](const Knobs& k) {
         EXPECT_TRUE(k.fault.enabled);
         EXPECT_DOUBLE_EQ(k.fault.media_error_rate, 0.001);
       },
       {"-0.5", "2", "1.0001", "nan"}},
      {"POD_FAULT_TRANSIENT_RATE", "0.25",
       [](const Knobs& k) {
         EXPECT_TRUE(k.fault.enabled);
         EXPECT_DOUBLE_EQ(k.fault.transient_rate, 0.25);
       },
       {"-0.1", "1.5"}},
      {"POD_FAULT_FAIL_DISK", "3",
       [](const Knobs& k) {
         EXPECT_TRUE(k.fault.enabled);
         EXPECT_EQ(k.fault.fail_disk, 3u);
         EXPECT_EQ(k.fault.fail_at, 0);
       },
       {"-1", "4", "7"}},
      {"POD_FAULT_FAIL_AT_MS", "100",
       [](const Knobs& k) {
         EXPECT_TRUE(k.fault.enabled);
         EXPECT_EQ(k.fault.fail_at, ms(100));
       },
       {"-5", "1e10"}},
      {"POD_FAULT_REBUILD", "0",
       [](const Knobs& k) {
         EXPECT_TRUE(k.fault.enabled);
         EXPECT_FALSE(k.fault.auto_rebuild);
       },
       {"2", "-1", "yes"}},
      {"POD_SCALAR_PROBES", "1",
       [](const Knobs& k) { EXPECT_TRUE(k.scalar_probes); }, {"2", "on"}},
      {"POD_CDC_SWEEP_MB", "8",
       [](const Knobs& k) { EXPECT_EQ(k.cdc_sweep_mb, 8u); },
       {"0", "-8", "1000001"}},
  };
  return all;
}

TEST(Knobs, EveryKnobTakesItsRangeAndRefusesTheRest) {
  std::set<std::string_view> covered;
  for (const Case& c : cases()) {
    SCOPED_TRACE(std::string(c.name));
    covered.insert(c.name);
    Knobs k;
    set_knob(k, c.name, c.valid);
    c.check(k);

    const std::string trailing = std::string(c.valid) + "x";
    expect_refused(c.name, "");
    if (c.path) {
      Knobs p;
      set_knob(p, c.name, "junk");
      set_knob(p, c.name, trailing);
    } else {
      expect_refused(c.name, "junk");
      expect_refused(c.name, trailing);
    }
    for (const std::string_view bad : c.out_of_range)
      expect_refused(c.name, bad);
  }
  const std::vector<std::string_view>& names = knob_names();
  EXPECT_EQ(covered, std::set<std::string_view>(names.begin(), names.end()));
  EXPECT_EQ(names.size(), 19u);
}

TEST(Knobs, UnknownNameIsRefused) {
  Knobs k;
  EXPECT_THROW(set_knob(k, "POD_SIMD", "1"), std::invalid_argument);
}

TEST(Knobs, JobsFallBackToHardwareThreads) {
  // Only an unset POD_JOBS falls back; malformed values are refused below.
  EXPECT_EQ(Knobs{}.jobs, hardware_threads());
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(Knobs, JobsParsePositiveCappedAtHardwareThreads) {
  Knobs k;
  set_knob(k, "POD_JOBS", "3");
  EXPECT_EQ(k.jobs, std::min<std::size_t>(3, hardware_threads()));
  set_knob(k, "POD_JOBS", "100000");
  EXPECT_EQ(k.jobs, hardware_threads());
}

TEST(Knobs, JobsRefuseMalformed) {
  for (const char* bad : {"0", "-2", "junk", "4x", " 4", "", "1.5"}) {
    SCOPED_TRACE(bad);
    expect_refused("POD_JOBS", bad);
  }
}

TEST(Knobs, FaultDisabledByDefault) {
  EXPECT_FALSE(Knobs{}.fault.enabled);
}

TEST(Knobs, FaultParsesRatesAndFailure) {
  Knobs k;
  set_knob(k, "POD_FAULT_MEDIA_RATE", "0.001");
  set_knob(k, "POD_FAULT_FAIL_AT_MS", "250");
  set_knob(k, "POD_FAULT_FAIL_DISK", "1");

  EXPECT_TRUE(k.fault.enabled);
  EXPECT_DOUBLE_EQ(k.fault.media_error_rate, 0.001);
  EXPECT_EQ(k.fault.fail_disk, 1u);
  // The failure time stands whichever of the two knobs came first.
  EXPECT_EQ(k.fault.fail_at, ms(250));
}

TEST(Knobs, ApplySetsWhatEveryRunChooses) {
  const WorkloadProfile p = tiny_test_profile();
  const RunSpec paper = paper_spec(EngineKind::kPod, p, 1.0);
  RunSpec spec = paper;
  Knobs{}.apply(spec);
  EXPECT_TRUE(spec == paper);  // default knobs change no run

  Knobs k;
  set_knob(k, "POD_ANATOMY", "1");
  k.apply(spec);
  ASSERT_TRUE(spec.anatomy.has_value());
  EXPECT_EQ(spec.anatomy->tail_k, LatencyAnatomy::Config{}.tail_k);

  set_knob(k, "POD_TAIL_ANATOMY", "8");
  set_knob(k, "POD_TELEMETRY_CSV", "series.csv");
  set_knob(k, "POD_SCALAR_PROBES", "1");
  set_knob(k, "POD_FAULT_SEED", "7");
  k.apply(spec);
  EXPECT_EQ(spec.anatomy->tail_k, 8u);
  EXPECT_EQ(spec.telemetry.timeseries_path, "series.csv");
  EXPECT_TRUE(spec.engine_cfg.scalar_probes);
  EXPECT_TRUE(spec.array_cfg.fault.enabled);
  EXPECT_EQ(spec.array_cfg.fault.seed, 7u);
}

}  // namespace
}  // namespace pod::bench
