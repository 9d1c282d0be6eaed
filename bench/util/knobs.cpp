#include "knobs.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <thread>

#include "bench_util.hpp"

namespace pod::bench {

namespace {

/// One knob's value and the parsers the knobs share. Each refuses a value
/// by throwing "NAME='value' is not <what>".
struct Value {
  std::string_view name;
  std::string_view text;

  [[noreturn]] void refuse(std::string_view what) const {
    std::string msg(name);
    msg += "='";
    msg += text;
    msg += "' is not ";
    msg += what;
    throw std::invalid_argument(msg);
  }

  /// The whole text as a T in [lo, hi].
  template <typename T>
  T number(T lo, T hi, std::string_view what) const {
    T v{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || ptr != end || !(v >= lo && v <= hi)) refuse(what);
    return v;
  }

  bool flag() const {
    if (text != "0" && text != "1") refuse("0 or 1");
    return text == "1";
  }

  std::string path() const {
    if (text.empty()) refuse("a path");
    return std::string(text);
  }

  /// A simulated duration in milliseconds, at least `lo`.
  Duration millis(double lo, std::string_view what) const {
    return ms(number(lo, 1e9, what));
  }
};

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr std::size_t kSizeMax = std::numeric_limits<std::size_t>::max();

struct Knob {
  const char* name;
  void (*set)(Knobs&, const Value&);
};

/// Marks fault injection on: any POD_FAULT_* knob enables it.
FaultConfig& fault(Knobs& k) {
  k.fault.enabled = true;
  return k.fault;
}

const Knob kKnobs[] = {
    {"POD_SCALE",
     [](Knobs& k, const Value& v) {
       k.scale = v.number(std::numeric_limits<double>::denorm_min(), 1.0,
                          "a number in (0,1]");
     }},
    {"POD_TRACE",
     [](Knobs& k, const Value& v) {
       for (const WorkloadProfile& p : paper_profiles()) {
         if (p.name == v.text) {
           k.trace = p.name;
           return;
         }
       }
       v.refuse("one of web-vm, homes, mail");
     }},
    {"POD_JOBS",
     [](Knobs& k, const Value& v) {
       k.jobs = std::min(
           v.number<std::size_t>(1, kSizeMax, "a positive integer"),
           hardware_threads());
     }},
    {"POD_TRACE_CACHE",
     [](Knobs& k, const Value& v) { k.trace_cache = v.path(); }},
    {"POD_BENCH_JSON",
     [](Knobs& k, const Value& v) { k.bench_json = v.path(); }},
    {"POD_TRACE_EVENTS",
     [](Knobs& k, const Value& v) {
       k.telemetry.trace_events_path = v.path();
     }},
    {"POD_TELEMETRY_CSV",
     [](Knobs& k, const Value& v) {
       k.telemetry.timeseries_path = v.path();
     }},
    {"POD_TELEMETRY_INTERVAL_MS",
     [](Knobs& k, const Value& v) {
       k.telemetry.sample_interval =
           v.millis(1e-6, "a number of milliseconds in [0.000001, 1e9]");
     }},
    {"POD_TRACE_LIMIT",
     [](Knobs& k, const Value& v) {
       k.telemetry.trace_event_limit =
           v.number<std::uint64_t>(0, kU64Max, "a non-negative integer");
     }},
    {"POD_ANATOMY", [](Knobs& k, const Value& v) { k.anatomy = v.flag(); }},
    {"POD_TAIL_ANATOMY",
     [](Knobs& k, const Value& v) {
       k.tail_anatomy =
           v.number<std::size_t>(0, 1'000'000, "an integer in [0, 1000000]");
     }},
    {"POD_FAULT_SEED",
     [](Knobs& k, const Value& v) {
       fault(k).seed =
           v.number<std::uint64_t>(0, kU64Max, "a non-negative integer");
     }},
    {"POD_FAULT_MEDIA_RATE",
     [](Knobs& k, const Value& v) {
       fault(k).media_error_rate =
           v.number(0.0, 1.0, "a probability in [0,1]");
     }},
    {"POD_FAULT_TRANSIENT_RATE",
     [](Knobs& k, const Value& v) {
       fault(k).transient_rate =
           v.number(0.0, 1.0, "a probability in [0,1]");
     }},
    {"POD_FAULT_FAIL_DISK",
     [](Knobs& k, const Value& v) {
       FaultConfig& f = fault(k);
       f.fail_disk = v.number<std::size_t>(
           0, kPaperDisks - 1, "a member of the 4-disk array (0-3)");
       if (f.fail_at < 0) f.fail_at = 0;
     }},
    {"POD_FAULT_FAIL_AT_MS",
     [](Knobs& k, const Value& v) {
       fault(k).fail_at =
           v.millis(0.0, "a number of milliseconds in [0, 1e9]");
     }},
    {"POD_FAULT_REBUILD",
     [](Knobs& k, const Value& v) { fault(k).auto_rebuild = v.flag(); }},
    {"POD_SCALAR_PROBES",
     [](Knobs& k, const Value& v) { k.scalar_probes = v.flag(); }},
    {"POD_CDC_SWEEP_MB",
     [](Knobs& k, const Value& v) {
       k.cdc_sweep_mb = v.number<std::uint64_t>(1, 1'000'000,
                                                "an integer in [1, 1000000]");
     }},
};

}  // namespace

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void Knobs::apply(RunSpec& spec) const {
  spec.array_cfg.fault = fault;
  spec.engine_cfg.scalar_probes = scalar_probes;
  spec.telemetry = telemetry;
  if (anatomy || tail_anatomy) {
    LatencyAnatomy::Config cfg;
    if (tail_anatomy) cfg.tail_k = *tail_anatomy;
    spec.anatomy = cfg;
  }
}

const std::vector<std::string_view>& knob_names() {
  static const std::vector<std::string_view> names = [] {
    std::vector<std::string_view> out;
    for (const Knob& knob : kKnobs) out.push_back(knob.name);
    return out;
  }();
  return names;
}

void set_knob(Knobs& knobs, std::string_view name, std::string_view value) {
  for (const Knob& knob : kKnobs)
    if (name == knob.name) return knob.set(knobs, Value{name, value});
  throw std::invalid_argument(std::string(name) + " is not a POD_* knob");
}

Knobs knobs_from_env() {
  Knobs knobs;
  for (const Knob& knob : kKnobs) {
    const char* value = std::getenv(knob.name);
    if (value == nullptr) continue;
    try {
      knob.set(knobs, Value{knob.name, value});
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "[bench] %s; aborting\n", e.what());
      std::exit(2);
    }
  }
  return knobs;
}

}  // namespace pod::bench
