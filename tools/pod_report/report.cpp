#include "report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace pod::report {

namespace {

/// Component column order; mirrors LatComp reporting order. Components
/// absent from a capture (older files) simply render as missing columns.
constexpr const char* kComponents[] = {
    "queue_wait", "seek",             "rotation",    "transfer",
    "dedup_meta", "raid_reconstruct", "fault_retry",
};

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

double num_or(const minjson::Value& obj, const std::string& key,
              double fallback) {
  return obj.has(key) ? obj.at(key).num : fallback;
}

/// Trace names in first-appearance order (a capture may interleave traces).
std::vector<std::string> trace_order(const std::vector<BenchRun>& runs) {
  std::vector<std::string> order;
  for (const BenchRun& r : runs)
    if (std::find(order.begin(), order.end(), r.trace) == order.end())
      order.push_back(r.trace);
  return order;
}

const minjson::Value* anatomy_of(const BenchRun& r) {
  return r.json.has("anatomy") ? &r.json.at("anatomy") : nullptr;
}

void render_response_table(std::ostream& out,
                           const std::vector<const BenchRun*>& group) {
  double native = 0.0;
  for (const BenchRun* r : group)
    if (r->engine == "native") native = num_or(r->json, "mean_ms", 0.0);
  out << "| engine | mean ms |" << (native > 0.0 ? " vs native |" : "")
      << "\n|---|---|" << (native > 0.0 ? "---|" : "") << "\n";
  for (const BenchRun* r : group) {
    const double mean = num_or(r->json, "mean_ms", 0.0);
    out << "| " << r->engine << " | " << fmt(mean) << " |";
    if (native > 0.0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.1f%% |", 100.0 * mean / native);
      out << buf;
    }
    out << "\n";
  }
  out << "\n";
}

void render_component_table(std::ostream& out,
                            const std::vector<const BenchRun*>& group) {
  bool any = false;
  for (const BenchRun* r : group) any = any || anatomy_of(*r) != nullptr;
  if (!any) return;
  out << "Mean milliseconds per request by component (rows sum to the "
         "engine's mean response time):\n\n";
  out << "| engine |";
  for (const char* c : kComponents) out << " " << c << " |";
  out << "\n|---|";
  for (std::size_t i = 0; i < std::size(kComponents); ++i) out << "---|";
  out << "\n";
  for (const BenchRun* r : group) {
    const minjson::Value* a = anatomy_of(*r);
    if (a == nullptr) continue;
    const minjson::Value& comps = a->at("components");
    out << "| " << r->engine << " |";
    for (const char* c : kComponents) {
      out << " "
          << (comps.has(c) ? fmt(comps.at(c).at("mean_ms").num)
                           : std::string("-"))
          << " |";
    }
    out << "\n";
  }
  out << "\n";
}

void render_stream_tables(std::ostream& out,
                          const std::vector<const BenchRun*>& group) {
  for (const BenchRun* r : group) {
    const minjson::Value* a = anatomy_of(*r);
    if (a == nullptr || !a->has("streams") || a->at("streams").arr.empty())
      continue;
    out << "Per-stream accounting — " << r->engine << ":\n\n";
    out << "| stream | reads | writes | dedup hits | failed | mean ms | "
           "p95 ms | p99 ms |\n|---|---|---|---|---|---|---|---|\n";
    for (const minjson::Value& s : a->at("streams").arr) {
      out << "| " << static_cast<std::uint64_t>(s.at("stream").num) << " | "
          << static_cast<std::uint64_t>(s.at("reads").num) << " | "
          << static_cast<std::uint64_t>(s.at("writes").num) << " | "
          << static_cast<std::uint64_t>(s.at("dedup_hits").num) << " | "
          << static_cast<std::uint64_t>(s.at("failed_requests").num) << " | "
          << fmt(s.at("mean_ms").num) << " | " << fmt(s.at("p95_ms").num)
          << " | " << fmt(s.at("p99_ms").num) << " |\n";
    }
    out << "\n";
  }
}

void render_tail_tables(std::ostream& out,
                        const std::vector<const BenchRun*>& group) {
  constexpr std::size_t kMaxRows = 5;
  for (const BenchRun* r : group) {
    const minjson::Value* a = anatomy_of(*r);
    if (a == nullptr || !a->has("tail") || a->at("tail").arr.empty()) continue;
    const auto& tail = a->at("tail").arr;
    out << "Tail anatomy — " << r->engine << " (slowest "
        << std::min(kMaxRows, tail.size()) << " of " << tail.size()
        << " retained):\n\n";
    out << "| req | op | blocks | stream | latency ms |";
    for (const char* c : kComponents) out << " " << c << " |";
    out << "\n|---|---|---|---|---|";
    for (std::size_t i = 0; i < std::size(kComponents); ++i) out << "---|";
    out << "\n";
    for (std::size_t i = 0; i < std::min(kMaxRows, tail.size()); ++i) {
      const minjson::Value& t = tail[i];
      out << "| " << static_cast<std::uint64_t>(t.at("req_id").num) << " | "
          << t.at("type").str << " | "
          << static_cast<std::uint64_t>(t.at("nblocks").num) << " | "
          << static_cast<std::uint64_t>(t.at("stream").num) << " | "
          << fmt(t.at("latency_ms").num) << " |";
      const minjson::Value& comps = t.at("components");
      for (const char* c : kComponents)
        out << " "
            << (comps.has(c) ? fmt(comps.at(c).num) : std::string("-"))
            << " |";
      out << "\n";
    }
    out << "\n";
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 != 0 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

}  // namespace

std::vector<BenchRun> load_jsonl(std::istream& in) {
  std::vector<BenchRun> runs;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    BenchRun r;
    try {
      r.json = minjson::parse(line);
    } catch (const std::exception& e) {
      throw std::runtime_error("line " + std::to_string(lineno) + ": " +
                               e.what());
    }
    if (!r.json.is_object())
      throw std::runtime_error("line " + std::to_string(lineno) +
                               ": not a JSON object");
    r.trace = r.json.has("trace") ? r.json.at("trace").str : "?";
    r.engine = r.json.has("engine") ? r.json.at("engine").str : "?";
    runs.push_back(std::move(r));
  }
  return runs;
}

std::vector<BenchRun> load_jsonl_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  try {
    return load_jsonl(in);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void render(std::ostream& out, const std::vector<BenchRun>& runs) {
  out << "# POD bench report\n\n";
  if (runs.empty()) {
    out << "No runs in capture.\n";
    return;
  }
  for (const std::string& trace : trace_order(runs)) {
    std::vector<const BenchRun*> group;
    for (const BenchRun& r : runs)
      if (r.trace == trace) group.push_back(&r);
    out << "## " << trace << "\n\n";
    render_response_table(out, group);
    render_component_table(out, group);
    render_stream_tables(out, group);
    render_tail_tables(out, group);
  }
}

void render_compare(std::ostream& out, const std::vector<BenchRun>& baseline,
                    const std::vector<BenchRun>& current) {
  // Group by (trace, engine), keeping each group's occurrences in file
  // order; i-th baseline occurrence pairs with i-th current occurrence, so
  // repeated captures (A/B reruns) reduce to a median over pairs.
  std::map<std::pair<std::string, std::string>,
           std::pair<std::vector<double>, std::vector<double>>>
      groups;
  for (const BenchRun& r : baseline)
    groups[{r.trace, r.engine}].first.push_back(num_or(r.json, "mean_ms", 0));
  for (const BenchRun& r : current)
    groups[{r.trace, r.engine}].second.push_back(num_or(r.json, "mean_ms", 0));

  out << "## Delta vs baseline (paired medians)\n\n";
  out << "| trace | engine | pairs | baseline ms | current ms | delta |\n"
         "|---|---|---|---|---|---|\n";
  for (const auto& [key, vals] : groups) {
    const auto& [base, cur] = vals;
    const std::size_t pairs = std::min(base.size(), cur.size());
    if (pairs == 0) continue;
    std::vector<double> deltas;
    for (std::size_t i = 0; i < pairs; ++i)
      if (base[i] > 0.0)
        deltas.push_back(100.0 * (cur[i] - base[i]) / base[i]);
    const double base_med =
        median(std::vector<double>(base.begin(), base.begin() + pairs));
    const double cur_med =
        median(std::vector<double>(cur.begin(), cur.begin() + pairs));
    char delta_buf[32];
    std::snprintf(delta_buf, sizeof(delta_buf), "%+.1f%%", median(deltas));
    out << "| " << key.first << " | " << key.second << " | " << pairs << " | "
        << fmt(base_med) << " | " << fmt(cur_med) << " | " << delta_buf
        << " |\n";
  }
  out << "\n";
}

}  // namespace pod::report
