#include "obs/exposition.hpp"

#include <cstdio>
#include <map>
#include <set>
#include <string_view>

#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace llpmst::obs {

namespace {

/// "llp_prim/heap_inserts" -> "llpmst_llp_prim_heap_inserts".
std::string sanitize(std::string_view name) {
  std::string out = "llpmst_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Escapes a label value per the exposition format (backslash, quote, LF).
std::string escape_label(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string label(const char* key, std::string_view value) {
  return std::string("{") + key + "=\"" + escape_label(value) + "\"}";
}

/// (labels, value) pairs of one family's samples.
using Samples = std::vector<std::pair<std::string, std::string>>;

/// A family's TYPE line and its samples (a counter's samples carry the
/// mandatory "_total" suffix).
void append_family(std::string& out, const std::string& family,
                   const char* type, const Samples& samples) {
  out += "# TYPE " + family + " " + type + "\n";
  const std::string name =
      family + (std::string_view(type) == "counter" ? "_total" : "");
  for (const auto& [labels, value] : samples) {
    out += name + labels + " " + value + "\n";
  }
}

}  // namespace

std::string render_openmetrics() {
  std::string out;
  // Family names already emitted: a sanitized collision must not produce a
  // second family with the same name (spec violation), so later ones skip.
  std::set<std::string> seen;
  for (const MetricSample& m : snapshot_metrics()) {
    const std::string family = sanitize(m.name);
    if (!seen.insert(family).second) {
      out += "# skipped: duplicate family after sanitization: " + family +
             "\n";
      continue;
    }
    append_family(out, family, m.is_gauge ? "gauge" : "counter",
                  {{"", num(m.value)}});
  }

  Samples seconds, counts;
  for (const PhaseSample& p : snapshot_phases()) {
    seconds.emplace_back(label("phase", p.name),
                         num(static_cast<double>(p.total_us) * 1e-6));
    counts.emplace_back(label("phase", p.name), num(p.count));
  }
  if (!counts.empty()) {
    append_family(out, "llpmst_phase_seconds", "counter", seconds);
    append_family(out, "llpmst_phase_count", "counter", counts);
  }

  const SchedulerSummary sched = scheduler_summary();
  if (sched.has_events) {
    append_family(out, "llpmst_sched_utilization_ratio", "gauge",
                  {{"", num(sched.utilization)}});
    append_family(
        out, "llpmst_sched_critical_path_seconds", "gauge",
        {{"", num(static_cast<double>(sched.critical_path_us) * 1e-6)}});
    Samples busy;
    for (const WorkerBreakdown& w : sched.workers) {
      busy.emplace_back(label("worker", std::to_string(w.worker)),
                        num(static_cast<double>(w.busy_us) * 1e-6));
    }
    append_family(out, "llpmst_sched_worker_busy_seconds", "counter", busy);
    append_family(out, "llpmst_sched_dropped_events", "counter",
                  {{"", num(sched.dropped_events)}});
  }

  // Rounds aggregate per site: how many rounds and how long they took.
  std::map<std::string, std::pair<std::uint64_t, double>> sites;
  for (const RoundRecord& r : snapshot_rounds()) {
    auto& [count, wall_ms] = sites[std::string(r.label)];
    ++count;
    wall_ms += r.wall_ms;
  }
  Samples rounds, round_seconds;
  for (const auto& [site, agg] : sites) {
    rounds.emplace_back(label("site", site), num(agg.first));
    round_seconds.emplace_back(label("site", site), num(agg.second * 1e-3));
  }
  if (!sites.empty()) {
    append_family(out, "llpmst_solver_rounds", "gauge", rounds);
    append_family(out, "llpmst_solver_round_seconds", "counter",
                  round_seconds);
  }

  append_family(out, "llpmst_warnings", "gauge",
                {{"", num(std::uint64_t{snapshot_warnings().size()})}});
  append_family(out, "llpmst_build_info", "gauge",
                {{kCompiledIn ? "{obs=\"1\"}" : "{obs=\"0\"}", "1"}});
  out += "# EOF\n";
  return out;
}

const char* openmetrics_content_type() {
  return "application/openmetrics-text; version=1.0.0; charset=utf-8";
}

}  // namespace llpmst::obs
