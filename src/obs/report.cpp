#include "obs/report.hpp"

#include <cinttypes>
#include <cstdio>

#include "obs/bandwidth.hpp"
#include "obs/critical_path.hpp"
#include "obs/mem_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/round_stats.hpp"

namespace llpmst::obs {

namespace {

void append_kv_u64(std::string& out, const char* key, std::uint64_t v,
                   bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64 "%s", key, v,
                comma ? "," : "");
  out += buf;
}

void append_kv_ms(std::string& out, const char* key, double ms,
                  bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.3f%s", key, ms, comma ? "," : "");
  out += buf;
}

/// Emits a counter field that may be kHwAbsent (JSON null).
void append_hw_u64(std::string& out, const char* key, std::uint64_t v,
                   bool comma = true) {
  if (v == kHwAbsent) {
    out += "\"";
    out += key;
    out += "\":null";
    if (comma) out.push_back(',');
  } else {
    append_kv_u64(out, key, v, comma);
  }
}

/// The five counters + task-clock of one sample (no braces, no trailing
/// comma) — shared by the run-level hw section and its phase entries.
void append_hw_fields(std::string& out, const HwSample& s) {
  append_hw_u64(out, "cycles", s.cycles);
  append_hw_u64(out, "instructions", s.instructions);
  append_hw_u64(out, "cache_references", s.cache_references);
  append_hw_u64(out, "cache_misses", s.cache_misses);
  append_hw_u64(out, "branch_misses", s.branch_misses);
  if (s.task_clock_ms < 0) {
    out += "\"task_clock_ms\":null";
  } else {
    append_kv_ms(out, "task_clock_ms", s.task_clock_ms, false);
  }
}

}  // namespace

std::string build_run_report(const RunInfo& info, const MstAlgoStats* algo,
                             const HwSample* hw, const ProfSnapshot* profile) {
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"llpmst-run-report\",\"schema_version\":4,";

  // --- run metadata
  out += "\"run\":{\"tool\":";
  out += json_quote(info.tool);
  out += ",\"algorithm\":";
  out += json_quote(info.algorithm);
  out += ",";
  append_kv_u64(out, "threads", info.threads);
  out += "\"graph\":{";
  append_kv_u64(out, "vertices", info.vertices);
  append_kv_u64(out, "edges", info.edges, false);
  out += "},";
  append_kv_ms(out, "wall_ms", info.wall_ms);
  out += "\"outcome\":";
  out += json_quote(info.outcome);
  out += ",\"fallback_reason\":";
  out += json_quote(info.fallback_reason);
  out += "},";

  // --- per-algorithm stats
  if (algo != nullptr) {
    out += "\"algo\":{";
    append_kv_u64(out, "fixed_via_heap", algo->fixed_via_heap);
    append_kv_u64(out, "fixed_via_mwe", algo->fixed_via_mwe);
    append_kv_u64(out, "staged_in_q", algo->staged_in_q);
    append_kv_u64(out, "edges_relaxed", algo->edges_relaxed);
    append_kv_u64(out, "rounds", algo->rounds);
    append_kv_u64(out, "pointer_jumps", algo->pointer_jumps);
    out += "\"heap\":{";
    append_kv_u64(out, "pushes", algo->heap.pushes);
    append_kv_u64(out, "pops", algo->heap.pops);
    append_kv_u64(out, "adjusts", algo->heap.adjusts);
    append_kv_u64(out, "erases", algo->heap.erases);
    append_kv_u64(out, "sift_steps", algo->heap.sift_steps, false);
    out += "},\"llp\":{";
    append_kv_u64(out, "sweeps", algo->llp_sweeps);
    append_kv_u64(out, "advances", algo->llp_advances);
    out += "\"converged\":";
    out += algo->llp_converged ? "true" : "false";
    out += ",\"outcome\":";
    out += json_quote(run_outcome_name(algo->outcome));
    out += "}},";
  } else {
    out += "\"algo\":null,";
  }

  // --- hardware counters (schema v2)
  if (hw == nullptr) {
    out += "\"hw\":null,";
  } else if (!hw->available) {
    out += "\"hw\":{\"available\":false,\"reason\":";
    out += json_quote(hw->unavailable_reason);
    out += "},";
  } else {
    out += "\"hw\":{\"available\":true,";
    append_hw_fields(out, *hw);
    out += ",";
    char buf[64];
    std::snprintf(buf, sizeof buf, "\"multiplex_ratio\":%.4f,",
                  hw->multiplex_ratio);
    out += buf;
    out += "\"phases\":[";
    bool first_hw = true;
    for (const HwPhaseSample& p : snapshot_hw_phases()) {
      if (!first_hw) out.push_back(',');
      first_hw = false;
      out += "{\"name\":";
      out += json_quote(p.name);
      out += ",";
      append_kv_u64(out, "count", p.count);
      append_hw_fields(out, p.totals);
      out += "}";
    }
    out += "]},";
  }

  // --- memory (schema v2; peak RSS works in every flavour)
  {
    const MemSample mem = mem_sample();
    out += "\"mem\":{";
    append_kv_u64(out, "peak_rss_bytes", mem.peak_rss_bytes);
    if (mem.alloc_tracking) {
      out += "\"alloc\":{";
      append_kv_u64(out, "count", mem.alloc_count);
      append_kv_u64(out, "bytes", mem.alloc_bytes);
      append_kv_u64(out, "frees", mem.free_count, false);
      out += "}},";
    } else {
      out += "\"alloc\":null},";
    }
  }

  // --- registry metrics
  const std::vector<MetricSample> metrics = snapshot_metrics();
  out += "\"counters\":{";
  bool first = true;
  for (const MetricSample& m : metrics) {
    if (m.is_gauge) continue;
    if (!first) out.push_back(',');
    first = false;
    out += json_quote(m.name);
    out.push_back(':');
    out += std::to_string(m.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const MetricSample& m : metrics) {
    if (!m.is_gauge) continue;
    if (!first) out.push_back(',');
    first = false;
    out += json_quote(m.name);
    out.push_back(':');
    out += std::to_string(m.value);
  }
  out += "},";

  // --- phase aggregates
  out += "\"phases\":[";
  first = true;
  for (const PhaseSample& p : snapshot_phases()) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    out += json_quote(p.name);
    out += ",";
    append_kv_u64(out, "count", p.count);
    append_kv_ms(out, "total_ms", static_cast<double>(p.total_us) / 1000.0,
                 false);
    out += "}";
  }
  out += "],";

  // --- per-round solver telemetry (schema v3; [] when nothing recorded)
  out += "\"rounds\":[";
  first = true;
  for (const RoundRecord& rr : snapshot_rounds()) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"label\":";
    out += json_quote(rr.label);
    out += ",";
    append_kv_u64(out, "round", rr.round);
    append_kv_u64(out, "components", rr.components);
    append_kv_u64(out, "edges", rr.edges);
    append_kv_u64(out, "advances", rr.advances);
    append_kv_ms(out, "wall_ms", rr.wall_ms);
    char ibuf[48];
    std::snprintf(ibuf, sizeof(ibuf), "\"imbalance\":%.4f}", rr.imbalance);
    out += ibuf;
  }
  out += "],";

  // --- scheduler summary (schema v3; null when no events were collected)
  {
    const SchedulerSummary sched = scheduler_summary();
    if (!sched.has_events) {
      out += "\"scheduler\":null,";
    } else {
      char buf[96];
      out += "\"scheduler\":{";
      std::snprintf(buf, sizeof(buf), "\"utilization\":%.4f,",
                    sched.utilization);
      out += buf;
      std::snprintf(buf, sizeof(buf), "\"steal_success_rate\":%.4f,",
                    sched.steal_success_rate);
      out += buf;
      append_kv_u64(out, "span_us", sched.span_us);
      append_kv_u64(out, "busy_us", sched.busy_us);
      append_kv_u64(out, "idle_us", sched.idle_us);
      append_kv_u64(out, "steal_attempts", sched.steal_attempts);
      append_kv_u64(out, "steal_successes", sched.steal_successes);
      append_kv_u64(out, "critical_path_us", sched.critical_path_us);
      append_kv_u64(out, "dropped_events", sched.dropped_events);
      out += "\"workers\":[";
      bool first_w = true;
      for (const WorkerBreakdown& w : sched.workers) {
        if (!first_w) out.push_back(',');
        first_w = false;
        out += "{";
        append_kv_u64(out, "worker", w.worker);
        append_kv_u64(out, "busy_us", w.busy_us);
        append_kv_u64(out, "idle_us", w.idle_us);
        append_kv_u64(out, "tasks", w.tasks);
        append_kv_u64(out, "steal_attempts", w.steal_attempts);
        append_kv_u64(out, "steal_successes", w.steal_successes, false);
        out += "}";
      }
      out += "],\"grain_hist\":[";
      bool first_g = true;
      for (const auto& [bucket, count] : sched.grain_hist) {
        if (!first_g) out.push_back(',');
        first_g = false;
        out += "{";
        append_kv_u64(out, "grain", bucket);
        append_kv_u64(out, "count", count, false);
        out += "}";
      }
      out += "]},";
    }
  }

  // --- profiler samples (schema v4; null when not requested)
  if (profile == nullptr) {
    out += "\"profile\":null,";
  } else if (!profile->available) {
    out += "\"profile\":{\"available\":false,\"reason\":";
    out += json_quote(profile->unavailable_reason);
    out += "},";
  } else {
    out += "\"profile\":{\"available\":true,";
    append_kv_u64(out, "hz", profile->hz);
    append_kv_u64(out, "samples", profile->samples);
    append_kv_u64(out, "dropped", profile->dropped);
    out += "\"phases\":[";
    bool first_p = true;
    for (const ProfPhaseCount& p : profile->phases) {
      if (!first_p) out.push_back(',');
      first_p = false;
      out += "{\"name\":";
      out += json_quote(p.name);
      out += ",";
      append_kv_u64(out, "samples", p.samples, false);
      out += "}";
    }
    // Top stacks only: the full fold goes to the --profile-out file; the
    // report carries enough for drift triage without ballooning.
    out += "],\"top_stacks\":[";
    first_p = true;
    std::size_t emitted = 0;
    for (const ProfStack& st : profile->stacks) {
      if (emitted++ == 20) break;
      if (!first_p) out.push_back(',');
      first_p = false;
      out += "{\"stack\":";
      out += json_quote(st.stack);
      out += ",";
      append_kv_u64(out, "samples", st.samples, false);
      out += "}";
    }
    out += "]},";
  }

  // --- estimated DRAM bandwidth per phase (schema v4; derived from hw)
  if (hw == nullptr) {
    out += "\"bandwidth\":null,";
  } else {
    const BandwidthSnapshot bw = bandwidth_snapshot(hw);
    if (!bw.available) {
      out += "\"bandwidth\":{\"available\":false,\"reason\":";
      out += json_quote(bw.unavailable_reason);
      out += "},";
    } else {
      out += "\"bandwidth\":{\"available\":true,";
      append_kv_u64(out, "line_bytes", bw.line_bytes);
      out += "\"phases\":[";
      bool first_b = true;
      for (const PhaseBandwidth& p : bw.phases) {
        if (!first_b) out.push_back(',');
        first_b = false;
        out += "{\"name\":";
        out += json_quote(p.name);
        out += ",";
        append_kv_u64(out, "cache_misses", p.cache_misses);
        append_kv_u64(out, "est_bytes", p.est_bytes);
        append_kv_ms(out, "wall_ms", p.wall_ms);
        char bbuf[96];
        std::snprintf(bbuf, sizeof(bbuf),
                      "\"est_gbps\":%.4f,\"instr_per_byte\":%.4f,",
                      p.est_gbps, p.instr_per_byte);
        out += bbuf;
        out += "\"verdict\":";
        out += json_quote(bound_verdict_name(p.verdict));
        out += "}";
      }
      out += "]},";
    }
  }

  // --- warnings
  out += "\"warnings\":[";
  first = true;
  for (const std::string& w : snapshot_warnings()) {
    if (!first) out.push_back(',');
    first = false;
    out += json_quote(w);
  }
  out += "]}";
  return out;
}

bool write_run_report(const std::string& path, const std::string& json,
                      std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok && error != nullptr) *error = "short write to " + path;
  return ok;
}

}  // namespace llpmst::obs
