#include "obs/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/bandwidth.hpp"
#include "obs/critical_path.hpp"
#include "obs/mem_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

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

/// The degraded shape of an optional section: `"key":{"available":false,
/// "reason":...},`.
void append_unavailable(std::string& out, const char* key,
                        const std::string& reason) {
  out += std::string("\"") + key + "\":{\"available\":false,\"reason\":" +
         json_quote(reason) + "},";
}

/// Appends `"key":[...]`, rendering each element with fn(element) and
/// separating them with commas.
template <typename Range, typename Fn>
void append_array(std::string& out, const char* key, const Range& items,
                  Fn&& fn) {
  out += "\"";
  out += key;
  out += "\":[";
  bool first = true;
  for (const auto& item : items) {
    if (!first) out.push_back(',');
    first = false;
    fn(item);
  }
  out += "]";
}

std::vector<std::string> warnings_with_drops() {
  std::vector<std::string> out = snapshot_warnings();
#if LLPMST_OBS
  using detail::RecordKind;
  const auto note = [&out](RecordKind kind, const char* what,
                           std::uint64_t cap) {
    const std::uint64_t n = detail::dropped_records(kind);
    if (n == 0) return;
    out.push_back(std::to_string(n) + " " + what +
                  " dropped past the per-thread cap of " +
                  std::to_string(cap));
  };
  note(RecordKind::kRound, "round records", kMaxRoundRecords);
  note(RecordKind::kSched, "scheduler events", kMaxSchedEvents);
  note(RecordKind::kSpan, "trace spans", kMaxTraceRecords);
  note(RecordKind::kSample, "trace counter samples", kMaxTraceRecords);
#endif
  return out;
}

}  // namespace

std::string build_run_report(const RunInfo& info, const MstAlgoStats* algo,
                             const HwSample* hw, const ProfSnapshot* profile) {
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"llpmst-run-report\",\"schema_version\":6,";

  // --- run metadata
  out += "\"run\":{\"tool\":" + json_quote(info.tool) +
         ",\"algorithm\":" + json_quote(info.algorithm) + ",";
  append_kv_u64(out, "threads", info.threads);
  out += "\"graph\":{";
  append_kv_u64(out, "vertices", info.vertices);
  append_kv_u64(out, "edges", info.edges, false);
  out += "},";
  append_kv_ms(out, "wall_ms", info.wall_ms);
  out += "\"outcome\":" + json_quote(info.outcome) +
         ",\"fallback_reason\":" + json_quote(info.fallback_reason) + "},";

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
    out += std::string("\"converged\":") +
           (algo->llp_converged ? "true" : "false") +
           ",\"outcome\":" + json_quote(run_outcome_name(algo->outcome)) +
           "}},";
  } else {
    out += "\"algo\":null,";
  }

  // --- hardware counters (schema v2)
  if (hw == nullptr) {
    out += "\"hw\":null,";
  } else if (!hw->available) {
    append_unavailable(out, "hw", hw->unavailable_reason);
  } else {
    out += "\"hw\":{\"available\":true,";
    append_hw_fields(out, *hw);
    out += ",";
    char buf[64];
    std::snprintf(buf, sizeof buf, "\"multiplex_ratio\":%.4f,",
                  hw->multiplex_ratio);
    out += buf;
    append_array(out, "phases", snapshot_hw_phases(),
                 [&out](const HwPhaseSample& p) {
                   out += "{\"name\":" + json_quote(p.name) + ",";
                   append_kv_u64(out, "count", p.count);
                   append_hw_fields(out, p.totals);
                   out += "}";
                 });
    out += "},";
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

  // --- the scope's metrics, phase aggregates and rounds
  std::vector<MetricSample> metrics[2];  // counters, gauges
  for (MetricSample& m : snapshot_scope_metrics()) {
    metrics[m.is_gauge ? 1 : 0].push_back(std::move(m));
  }
  for (const char* key : {"counters", "gauges"}) {
    out += "\"";
    out += key;
    out += "\":{";
    const auto& list = metrics[key[0] == 'g' ? 1 : 0];
    for (const MetricSample& m : list) {
      out += json_quote(m.name) + ":" + std::to_string(m.value) + ",";
    }
    if (!list.empty()) out.pop_back();
    out += "},";
  }

  append_array(out, "phases", snapshot_phases(), [&out](const PhaseSample& p) {
    out += "{\"name\":" + json_quote(p.name) + ",";
    append_kv_u64(out, "count", p.count);
    append_kv_ms(out, "total_ms", static_cast<double>(p.total_us) / 1000.0,
                 false);
    out += "}";
  });
  out += ",";

  append_array(out, "rounds", snapshot_rounds(), [&out](const RoundRecord& r) {
    out += "{\"label\":" + json_quote(r.label) + ",";
    append_kv_u64(out, "round", r.round);
    append_kv_u64(out, "components", r.components);
    append_kv_u64(out, "edges", r.edges);
    append_kv_u64(out, "advances", r.advances);
    append_kv_ms(out, "wall_ms", r.wall_ms, false);
    out += "}";
  });
  out += ",";

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
      append_kv_u64(out, "span_us", sched.span_us);
      append_kv_u64(out, "busy_us", sched.busy_us);
      append_kv_u64(out, "critical_path_us", sched.critical_path_us);
      append_kv_u64(out, "dropped_events", sched.dropped_events);
      append_array(out, "workers", sched.workers,
                   [&out](const WorkerBreakdown& w) {
                     out += "{";
                     append_kv_u64(out, "worker", w.worker);
                     append_kv_u64(out, "busy_us", w.busy_us);
                     append_kv_u64(out, "tasks", w.tasks, false);
                     out += "}";
                   });
      out += ",";
      append_array(out, "grain_hist", sched.grain_hist, [&out](const auto& g) {
        out += "{";
        append_kv_u64(out, "grain", g.first);
        append_kv_u64(out, "count", g.second, false);
        out += "}";
      });
      out += "},";
    }
  }

  // --- profiler samples (schema v4; null when not requested)
  if (profile == nullptr) {
    out += "\"profile\":null,";
  } else if (!profile->available) {
    append_unavailable(out, "profile", profile->unavailable_reason);
  } else {
    out += "\"profile\":{\"available\":true,";
    append_kv_u64(out, "hz", profile->hz);
    append_kv_u64(out, "samples", profile->samples);
    append_kv_u64(out, "dropped", profile->dropped);
    append_array(out, "phases", profile->phases,
                 [&out](const ProfPhaseCount& p) {
                   out += "{\"name\":" + json_quote(p.name) + ",";
                   append_kv_u64(out, "samples", p.samples, false);
                   out += "}";
                 });
    // Top stacks only: the full fold goes to the --profile-out file; the
    // report carries enough for drift triage without ballooning.
    const std::vector<ProfStack> top(
        profile->stacks.begin(),
        profile->stacks.begin() +
            static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                profile->stacks.size(), 20)));
    out += ",";
    append_array(out, "top_stacks", top, [&out](const ProfStack& st) {
      out += "{\"stack\":" + json_quote(st.stack) + ",";
      append_kv_u64(out, "samples", st.samples, false);
      out += "}";
    });
    out += "},";
  }

  // --- estimated DRAM bandwidth per phase (schema v4; derived from hw)
  if (hw == nullptr) {
    out += "\"bandwidth\":null,";
  } else {
    const BandwidthSnapshot bw = bandwidth_snapshot(hw);
    if (!bw.available) {
      append_unavailable(out, "bandwidth", bw.unavailable_reason);
    } else {
      out += "\"bandwidth\":{\"available\":true,";
      append_kv_u64(out, "line_bytes", bw.line_bytes);
      append_array(out, "phases", bw.phases, [&out](const PhaseBandwidth& p) {
        out += "{\"name\":" + json_quote(p.name) + ",";
        append_kv_u64(out, "cache_misses", p.cache_misses);
        append_kv_u64(out, "est_bytes", p.est_bytes);
        append_kv_ms(out, "wall_ms", p.wall_ms);
        char bbuf[96];
        std::snprintf(bbuf, sizeof(bbuf),
                      "\"est_gbps\":%.4f,\"instr_per_byte\":%.4f,",
                      p.est_gbps, p.instr_per_byte);
        out += bbuf;
        out += "\"verdict\":" + json_quote(bound_verdict_name(p.verdict)) + "}";
      });
      out += "},";
    }
  }

  // --- warnings, then what the recorder dropped at capacity
  append_array(out, "warnings", warnings_with_drops(),
               [&out](const std::string& w) { out += json_quote(w); });
  out += "}";
  return out;
}

}  // namespace llpmst::obs
