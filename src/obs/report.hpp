// JSON run report: one stable document combining run metadata, the
// algorithm's MstAlgoStats/HeapStats/LLP instrumentation, and a view of the
// current run scope (obs/recorder.hpp): the counters/gauges it recorded,
// its phase timings, rounds, scheduler summary and warnings — nothing from
// another scope, so a per-query report in llpmstd holds only its query.
// This is what `mst_tool --metrics-json`, the bench `--metrics-json` flags
// and every executed llpmstd query write.  The document (schema_version 4,
// the one current version) is specified, with an example, in
// docs/observability.md; tools/check_report_schema.py checks it in CI.
//
// The report itself is always available — an LLPMST_OBS=0 build emits the
// same document with empty counters/gauges/phases (and the "unavailable"
// hw shape when counters were requested), so downstream parsers never
// branch on the build flavour.
#pragma once

#include <cstddef>
#include <string>

#include "mst/mst_result.hpp"
#include "obs/hw_counters.hpp"
#include "obs/profiler.hpp"

namespace llpmst::obs {

/// Metadata describing the measured run.
struct RunInfo {
  std::string tool;       // emitting binary, e.g. "mst_tool"
  std::string algorithm;  // algorithm label; empty when not applicable
  std::size_t threads = 0;
  std::size_t vertices = 0;
  std::size_t edges = 0;
  double wall_ms = 0.0;
  /// Per-run verdict ("ok", "deadline_exceeded", "injected_fault", ...);
  /// emitted as run.outcome.  Matches run_outcome_name().
  std::string outcome = "ok";
  /// Non-empty when the portfolio fell back to sequential Kruskal; emitted
  /// as run.fallback_reason ("" when no fallback happened).
  std::string fallback_reason;
};

/// Builds the report document.  `algo` may be null (no per-algorithm
/// stats); `hw` may be null (hardware counters not requested — the "hw"
/// section serializes as JSON null); `profile` may be null (profiling not
/// requested — the "profile" section serializes as JSON null).  The "mem"
/// section is always gathered internally via mem_sample(); "bandwidth" is
/// derived from `hw` plus the phase aggregates (null when hw is null, the
/// degraded shape when hw is degraded — schema v4).
[[nodiscard]] std::string build_run_report(const RunInfo& info,
                                           const MstAlgoStats* algo,
                                           const HwSample* hw = nullptr,
                                           const ProfSnapshot* profile =
                                               nullptr);

/// Writes `json` to `path`.  Returns false and sets *error on I/O failure.
inline bool write_run_report(const std::string& path, const std::string& json,
                             std::string* error) {
  return write_file(path, json, error);
}

}  // namespace llpmst::obs
