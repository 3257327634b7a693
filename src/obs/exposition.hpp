// OpenMetrics / Prometheus text exposition of the observability state:
// every registered counter and gauge with its process-wide value, plus the
// current run scope's phase timings, scheduler summary and per-solver round
// counts, and a build-info marker.  This is what `mst_tool --stats-out
// FILE` writes and what llpmstd serves on /stats — there the process-wide
// counters are the daemon-wide serve/* totals, and the scope is the
// daemon's default one (each query records into its own).
//
// Every family is prefixed "llpmst_", and a character outside
// [a-zA-Z0-9_] in a metric name becomes '_'; docs/observability.md has the
// full name mapping.  Sanitization can collide two distinct metric names:
// the first family keeps the name and later ones are skipped with a
// comment (two families with one name would violate the spec).
//
// Both build flavours compile this: under LLPMST_OBS=0 the document
// degrades to build_info + EOF, which still parses — downstream scrapers
// never branch on the flavour.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace llpmst::obs {

/// Renders the current observability state as an OpenMetrics text document
/// (always syntactically valid, terminated by "# EOF").
[[nodiscard]] std::string render_openmetrics();

/// The HTTP Content-Type an OpenMetrics response must carry (llpmstd's
/// /stats endpoint) — version-pinned per the exposition format spec.
[[nodiscard]] const char* openmetrics_content_type();

/// Writes render_openmetrics() to `path`.  Returns false and sets *error
/// on I/O failure.
inline bool write_openmetrics(const std::string& path, std::string* error) {
  return write_file(path, render_openmetrics(), error);
}

}  // namespace llpmst::obs
