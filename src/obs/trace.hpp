// Chrome trace-event export: the trace view over the recorder, in the JSON
// format of chrome://tracing and https://ui.perfetto.dev.
//
//   obs::set_enabled(true);       // phase timers feed the trace
//   obs::trace_start();
//   run_algorithm();
//   obs::trace_stop();
//   obs::write_trace_json("trace.json", &err);
//
// The document holds the current run scope's phase and "pool/region" spans
// ("X") and counter samples ("C") under pid 0 (tid = shard id), and its
// scheduler task spans as per-worker "sched/task" tracks under pid 1.
#pragma once

#include <cstddef>
#include <string>

#include "obs/recorder.hpp"

namespace llpmst::obs {

/// Serializes the current scope's trace (a valid, possibly empty, trace
/// document even when obs is compiled out).
[[nodiscard]] std::string trace_json();

/// Number of events trace_json() would emit.
[[nodiscard]] std::size_t trace_event_count();

/// Writes trace_json() to `path`.  Returns false and sets *error on I/O
/// failure.
inline bool write_trace_json(const std::string& path, std::string* error) {
  return write_file(path, trace_json(), error);
}

}  // namespace llpmst::obs
