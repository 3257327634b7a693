// Utilization and critical-path analysis over the current run scope's
// scheduler events (obs/recorder.hpp): per-worker busy/idle breakdowns,
// steal success rate, the adaptive-grain histogram, and a critical-path
// lower bound.  The bound is the span argument run backwards: wall time
// during which at most ONE worker was inside a task span could not have
// been parallelized, so summing it lower-bounds T_inf, and
// T_p >= max(busy / p, critical_path).  Pure analysis, so it compiles in
// both obs flavours (LLPMST_OBS=0 yields has_events == false).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/recorder.hpp"

namespace llpmst::obs {

struct WorkerBreakdown {
  std::uint32_t worker = 0;
  std::uint64_t busy_us = 0;   // summed task spans
  std::uint64_t idle_us = 0;   // summed idle spans (steal-loop waits)
  std::uint64_t tasks = 0;     // task spans recorded
  std::uint64_t steal_attempts = 0;   // failed probes + successes
  std::uint64_t steal_successes = 0;
};

struct SchedulerSummary {
  bool has_events = false;
  /// sum(busy) / (span * workers); in [0, 1] whenever has_events (0 only
  /// when events exist but no task span does, e.g. a single-thread run
  /// that recorded nothing beyond grain decisions).
  double utilization = 0.0;
  /// successes / (failed probes + successes); 0 when no steals happened.
  double steal_success_rate = 0.0;
  std::uint64_t span_us = 0;  // first event start to last event end
  std::uint64_t busy_us = 0;
  std::uint64_t idle_us = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t steal_successes = 0;
  /// Lower bound on the critical path: time with <= 1 worker busy.
  std::uint64_t critical_path_us = 0;
  std::uint64_t dropped_events = 0;
  std::vector<WorkerBreakdown> workers;  // sorted by worker id
  /// (grain value bucketed to its power of two, decision count), sorted.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> grain_hist;
};

/// Pure analysis of a snapshot (unit-testable on synthetic events).
[[nodiscard]] SchedulerSummary analyze_sched(const SchedSnapshot& snap);

/// snapshot_sched_events() + analyze_sched: the current scope's summary.
[[nodiscard]] SchedulerSummary scheduler_summary();

}  // namespace llpmst::obs
