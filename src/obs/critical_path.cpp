#include "obs/critical_path.hpp"

#include <algorithm>
#include <map>

namespace llpmst::obs {

namespace {

/// Largest power of two <= v (v >= 1): the grain histogram bucket key.
std::uint64_t pow2_floor(std::uint64_t v) {
  std::uint64_t p = 1;
  while ((p << 1) != 0 && (p << 1) <= v) p <<= 1;
  return p;
}

}  // namespace

SchedulerSummary analyze_sched(const SchedSnapshot& snap) {
  SchedulerSummary sum;
  sum.dropped_events = snap.dropped;
  if (snap.events.empty()) return sum;
  sum.has_events = true;

  std::map<std::uint32_t, WorkerBreakdown> workers;
  std::map<std::uint64_t, std::uint64_t> grains;
  // Busy-interval boundaries for the critical-path sweep: (+1 at a task
  // span's start, -1 at its end).
  std::vector<std::pair<std::uint64_t, int>> edges;
  std::uint64_t t_min = UINT64_MAX, t_max = 0;

  for (const SchedEvent& e : snap.events) {
    WorkerBreakdown& w = workers[e.worker];
    w.worker = e.worker;
    t_min = std::min(t_min, e.ts_us);
    t_max = std::max(t_max, e.ts_us);
    switch (e.kind) {
      case SchedEventKind::kTask:
        w.busy_us += e.value;
        ++w.tasks;
        t_max = std::max(t_max, e.ts_us + e.value);
        edges.emplace_back(e.ts_us, +1);
        edges.emplace_back(e.ts_us + e.value, -1);
        break;
      case SchedEventKind::kIdle:
        w.idle_us += e.value;
        t_max = std::max(t_max, e.ts_us + e.value);
        break;
      case SchedEventKind::kStealAttempt:
        w.steal_attempts += e.value;
        break;
      case SchedEventKind::kStealSuccess:
        w.steal_attempts += e.value;
        w.steal_successes += e.value;
        break;
      case SchedEventKind::kGrain:
        ++grains[pow2_floor(std::max<std::uint64_t>(e.value, 1))];
        break;
      case SchedEventKind::kGrainSerial:
        ++grains[0];  // bucket 0 = "ran inline"
        break;
    }
  }

  sum.span_us = t_max - t_min;
  for (auto& [id, w] : workers) {
    sum.busy_us += w.busy_us;
    sum.idle_us += w.idle_us;
    sum.steal_attempts += w.steal_attempts;
    sum.steal_successes += w.steal_successes;
    sum.workers.push_back(w);
  }
  for (const auto& [bucket, count] : grains) {
    sum.grain_hist.emplace_back(bucket, count);
  }

  const double denom = static_cast<double>(sum.span_us) *
                       static_cast<double>(sum.workers.size());
  // Point events only (span 0): call the moment fully utilized rather than
  // divide by zero — it still satisfies the (0, 1] contract.
  sum.utilization =
      denom > 0.0
          ? std::min(1.0, static_cast<double>(sum.busy_us) / denom)
          : 1.0;
  if (sum.steal_attempts > 0) {
    sum.steal_success_rate = static_cast<double>(sum.steal_successes) /
                             static_cast<double>(sum.steal_attempts);
  }

  // Critical-path sweep: walk the merged busy-interval boundaries and sum
  // the stretches where fewer than two workers were busy.  Per-worker task
  // spans never overlap themselves (regions are not reentrant), so the
  // running count is exactly "workers busy now".
  std::sort(edges.begin(), edges.end());
  int busy_now = 0;
  std::uint64_t prev = t_min;
  std::size_t i = 0;
  while (i < edges.size()) {
    const std::uint64_t t = edges[i].first;
    if (t > prev && busy_now <= 1) sum.critical_path_us += t - prev;
    // Apply every boundary at time t before measuring the next stretch.
    for (; i < edges.size() && edges[i].first == t; ++i) {
      busy_now += edges[i].second;
    }
    prev = t;
  }
  if (t_max > prev && busy_now <= 1) sum.critical_path_us += t_max - prev;

  return sum;
}

SchedulerSummary scheduler_summary() {
  return analyze_sched(snapshot_sched_events());
}

}  // namespace llpmst::obs
