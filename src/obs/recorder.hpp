// The recorder: one per-thread log that every observability record lands
// in, and the views that read it back one run scope at a time (the
// recording model is described in docs/observability.md).
//
// A thread's log keeps one segment per run scope it recorded into, with
// exact aggregates (per phase path and per metric) and fixed-size POD raw
// records (trace spans and samples, rounds, scheduler events) up to a
// per-kind capacity; what does not fit is counted as dropped.  Phase names
// are interned into small integer ids, so PhaseTimer exit, record_round
// and sched_record build no string and take no mutex.
//
// Only the owning thread writes its segments; views may run concurrently
// with writers to other scopes.  The discarding calls — reset_metrics(),
// sched_start(), trace_start() — are coordinator calls: nothing else may
// record into or read the current scope meanwhile.  Under LLPMST_OBS=0
// every function here is an inline no-op and every view returns empty.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace llpmst::obs {

/// One round of an iterative solver: llp_solve sweeps and Boruvka
/// contraction rounds each record one.  LLP-Prim-parallel records one per
/// run and log2 frontier-size class k instead (round = k, edges = its
/// super-steps, advances = the vertices they fixed, components = the steps
/// a team ran, wall_ms = those steps' time).  Sites fill what they can
/// measure and leave the rest 0.
struct RoundRecord {
  /// Recording site ("llp_boruvka", ...).  Left empty, the round is
  /// labelled with the recording thread's phase path, so generic code
  /// (llp_solve) inherits its caller's attribution.  In snapshot_rounds()
  /// output it views the interned name.
  std::string_view label;
  std::uint64_t round = 0;       // 1-based round / sweep index
  std::uint64_t components = 0;  // components remaining
  std::uint64_t edges = 0;       // edges surviving
  std::uint64_t advances = 0;    // forbidden-state advances or edges emitted
  double wall_ms = 0.0;          // wall time of this round
};

enum class SchedEventKind : std::uint8_t {
  /// Span: one worker's share of a team region; value = duration in us.
  kTask = 0,
  /// Point: parallel_for_adaptive dispatched a team; value = chosen grain.
  kGrain = 1,
  /// Point: parallel_for_adaptive ran inline (predicted cost below the
  /// serial cutoff); value = range size.
  kGrainSerial = 2,
};

struct SchedEvent {
  SchedEventKind kind = SchedEventKind::kTask;
  std::uint32_t worker = 0;  // shard id of the recording thread
  std::uint64_t ts_us = 0;   // span start (spans) / event time (points)
  std::uint64_t value = 0;   // duration, grain or range size (see kind)
};

struct SchedSnapshot {
  /// Grouped by worker; time-ordered within each worker's run of events.
  std::vector<SchedEvent> events;
  /// Events dropped at the per-thread capacity since sched_start().
  std::uint64_t dropped = 0;
};

/// Raw-record capacities per thread and scope.
inline constexpr std::uint64_t kMaxTraceRecords = 1u << 20;  // spans, samples
inline constexpr std::uint64_t kMaxRoundRecords = 4096;
inline constexpr std::uint64_t kMaxSchedEvents = 1u << 14;

#if LLPMST_OBS

/// Small dense id for the calling thread (its log's index): the trace
/// `tid` and the scheduler `worker`.  An exited thread's id is reused.
[[nodiscard]] std::size_t shard_id();

/// Appends one round (no-op while obs::enabled() is false).
void record_round(const RoundRecord& r);
/// The current scope's rounds, per thread in recording order.
[[nodiscard]] std::vector<RoundRecord> snapshot_rounds();

/// The current scope's phase aggregates, summed over threads, sorted by
/// path.
[[nodiscard]] std::vector<PhaseSample> snapshot_phases();

[[nodiscard]] inline bool sched_collecting() {
  return (detail::gates() & detail::kGateSched) != 0;
}
/// Discards the current scope's scheduler events and begins collecting.
void sched_start();
void sched_stop();
/// Appends one scheduler event (no-op unless collecting).
void sched_record(SchedEventKind kind, std::uint64_t ts_us,
                  std::uint64_t value);
[[nodiscard]] SchedSnapshot snapshot_sched_events();

[[nodiscard]] inline bool trace_collecting() {
  return (detail::gates() & detail::kGateTrace) != 0;
}
/// Discards the current scope's trace spans and samples and begins
/// collecting: from here every PhaseTimer exit and team-region share is
/// also a span.
void trace_start();
void trace_stop();
/// Appends a counter-track sample (no-op unless collecting).
void trace_emit_counter(std::string_view name, std::uint64_t ts_us,
                        std::uint64_t value);

namespace detail {

enum class RecordKind : std::uint8_t { kSpan, kSample, kRound, kSched };
inline constexpr int kNumRecordKinds = 4;
[[nodiscard]] constexpr unsigned kind_bit(RecordKind k) {
  return 1u << static_cast<unsigned>(k);
}

/// One raw record.  `node` is the interned name (span, sample, round
/// label); `v` holds the kind's payload: the duration (span), the value
/// (sample, sched), or components/edges/advances/wall_ms (round, the
/// double bit-cast).  For rounds `ts_us` holds the round index.
struct Record {
  RecordKind kind = RecordKind::kSpan;
  std::uint8_t sched = 0;  // SchedEventKind for kSched
  std::uint32_t node = 0;
  std::uint64_t ts_us = 0;
  std::uint64_t v[4] = {};
};

/// Calls fn(shard id, record) for the current scope's records whose kind
/// bit is in `kinds`, thread by thread in recording order.
void visit_records(unsigned kinds,
                   const std::function<void(std::uint32_t, const Record&)>& fn);
/// Records of `kind` the current scope dropped at capacity.
[[nodiscard]] std::uint64_t dropped_records(RecordKind kind);

/// The interned path of `node` ("" for 0), components joined by '/' or,
/// with `sep` ';', as folded stacks spell it.
[[nodiscard]] std::string node_path(std::uint32_t node, char sep = '/');
/// The interned id of `name` under `parent` (0 = top level); cold.
[[nodiscard]] std::uint32_t intern(std::uint32_t parent, std::string_view name);

/// Marks a closed scope's segments for their owners to free.
void close_scope(std::uint32_t scope);
/// Zeroes the current scope's aggregates and drops its raw records
/// (reset_metrics(); a coordinator call).
void reset_scope();
/// Every registered counter/gauge with its metric id and process-wide
/// value, sorted by name (metrics.cpp).
[[nodiscard]] std::vector<std::pair<std::uint32_t, MetricSample>>
registered_metrics();

/// Frames deeper than this are counted but not stored (real nesting ~4).
inline constexpr std::size_t kMaxPhaseDepth = 16;

/// The per-thread stack of live PhaseTimer nodes, laid out so the sampling
/// profiler's signal handler can read it asynchronously on the owning
/// thread: `frames[i]` is written *before* `depth` publishes it (release
/// store), and pop only moves `depth` down.  Every frame is an interned
/// node id, so the top frame alone names the whole path.
struct PhaseStack {
  std::uint32_t frames[kMaxPhaseDepth] = {};
  std::atomic<std::uint32_t> depth{0};
};

/// The calling thread's phase stack (stable for the thread's lifetime).
[[nodiscard]] PhaseStack& phase_stack();
/// The path of the PhaseTimers live on the calling thread ("" outside any
/// phase).  Used by ScopedHwCounters for attribution.
[[nodiscard]] std::string phase_path();

/// PhaseTimer support: push returns the frame's node; pop folds the
/// elapsed time into the current scope (and the trace, if collecting);
/// pop_fast only pops (the stack-only mode).
[[nodiscard]] std::uint32_t phase_push(const char* name);
void phase_pop(std::uint32_t node, std::uint64_t start_us);
void phase_pop_fast();

/// What a team region carries from its submitter into every worker: the
/// run scope, the submitter's innermost phase node, and its log (so the
/// submitter's own share installs nothing).
struct RegionContext {
  std::uint32_t scope = 0;
  std::uint32_t node = 0;
  const void* origin = nullptr;
};
[[nodiscard]] RegionContext region_context();

/// One worker's share of a region: installs the carried scope and phase
/// node for its lifetime, and records the share as a "pool/region" span
/// and a scheduler task event when those are collecting.
class RegionWorker {
 public:
  explicit RegionWorker(const RegionContext& ctx);
  ~RegionWorker();
  RegionWorker(const RegionWorker&) = delete;
  RegionWorker& operator=(const RegionWorker&) = delete;

 private:
  std::uint32_t prev_scope_ = 0;
  std::uint32_t prev_depth_ = 0;
  bool installed_ = false;
  bool timed_ = false;
  std::uint64_t t0_ = 0;
};

}  // namespace detail

#else  // !LLPMST_OBS — the whole recorder folds away.

inline void record_round(const RoundRecord&) {}
[[nodiscard]] inline std::vector<RoundRecord> snapshot_rounds() { return {}; }
[[nodiscard]] inline std::vector<PhaseSample> snapshot_phases() { return {}; }
[[nodiscard]] inline bool sched_collecting() { return false; }
inline void sched_start() {}
inline void sched_stop() {}
inline void sched_record(SchedEventKind, std::uint64_t, std::uint64_t) {}
[[nodiscard]] inline SchedSnapshot snapshot_sched_events() { return {}; }
[[nodiscard]] inline bool trace_collecting() { return false; }
inline void trace_start() {}
inline void trace_stop() {}
inline void trace_emit_counter(std::string_view, std::uint64_t,
                               std::uint64_t) {}

#endif  // LLPMST_OBS

}  // namespace llpmst::obs
