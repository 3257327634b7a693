// Named counters and gauges, the runtime gates, warnings, and run scopes
// (docs/observability.md has the recording model).
//
//   * A Counter is one relaxed atomic, the process-wide value /stats and
//     snapshot_metrics() read.  Every call site is cold (per run or per
//     request, after a mutex-guarded name lookup).  While enabled(), an add
//     also lands in the calling thread's log for its current run scope —
//     what a run report's "counters" section reads (obs/recorder.hpp).
//   * `-DLLPMST_OBS=0` turns Counter/Gauge/PhaseTimer into empty classes
//     and every recording function into an inline no-op (tests
//     static-assert the classes are empty).
//   * Every record carries the run scope current on the recording thread:
//     the default scope, or a RunScope's (llpmstd: one per query).  Views
//     read the calling thread's current scope only.  Scopes exist in both
//     flavours because warnings are scoped too.
//
// Naming convention: `<subsystem>/<event>` with '/' separators, e.g.
// "llp_prim_parallel/mwe_early_fix", "boruvka/rounds".  Phase paths nest the
// same way ("llp_prim_parallel/heap_flush").
#pragma once

#ifndef LLPMST_OBS
#define LLPMST_OBS 1
#endif

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#if LLPMST_OBS
#include <atomic>
#endif

namespace llpmst::obs {

/// True when the library was compiled with observability support.
inline constexpr bool kCompiledIn = LLPMST_OBS != 0;

/// One aggregated metric value, as returned by snapshot_metrics().
struct MetricSample {
  std::string name;
  std::uint64_t value = 0;
  bool is_gauge = false;
};

/// One aggregated phase, as returned by snapshot_phases().  `name` is the
/// full nested path ("llp_prim_parallel/heap_flush").
struct PhaseSample {
  std::string name;
  std::uint64_t count = 0;     // completed PhaseTimer scopes
  std::uint64_t total_us = 0;  // summed wall time
};

/// Opens a fresh run scope on the calling thread for its lifetime: what
/// the thread records from here on (and what the teams it dispatches
/// record, see Executor::run_team) carries the new id, and views read on
/// this thread see only it.  The destructor discards the scope's records
/// and restores the previous scope, so build the report inside it.
class RunScope {
 public:
  RunScope();
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

 private:
  std::uint32_t id_;
  std::uint32_t prev_;
};

namespace detail {
/// The calling thread's current scope id (a plain thread-local read; the
/// process's default scope, which tools and benches record into, is 1).
[[nodiscard]] std::uint32_t current_scope();
void set_current_scope(std::uint32_t scope);
}  // namespace detail

#if LLPMST_OBS

/// The runtime gates, one bit each in a single word so that "is anything
/// recording" is one relaxed load (Executor::run_team checks it).
namespace detail {
enum Gate : std::uint32_t {
  kGatePhases = 1,  // enabled(): phase aggregates, rounds, scope metrics
  kGateStack = 2,   // phase_stack_enabled(): the profiler's phase stack
  kGateSched = 4,   // sched_collecting()
  kGateTrace = 8,   // trace_collecting()
};
inline std::atomic<std::uint32_t> g_gates{0};
[[nodiscard]] inline std::uint32_t gates() {
  return g_gates.load(std::memory_order_relaxed);
}
void set_gate(Gate gate, bool on);
/// Folds a counter add / gauge write into the calling thread's log for its
/// current scope (only called while enabled()).
enum class MetricOp : std::uint8_t { kAdd, kSet, kMax };
void scope_metric_set(std::uint32_t id, std::uint64_t value, MetricOp op);
}  // namespace detail

/// Runtime switch for phase timers, round records and per-scope metrics
/// (process-wide counter values stay live regardless).
[[nodiscard]] inline bool enabled() {
  return (detail::gates() & detail::kGatePhases) != 0;
}
inline void set_enabled(bool on) { detail::set_gate(detail::kGatePhases, on); }

/// Runtime switch for maintaining the per-thread phase *stack* alone —
/// what the sampling profiler (obs/profiler.hpp) reads for attribution —
/// without the timing aggregates or trace spans that full `enabled()` mode
/// records on every PhaseTimer exit.  Cost per scope in this mode: an
/// interned-id lookup and two stores, no clock reads.  Independent of
/// set_enabled(); PhaseTimer maintains the stack when either gate is on.
[[nodiscard]] inline bool phase_stack_enabled() {
  return (detail::gates() & detail::kGateStack) != 0;
}
inline void set_phase_stack_enabled(bool on) {
  detail::set_gate(detail::kGateStack, on);
}

/// A named metric: one process-wide relaxed atomic, plus a per-scope copy
/// while enabled().
class Metric {
 public:
  explicit Metric(std::uint32_t id) : id_(id) {}
  Metric(const Metric&) = delete;
  Metric& operator=(const Metric&) = delete;

  /// The process-wide value.
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }
  [[nodiscard]] std::uint32_t id() const { return id_; }

 protected:
  std::uint32_t id_;
  std::atomic<std::uint64_t> value_{0};
};

class Counter : public Metric {
 public:
  using Metric::Metric;
  void add(std::uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
    if (enabled()) detail::scope_metric_set(id_, delta, detail::MetricOp::kAdd);
  }
  void increment() { add(1); }
};

/// Last-write-wins, set from coordinator code.
class Gauge : public Metric {
 public:
  using Metric::Metric;
  void set(std::uint64_t v) {
    value_.store(v, std::memory_order_relaxed);
    if (enabled()) detail::scope_metric_set(id_, v, detail::MetricOp::kSet);
  }
  /// Raise-only update, for high-water marks.
  void set_max(std::uint64_t v);
};

#else  // !LLPMST_OBS — every recorder is an empty no-op.

[[nodiscard]] inline bool enabled() { return false; }
inline void set_enabled(bool) {}
[[nodiscard]] inline bool phase_stack_enabled() { return false; }
inline void set_phase_stack_enabled(bool) {}

class Counter {
 public:
  void add(std::uint64_t) {}
  void increment() {}
  [[nodiscard]] std::uint64_t value() const { return 0; }
  void reset() {}
};

class Gauge {
 public:
  void set(std::uint64_t) {}
  void set_max(std::uint64_t) {}
  [[nodiscard]] std::uint64_t value() const { return 0; }
  void reset() {}
};

#endif  // LLPMST_OBS

/// Get-or-create a named metric in the process-wide registry.  Cold path
/// (mutex + hash lookup): call once and keep the reference when the metric
/// is hot.  The returned reference lives for the process lifetime.  When
/// observability is compiled out both return a shared dummy.
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);

/// All registered metrics with their process-wide values, sorted by name
/// (what /stats serves).  Empty when compiled out.
[[nodiscard]] std::vector<MetricSample> snapshot_metrics();
/// The metrics recorded in the calling thread's current scope, sorted by
/// name (what a run report's counters/gauges sections hold): counter adds
/// summed over threads, each gauge's largest last-written value.
[[nodiscard]] std::vector<MetricSample> snapshot_scope_metrics();

/// Zeroes all counters/gauges and discards everything the current scope
/// recorded (the registry entries persist so cached references stay
/// valid).  A coordinator call: no team region may be in flight.
void reset_metrics();

/// Warnings are always compiled in — they surface correctness-adjacent
/// conditions (e.g. an LLP sweep cap hit) into reports regardless of the
/// obs build flavour.  They belong to the calling thread's current scope.
void add_warning(std::string message);
[[nodiscard]] std::vector<std::string> snapshot_warnings();
void clear_warnings();

/// Microseconds since the process-wide observability epoch (first use);
/// the time base for phase spans and trace events.
[[nodiscard]] std::uint64_t now_us();

/// Escapes and double-quotes a string for JSON output ("ab\"c" -> "\"ab\\\"c\"").
[[nodiscard]] std::string json_quote(std::string_view s);

/// Writes `content` to `path` (every artifact writer uses it).  Returns
/// false and sets *error on I/O failure.
bool write_file(const std::string& path, const std::string& content,
                std::string* error);

}  // namespace llpmst::obs
