// The observability layer: counters under a real worker team, nested phase
// paths (also across team regions), trace JSON well-formedness, run scopes,
// the run report document, and the compiled-out no-op contract.
//
// This file must compile (and pass) under both LLPMST_OBS=1 and
// LLPMST_OBS=0 — CI builds the disabled flavour to keep the no-op branch
// honest.  Tests that measure real recording guard on obs::kCompiledIn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <ctime>

#include "mst/mst_result.hpp"
#include "obs/bandwidth.hpp"
#include "obs/critical_path.hpp"
#include "obs/exposition.hpp"
#include "obs/hw_counters.hpp"
#include "obs/mem_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/sim_executor.hpp"

namespace llpmst {
namespace {

// --- The compile-time contract. ---------------------------------------
static_assert(obs::kCompiledIn == (LLPMST_OBS != 0));
#if !LLPMST_OBS
// The disabled build must make every recorder an empty object so that
// instrumented call sites carry no storage and fold to nothing.
static_assert(std::is_empty_v<obs::Counter>);
static_assert(std::is_empty_v<obs::Gauge>);
static_assert(std::is_empty_v<obs::PhaseTimer>);
static_assert(std::is_empty_v<obs::ScopedHwCounters>);
#endif

/// Minimal JSON well-formedness check: balanced {}/[] outside strings,
/// nothing after the top-level value.  Not a full parser, but enough to
/// catch the classic serializer bugs (trailing commas are caught by the
/// stricter python -m json.tool pass in CI).
bool json_balanced(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        if (stack.empty()) {
          // Only whitespace may follow the top-level value.
          for (std::size_t j = i + 1; j < s.size(); ++j) {
            if (s[j] != ' ' && s[j] != '\n' && s[j] != '\t' &&
                s[j] != '\r') {
              return false;
            }
          }
          return true;
        }
        break;
      default: break;
    }
  }
  return false;  // unterminated string or never closed
}

std::uint64_t find_counter(const std::vector<obs::MetricSample>& samples,
                           const std::string& name) {
  for (const auto& s : samples) {
    if (s.name == name && !s.is_gauge) return s.value;
  }
  return 0;
}

const obs::PhaseSample* find_phase(
    const std::vector<obs::PhaseSample>& phases, const std::string& name) {
  for (const auto& p : phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

TEST(ObsCounter, AggregatesAcrossTeamWorkers) {
  obs::reset_metrics();
  obs::Counter& c = obs::counter("test/team_adds");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kAddsPerWorker = 10000;
  ThreadPool pool(kThreads);
  pool.run_team([&](std::size_t) {
    for (std::uint64_t i = 0; i < kAddsPerWorker; ++i) c.increment();
  });
  if constexpr (obs::kCompiledIn) {
    // Every worker's shard must be folded into the aggregate — a lost
    // shard here would mean shard_id() handed two threads the same slot
    // index with non-atomic writes (the slots are atomic, so even shared
    // slots must not lose counts).
    EXPECT_EQ(c.value(), kThreads * kAddsPerWorker);
    EXPECT_EQ(find_counter(obs::snapshot_metrics(), "test/team_adds"),
              kThreads * kAddsPerWorker);
  } else {
    EXPECT_EQ(c.value(), 0u);
    EXPECT_TRUE(obs::snapshot_metrics().empty());
  }
}

TEST(ObsCounter, ResetZeroesButKeepsRegistration) {
  obs::reset_metrics();
  obs::Counter& c = obs::counter("test/resettable");
  c.add(41);
  obs::reset_metrics();
  c.increment();  // the cached reference must survive the reset
  if constexpr (obs::kCompiledIn) {
    EXPECT_EQ(c.value(), 1u);
  }
}

TEST(ObsGauge, SetMaxIsRaiseOnly) {
  obs::reset_metrics();
  obs::Gauge& g = obs::gauge("test/high_water");
  g.set_max(7);
  g.set_max(3);
  if constexpr (obs::kCompiledIn) {
    EXPECT_EQ(g.value(), 7u);
    g.set(2);  // plain set may lower
    EXPECT_EQ(g.value(), 2u);
  }
}

TEST(ObsPhaseTimer, NestedScopesProduceJoinedPaths) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::reset_metrics();
  obs::set_enabled(true);
  {
    obs::PhaseTimer outer("outer");
    {
      obs::PhaseTimer inner("inner");
    }
    {
      obs::PhaseTimer inner("inner");
    }
  }
  obs::set_enabled(false);
  const auto phases = obs::snapshot_phases();
  const obs::PhaseSample* outer = find_phase(phases, "outer");
  const obs::PhaseSample* inner = find_phase(phases, "outer/inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(inner->count, 2u);
  // The child's time is a subset of the parent's.
  EXPECT_LE(inner->total_us, outer->total_us);
  EXPECT_EQ(find_phase(phases, "inner"), nullptr)
      << "nested phase leaked out of its parent path";
}

TEST(ObsPhaseTimer, DisabledAtRuntimeRecordsNothing) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::reset_metrics();
  obs::set_enabled(false);
  {
    obs::PhaseTimer t("should_not_appear");
  }
  EXPECT_EQ(find_phase(obs::snapshot_phases(), "should_not_appear"),
            nullptr);
}

/// Submits one team region under PhaseTimer("outer") whose every worker
/// opens PhaseTimer("inner"), and returns the phases recorded.
std::vector<obs::PhaseSample> inner_phase_on_every_worker(Executor& exec) {
  obs::reset_metrics();
  obs::set_enabled(true);
  {
    obs::PhaseTimer outer("outer");
    exec.run_team([](std::size_t) { obs::PhaseTimer inner("inner"); });
  }
  obs::set_enabled(false);
  return obs::snapshot_phases();
}

TEST(ObsPhaseTimer, TeamWorkersNestUnderTheSubmittersPhaseOnAPool) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  ThreadPool pool(4);
  const auto phases = inner_phase_on_every_worker(pool);
  const obs::PhaseSample* inner = find_phase(phases, "outer/inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 4u);
  EXPECT_EQ(find_phase(phases, "inner"), nullptr)
      << "a worker's phase lost the submitter's path";
}

TEST(ObsPhaseTimer, TeamWorkersNestUnderTheSubmittersPhaseUnderSim) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  sim::SimExecutor::Options options;
  options.seed = 11;
  options.workers = 4;
  sim::SimExecutor exec(options);
  const auto phases = inner_phase_on_every_worker(exec);
  const obs::PhaseSample* inner = find_phase(phases, "outer/inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 4u);
  EXPECT_EQ(find_phase(phases, "inner"), nullptr);
}

TEST(ObsRunScope, ViewsReadOneScopeAndAClosedScopeLeavesNothing) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::reset_metrics();
  obs::clear_warnings();
  obs::set_enabled(true);
  { obs::PhaseTimer t("outside"); }
  {
    obs::RunScope scope;
    EXPECT_TRUE(obs::snapshot_phases().empty());
    ThreadPool pool(2);
    pool.run_team([](std::size_t) { obs::PhaseTimer t("inside"); });
    obs::counter("test/scoped").add(3);
    obs::add_warning("scoped warning");
    const auto phases = obs::snapshot_phases();
    ASSERT_EQ(phases.size(), 1u);
    EXPECT_EQ(phases[0].name, "inside");
    EXPECT_EQ(phases[0].count, 2u);
    EXPECT_EQ(find_counter(obs::snapshot_scope_metrics(), "test/scoped"), 3u);
    EXPECT_EQ(obs::snapshot_warnings().size(), 1u);
  }
  obs::set_enabled(false);
  // Back in the default scope: only what it recorded itself.
  const auto phases = obs::snapshot_phases();
  EXPECT_NE(find_phase(phases, "outside"), nullptr);
  EXPECT_EQ(find_phase(phases, "inside"), nullptr);
  EXPECT_TRUE(obs::snapshot_warnings().empty());
  EXPECT_EQ(find_counter(obs::snapshot_scope_metrics(), "test/scoped"), 0u);
  // The process-wide value still counts every scope.
  EXPECT_EQ(find_counter(obs::snapshot_metrics(), "test/scoped"), 3u);
}

TEST(ObsTrace, JsonIsWellFormedAndRoundTrips) {
  obs::reset_metrics();
  obs::set_enabled(true);
  obs::trace_start();
  {
    obs::PhaseTimer t("trace_span");
  }
  obs::trace_emit_counter("trace_counter", obs::now_us(), 42);
  obs::trace_stop();
  obs::set_enabled(false);

  const std::string json = obs::trace_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  if constexpr (obs::kCompiledIn) {
    EXPECT_GE(obs::trace_event_count(), 2u);
    EXPECT_NE(json.find("\"trace_span\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"trace_counter\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  } else {
    // The disabled build still serializes a valid (empty) document.
    EXPECT_EQ(obs::trace_event_count(), 0u);
  }
}

TEST(ObsTrace, StartClearsPreviousEvents) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::trace_start();
  obs::trace_emit_counter("stale", obs::now_us(), 1);
  obs::trace_stop();
  obs::trace_start();
  obs::trace_stop();
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST(ObsWarnings, RecordedRegardlessOfBuildFlavour) {
  obs::clear_warnings();
  obs::add_warning("something looked off");
  const auto warnings = obs::snapshot_warnings();
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0], "something looked off");
  obs::clear_warnings();
  EXPECT_TRUE(obs::snapshot_warnings().empty());
}

TEST(ObsReport, DocumentIsWellFormedWithAndWithoutAlgoStats) {
  obs::reset_metrics();
  obs::clear_warnings();
  obs::RunInfo info;
  info.tool = "test_obs";
  info.algorithm = "llp-prim";
  info.threads = 4;
  info.vertices = 100;
  info.edges = 250;
  info.wall_ms = 1.5;

  const std::string bare = obs::build_run_report(info, nullptr);
  EXPECT_TRUE(json_balanced(bare)) << bare;
  EXPECT_NE(bare.find("\"schema\":\"llpmst-run-report\""),
            std::string::npos);
  EXPECT_NE(bare.find("\"algo\":null"), std::string::npos);

  MstAlgoStats stats;
  stats.heap.pushes = 12;
  stats.fixed_via_mwe = 34;
  stats.llp_sweeps = 5;
  const std::string full = obs::build_run_report(info, &stats);
  EXPECT_TRUE(json_balanced(full)) << full;
  EXPECT_NE(full.find("\"heap\""), std::string::npos);
  EXPECT_NE(full.find("\"llp\""), std::string::npos);
  EXPECT_NE(full.find("\"tool\":\"test_obs\""), std::string::npos);
}

TEST(ObsReport, NonConvergenceSurfacesAsWarningAndCounter) {
  obs::reset_metrics();
  obs::clear_warnings();
  MstAlgoStats stats;
  stats.llp_converged = false;
  record_algo_metrics("test_algo", stats);
  if constexpr (obs::kCompiledIn) {
    EXPECT_EQ(find_counter(obs::snapshot_metrics(),
                           "test_algo/non_convergence"),
              1u);
    const auto warnings = obs::snapshot_warnings();
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("test_algo"), std::string::npos);
  }
  obs::clear_warnings();
}

TEST(ObsReport, JsonQuoteEscapes) {
  EXPECT_EQ(obs::json_quote("plain"), "\"plain\"");
  EXPECT_EQ(obs::json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(obs::json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(obs::json_quote("a\nb"), "\"a\\nb\"");
}

// --- Hardware counters (schema v2 "hw" section). ----------------------

obs::RunInfo test_run_info() {
  obs::RunInfo info;
  info.tool = "test_obs";
  info.algorithm = "llp-prim";
  info.threads = 1;
  info.vertices = 10;
  info.edges = 20;
  info.wall_ms = 0.5;
  return info;
}

TEST(ObsHwCounters, DegradesToExplicitUnavailableWhenDenied) {
  // Compiled-out builds refuse unconditionally; compiled-in builds are
  // forced onto the denial path — either way hw_begin must fail softly
  // with a reason, and the report must carry the explicit shape.
  obs::hw_force_unavailable(true);
  std::string why;
  EXPECT_FALSE(obs::hw_begin(&why));
  EXPECT_FALSE(why.empty());
  EXPECT_FALSE(obs::hw_active());

  const obs::HwSample s = obs::hw_read();
  EXPECT_FALSE(s.available);
  EXPECT_FALSE(s.unavailable_reason.empty());

  const std::string report =
      obs::build_run_report(test_run_info(), nullptr, &s);
  EXPECT_TRUE(json_balanced(report)) << report;
  EXPECT_NE(report.find("\"hw\":{\"available\":false"), std::string::npos)
      << report;
  obs::hw_force_unavailable(false);
}

TEST(ObsHwCounters, BeginDoesNotThrowAndReadsWhenAvailable) {
  // On bare metal the group opens and counts must be live; in containers
  // and VMs without a PMU it must refuse with a reason.  Both outcomes
  // are correct — the contract is "never fail the run".
  std::string why;
  const bool ok = obs::hw_begin(&why);
  if (!ok) {
    EXPECT_FALSE(why.empty());
    GTEST_SKIP() << "hardware counters unavailable here: " << why;
  }
  EXPECT_TRUE(obs::hw_active());

  // Burn some cycles so the deltas are visibly non-zero.
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 2000000; ++i) sink += static_cast<std::uint64_t>(i);

  const obs::HwSample s = obs::hw_read();
  EXPECT_TRUE(s.available);
  ASSERT_NE(s.cycles, obs::kHwAbsent);
  EXPECT_GT(s.cycles, 0u);
  EXPECT_GT(s.multiplex_ratio, 0.0);
  EXPECT_LE(s.multiplex_ratio, 1.0);

  const std::string report =
      obs::build_run_report(test_run_info(), nullptr, &s);
  EXPECT_TRUE(json_balanced(report)) << report;
  EXPECT_NE(report.find("\"hw\":{\"available\":true"), std::string::npos)
      << report;
  obs::hw_end();
  EXPECT_FALSE(obs::hw_active());
}

TEST(ObsHwCounters, ScopedDeltasFoldIntoPhaseAggregates) {
  std::string why;
  if (!obs::hw_begin(&why)) {
    GTEST_SKIP() << "hardware counters unavailable here: " << why;
  }
  obs::hw_reset_phases();
  obs::set_enabled(true);
  {
    obs::PhaseTimer phase("hw_test_phase");
    obs::ScopedHwCounters scope("hw_test_label");
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 1000000; ++i) sink += static_cast<std::uint64_t>(i);
  }
  obs::set_enabled(false);
  const auto phases = obs::snapshot_hw_phases();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].name, "hw_test_phase");
  EXPECT_EQ(phases[0].count, 1u);
  EXPECT_GT(phases[0].totals.cycles, 0u);
  obs::hw_reset_phases();
  obs::hw_end();
}

// --- Memory stats (schema v2 "mem" section). --------------------------

TEST(ObsMemStats, PeakRssIsPositiveAndMonotonic) {
  const obs::MemSample before = obs::mem_sample();
  EXPECT_GT(before.peak_rss_bytes, 0u) << "getrusage reported no peak RSS";

  // Touch a real allocation so the high-water mark cannot shrink.
  std::vector<char> block(1 << 20, 1);
  EXPECT_NE(block[1 << 19], 0);

  const obs::MemSample after = obs::mem_sample();
  EXPECT_GE(after.peak_rss_bytes, before.peak_rss_bytes)
      << "peak RSS went backwards";
}

TEST(ObsMemStats, AllocationCountersGrowWhenCompiledIn) {
  const obs::MemSample before = obs::mem_sample();
  if constexpr (obs::kCompiledIn) {
    EXPECT_TRUE(before.alloc_tracking);
    // Escape the pointer so the allocation cannot be elided.
    auto* v = new std::vector<int>(1024, 7);
    EXPECT_EQ((*v)[512], 7);
    const obs::MemSample during = obs::mem_sample();
    EXPECT_GT(during.alloc_count, before.alloc_count);
    EXPECT_GT(during.alloc_bytes, before.alloc_bytes);
    delete v;
    const obs::MemSample after = obs::mem_sample();
    EXPECT_GT(after.free_count, before.free_count);
    // Cumulative counters never decrease.
    EXPECT_GE(after.alloc_count, during.alloc_count);
  } else {
    EXPECT_FALSE(before.alloc_tracking);
    EXPECT_EQ(before.alloc_count, 0u);
  }
}

// --- The v3 report document. ------------------------------------------

TEST(ObsReport, SchemaV4CarriesHwNullMemRoundsAndScheduler) {
  obs::reset_metrics();
  const std::string report =
      obs::build_run_report(test_run_info(), nullptr, nullptr);
  EXPECT_TRUE(json_balanced(report)) << report;
  EXPECT_NE(report.find("\"schema_version\":4"), std::string::npos);
  // --hw-counters not requested: hw must be JSON null, not omitted.
  EXPECT_NE(report.find("\"hw\":null"), std::string::npos) << report;
  EXPECT_NE(report.find("\"mem\":{\"peak_rss_bytes\":"), std::string::npos)
      << report;
  // v3: the rounds array and scheduler section are always present — empty
  // and null when nothing was collected, never omitted.
  EXPECT_NE(report.find("\"rounds\":["), std::string::npos) << report;
  EXPECT_NE(report.find("\"scheduler\":"), std::string::npos) << report;
  if constexpr (obs::kCompiledIn) {
    EXPECT_NE(report.find("\"alloc\":{\"count\":"), std::string::npos)
        << report;
  } else {
    EXPECT_NE(report.find("\"alloc\":null"), std::string::npos) << report;
  }
}

TEST(ObsReport, SchemaV3SerializesRecordedRounds) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::reset_metrics();
  obs::set_enabled(true);
  obs::RoundRecord r;
  r.label = "report_site";
  r.round = 7;
  r.components = 11;
  r.edges = 13;
  r.advances = 17;
  r.wall_ms = 0.25;
  r.imbalance = 1.5;
  obs::record_round(r);
  obs::set_enabled(false);
  const std::string report =
      obs::build_run_report(test_run_info(), nullptr, nullptr);
  EXPECT_TRUE(json_balanced(report)) << report;
  EXPECT_NE(report.find("\"label\":\"report_site\""), std::string::npos)
      << report;
  EXPECT_NE(report.find("\"round\":7"), std::string::npos) << report;
  EXPECT_NE(report.find("\"imbalance\":1.5"), std::string::npos) << report;
  obs::reset_metrics();
}

// --- Scheduler event rings (schema v3 "scheduler" section). -----------

TEST(ObsSchedEvents, RecordsOnlyWhileCollecting) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::sched_record(obs::SchedEventKind::kTask, 10, 5);  // before start
  obs::sched_start();
  EXPECT_TRUE(obs::sched_collecting());
  obs::sched_record(obs::SchedEventKind::kTask, 100, 40);
  obs::sched_record(obs::SchedEventKind::kStealSuccess, 150, 1);
  obs::sched_stop();
  EXPECT_FALSE(obs::sched_collecting());
  obs::sched_record(obs::SchedEventKind::kTask, 200, 5);  // after stop
  const obs::SchedSnapshot snap = obs::snapshot_sched_events();
  ASSERT_EQ(snap.events.size(), 2u)
      << "events recorded outside start/stop leaked into the ring";
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_EQ(snap.events[0].kind, obs::SchedEventKind::kTask);
  EXPECT_EQ(snap.events[0].ts_us, 100u);
  EXPECT_EQ(snap.events[0].value, 40u);
  EXPECT_EQ(snap.events[1].kind, obs::SchedEventKind::kStealSuccess);
  EXPECT_EQ(snap.events[1].ts_us, 150u);
  // Buffered events survive until the next start, which clears them.
  obs::sched_start();
  obs::sched_stop();
  EXPECT_TRUE(obs::snapshot_sched_events().events.empty());
}

TEST(ObsSchedEvents, DropOldestKeepsNewestAndCountsDrops) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  // The recorder's log is append-only: past the per-thread capacity it
  // keeps the events it has and counts the rest as dropped.
  obs::sched_start();
  const std::uint64_t extra = 100;
  const std::uint64_t total = obs::kMaxSchedEvents + extra;
  for (std::uint64_t i = 0; i < total; ++i) {
    obs::sched_record(obs::SchedEventKind::kTask, i, i);
  }
  obs::sched_stop();
  const obs::SchedSnapshot snap = obs::snapshot_sched_events();
  EXPECT_EQ(snap.events.size(), obs::kMaxSchedEvents);
  EXPECT_EQ(snap.dropped, extra);
  std::uint64_t min_ts = UINT64_MAX, max_ts = 0;
  for (const obs::SchedEvent& e : snap.events) {
    min_ts = std::min(min_ts, e.ts_us);
    max_ts = std::max(max_ts, e.ts_us);
  }
  EXPECT_EQ(min_ts, 0u);
  EXPECT_EQ(max_ts, obs::kMaxSchedEvents - 1);
  // The report states the drop count.
  const std::string report =
      obs::build_run_report(test_run_info(), nullptr, nullptr);
  EXPECT_NE(report.find("100 scheduler events dropped"), std::string::npos)
      << report;
  obs::sched_start();  // leave no bulk buffered for later tests
  obs::sched_stop();
}

// --- Critical-path analysis (pure, both flavours). --------------------

TEST(ObsCriticalPath, EmptySnapshotHasNoEvents) {
  const obs::SchedulerSummary sum = obs::analyze_sched({});
  EXPECT_FALSE(sum.has_events);
  EXPECT_EQ(sum.utilization, 0.0);
  EXPECT_TRUE(sum.workers.empty());
}

TEST(ObsCriticalPath, AnalyzesSyntheticTimeline) {
  obs::SchedSnapshot snap;
  auto add = [&snap](obs::SchedEventKind k, std::uint32_t w,
                     std::uint64_t ts, std::uint64_t v) {
    obs::SchedEvent e;
    e.kind = k;
    e.worker = w;
    e.ts_us = ts;
    e.value = v;
    snap.events.push_back(e);
  };
  // Worker 0 busy [0,100); worker 1 idles [0,50) then busy [50,150).
  add(obs::SchedEventKind::kTask, 0, 0, 100);
  add(obs::SchedEventKind::kIdle, 1, 0, 50);
  add(obs::SchedEventKind::kTask, 1, 50, 100);
  add(obs::SchedEventKind::kStealAttempt, 1, 50, 3);  // 3 failed probes
  add(obs::SchedEventKind::kStealSuccess, 1, 50, 1);
  add(obs::SchedEventKind::kGrain, 0, 10, 4096);
  add(obs::SchedEventKind::kGrain, 0, 20, 5000);  // same pow2 bucket
  add(obs::SchedEventKind::kGrainSerial, 0, 30, 64);
  snap.dropped = 2;

  const obs::SchedulerSummary sum = obs::analyze_sched(snap);
  EXPECT_TRUE(sum.has_events);
  EXPECT_EQ(sum.span_us, 150u);
  EXPECT_EQ(sum.busy_us, 200u);
  EXPECT_EQ(sum.idle_us, 50u);
  EXPECT_EQ(sum.dropped_events, 2u);
  EXPECT_NEAR(sum.utilization, 200.0 / (150.0 * 2.0), 1e-12);
  EXPECT_EQ(sum.steal_attempts, 4u);
  EXPECT_EQ(sum.steal_successes, 1u);
  EXPECT_DOUBLE_EQ(sum.steal_success_rate, 0.25);
  // Only [50,100) has both workers busy; the rest is critical path.
  EXPECT_EQ(sum.critical_path_us, 100u);
  ASSERT_EQ(sum.workers.size(), 2u);
  EXPECT_EQ(sum.workers[0].worker, 0u);
  EXPECT_EQ(sum.workers[0].busy_us, 100u);
  EXPECT_EQ(sum.workers[0].tasks, 1u);
  EXPECT_EQ(sum.workers[1].idle_us, 50u);
  EXPECT_EQ(sum.workers[1].steal_successes, 1u);
  // Grain histogram: bucket 0 = ran inline, 4096 holds both grain picks.
  ASSERT_EQ(sum.grain_hist.size(), 2u);
  EXPECT_EQ(sum.grain_hist[0], (std::pair<std::uint64_t, std::uint64_t>{
                                   0u, 1u}));
  EXPECT_EQ(sum.grain_hist[1], (std::pair<std::uint64_t, std::uint64_t>{
                                   4096u, 2u}));
}

TEST(ObsCriticalPath, PointOnlySnapshotCountsAsFullyUtilized) {
  obs::SchedSnapshot snap;
  obs::SchedEvent e;
  e.kind = obs::SchedEventKind::kStealSuccess;
  e.ts_us = 42;
  e.value = 1;
  snap.events.push_back(e);
  const obs::SchedulerSummary sum = obs::analyze_sched(snap);
  EXPECT_TRUE(sum.has_events);
  EXPECT_EQ(sum.span_us, 0u);
  // Zero span: defined as fully utilized, keeping the (0, 1] contract.
  EXPECT_DOUBLE_EQ(sum.utilization, 1.0);
}

// --- Per-round solver telemetry (schema v3 "rounds" array). -----------

TEST(ObsRounds, RecordSnapshotAndResetHonourTheEnabledGate) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::reset_metrics();
  obs::set_enabled(false);
  obs::RoundRecord gated;
  gated.label = "gated";
  obs::record_round(gated);
  EXPECT_TRUE(obs::snapshot_rounds().empty()) << "recorded while disabled";

  obs::set_enabled(true);
  obs::RoundRecord r;
  r.label = "test_site";
  r.round = 3;
  r.components = 17;
  r.edges = 99;
  r.advances = 5;
  r.wall_ms = 1.25;
  r.imbalance = 2.0;
  obs::record_round(r);
  obs::set_enabled(false);

  const std::vector<obs::RoundRecord> rounds = obs::snapshot_rounds();
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].label, "test_site");
  EXPECT_EQ(rounds[0].round, 3u);
  EXPECT_EQ(rounds[0].components, 17u);
  EXPECT_EQ(rounds[0].edges, 99u);
  EXPECT_EQ(rounds[0].advances, 5u);
  EXPECT_DOUBLE_EQ(rounds[0].wall_ms, 1.25);
  EXPECT_DOUBLE_EQ(rounds[0].imbalance, 2.0);
  obs::reset_metrics();
  EXPECT_TRUE(obs::snapshot_rounds().empty());
}

TEST(ObsRounds, EmptyLabelInheritsThePhasePath) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::reset_metrics();
  obs::set_enabled(true);
  {
    obs::PhaseTimer t("round_site");
    obs::RoundRecord r;
    r.round = 1;
    obs::record_round(r);  // empty label -> caller's phase path
  }
  obs::set_enabled(false);
  const std::vector<obs::RoundRecord> rounds = obs::snapshot_rounds();
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].label, "round_site");
  obs::reset_metrics();
}

// --- OpenMetrics exposition (--stats-out). ----------------------------

TEST(ObsExposition, RendersTerminatedDocumentInBothFlavours) {
  obs::reset_metrics();
  obs::clear_warnings();
  const std::string doc = obs::render_openmetrics();
  // The document always ends with the "# EOF" terminator...
  const std::string tail = "# EOF\n";
  ASSERT_GE(doc.size(), tail.size());
  EXPECT_EQ(doc.compare(doc.size() - tail.size(), tail.size(), tail), 0)
      << doc;
  // ...and carries the build-flavour marker scrapers branch on.
  const std::string marker = std::string("llpmst_build_info{obs=\"") +
                             (obs::kCompiledIn ? '1' : '0') + "\"} 1";
  EXPECT_NE(doc.find(marker), std::string::npos) << doc;
  EXPECT_NE(doc.find("llpmst_warnings 0"), std::string::npos) << doc;
}

TEST(ObsExposition, CountersPhasesAndRoundsMapToFamilies) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::reset_metrics();
  obs::clear_warnings();
  obs::set_enabled(true);
  obs::counter("expo/test_counter").add(7);
  {
    obs::PhaseTimer t("expo_phase");
  }
  obs::RoundRecord r;
  r.label = "expo_site";
  r.round = 2;
  r.wall_ms = 1.0;
  obs::record_round(r);
  obs::set_enabled(false);

  const std::string doc = obs::render_openmetrics();
  // '/' sanitizes to '_' and the counter sample carries "_total".
  EXPECT_NE(doc.find("# TYPE llpmst_expo_test_counter counter"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("llpmst_expo_test_counter_total 7"), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("llpmst_phase_seconds_total{phase=\"expo_phase\"}"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("llpmst_phase_count_total{phase=\"expo_phase\"} 1"),
            std::string::npos)
      << doc;
  // One recorded round at site "expo_site".
  EXPECT_NE(doc.find("llpmst_solver_rounds{site=\"expo_site\"} 1"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("llpmst_solver_round_seconds_total{site=\"expo_site\"}"),
            std::string::npos)
      << doc;
  obs::reset_metrics();
}

TEST(ObsExposition, CollidingFamiliesSkipAfterSanitization) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::reset_metrics();
  // "collide/x" and "collide.x" both sanitize to llpmst_collide_x; the
  // exposition spec forbids two families with one name, so the second
  // must be skipped with an explanatory comment, not emitted twice.
  obs::counter("collide/x").add(1);
  obs::counter("collide.x").add(2);
  const std::string doc = obs::render_openmetrics();
  std::size_t type_lines = 0;
  for (std::size_t pos = 0;
       (pos = doc.find("# TYPE llpmst_collide_x counter", pos)) !=
       std::string::npos;
       ++pos) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u) << doc;
  EXPECT_NE(doc.find("# skipped: duplicate family after sanitization: "
                     "llpmst_collide_x"),
            std::string::npos)
      << doc;
  obs::reset_metrics();
}

TEST(ObsExposition, SchedulerSummaryShowsUpAfterCollection) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::reset_metrics();
  obs::sched_start();
  obs::sched_record(obs::SchedEventKind::kTask, obs::now_us(), 25);
  obs::sched_stop();
  const std::string doc = obs::render_openmetrics();
  EXPECT_NE(doc.find("llpmst_sched_utilization_ratio"), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("llpmst_sched_worker_busy_seconds_total{worker=\""),
            std::string::npos)
      << doc;
  obs::sched_start();  // clear the rings for whatever runs next
  obs::sched_stop();
}

// --- The sampling profiler (schema v4 "profile" section). --------------

/// Burns at least `ms` of this thread's CPU time (the profiler's timers
/// count CPU time, not wall time) and returns a value derived from the
/// work so the loop cannot be optimized away.
double burn_cpu_ms(double ms) {
  timespec t0{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
  double x = 1.0;
  for (;;) {
    for (int i = 0; i < 20000; ++i) x = x * 1.0000001 + 1e-9;
    timespec t{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    const double elapsed_ms =
        (static_cast<double>(t.tv_sec) - static_cast<double>(t0.tv_sec)) *
            1e3 +
        (static_cast<double>(t.tv_nsec) - static_cast<double>(t0.tv_nsec)) *
            1e-6;
    if (elapsed_ms >= ms) return x;
  }
}

TEST(ObsProfiler, UnstartedOrUnsupportedDegradesToExplicitUnavailable) {
  // Never started: the snapshot must carry the explicit degradation shape
  // in every flavour, and prof_start must refuse softly when unsupported.
  const obs::ProfSnapshot s = obs::prof_snapshot();
  if (!obs::prof_collecting()) {
    EXPECT_FALSE(s.available);
    EXPECT_FALSE(s.unavailable_reason.empty());
  }
  if (!obs::prof_supported()) {
    std::string why;
    EXPECT_FALSE(obs::prof_start(97, &why));
    EXPECT_FALSE(why.empty());
    if constexpr (!obs::kCompiledIn) {
      EXPECT_NE(why.find("LLPMST_OBS=0"), std::string::npos) << why;
    }
  }
}

TEST(ObsProfiler, RejectsOutOfRangeRate) {
  if (!obs::prof_supported()) {
    GTEST_SKIP() << "sampling profiler unsupported here";
  }
  // Above kMaxProfileHz the timer interval rounds to 0 ns, which
  // timer_settime treats as "disarm" — prof_start must refuse with a
  // reason instead of reporting success for an empty profile.  This is
  // also where a negative CLI value wrapped through the unsigned cast
  // lands.
  std::string why;
  EXPECT_FALSE(obs::prof_start(obs::kMaxProfileHz + 1, &why));
  EXPECT_NE(why.find("out of range"), std::string::npos) << why;
  EXPECT_FALSE(obs::prof_collecting());
  EXPECT_FALSE(obs::prof_snapshot().available);
  // The subsystem recovers: a valid rate still starts.
  ASSERT_TRUE(obs::prof_start(obs::kDefaultProfileHz, &why)) << why;
  obs::prof_stop();
}

TEST(ObsProfiler, AttributesSamplesToPhaseTimerPaths) {
  if (!obs::prof_supported()) {
    GTEST_SKIP() << "sampling profiler unsupported here";
  }
  // Stack-only mode: exactly what --profile arms in the benches.
  obs::set_phase_stack_enabled(true);
  std::string why;
  ASSERT_TRUE(obs::prof_start(997, &why)) << why;
  double sink = 0.0;
  {
    obs::PhaseTimer outer("prof_outer");
    obs::PhaseTimer inner("prof_inner");
    sink = burn_cpu_ms(120.0);
  }
  obs::prof_stop();
  obs::set_phase_stack_enabled(false);
  EXPECT_NE(sink, 0.0);

  const obs::ProfSnapshot s = obs::prof_snapshot();
  ASSERT_TRUE(s.available) << s.unavailable_reason;
  EXPECT_EQ(s.hz, 997u);
  // 120 ms of CPU at 997 Hz is ~120 expected samples; even a heavily
  // loaded CI machine delivers a handful.
  ASSERT_GT(s.samples, 0u);
  // The burn loop ran entirely inside prof_outer/prof_inner, so the
  // dominant phase path must match the PhaseTimer nesting.
  std::uint64_t attributed = 0;
  for (const obs::ProfPhaseCount& p : s.phases) {
    if (p.name == "prof_outer/prof_inner") attributed += p.samples;
  }
  EXPECT_GT(attributed, s.samples / 2)
      << "samples did not attribute to the live PhaseTimer path";

  // The folded rendering parses: every line is "<frames> <count>" with
  // ';'-separated non-empty frames, and the hot path leads some line.
  const std::string folded = obs::prof_render_folded(s);
  ASSERT_FALSE(folded.empty());
  bool hot_line = false;
  std::size_t start = 0;
  while (start < folded.size()) {
    std::size_t end = folded.find('\n', start);
    if (end == std::string::npos) end = folded.size();
    const std::string line = folded.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(std::stoull(line.substr(space + 1)), 0u) << line;
    const std::string frames = line.substr(0, space);
    EXPECT_FALSE(frames.empty()) << line;
    EXPECT_EQ(frames.find(";;"), std::string::npos) << line;
    if (frames.rfind("prof_outer;prof_inner", 0) == 0) hot_line = true;
  }
  EXPECT_TRUE(hot_line) << folded;
}

#if LLPMST_OBS
// Preprocessor-gated (not GTEST_SKIP): detail::phase_stack() itself only
// exists in the compiled-in flavour.
TEST(ObsProfiler, StackOnlyModeSkipsTimingAggregates) {
  obs::reset_metrics();
  obs::set_phase_stack_enabled(true);
  {
    obs::PhaseTimer t("stack_only_phase");
    EXPECT_EQ(obs::detail::phase_stack().depth.load(), 1u);
    EXPECT_EQ(obs::detail::phase_path(), "stack_only_phase");
  }
  EXPECT_EQ(obs::detail::phase_stack().depth.load(), 0u);
  obs::set_phase_stack_enabled(false);
  // The stack was maintained, but nothing folded into the aggregates —
  // that is the whole point of the cheap mode.
  for (const obs::PhaseSample& p : obs::snapshot_phases()) {
    EXPECT_NE(p.name, "stack_only_phase");
  }
}
#endif  // LLPMST_OBS

// --- DRAM-bandwidth accounting (schema v4 "bandwidth" section). --------

TEST(ObsBandwidth, DegradationContractMatchesHwShape) {
  // No hw sample: explicit "not requested" reason.
  const obs::BandwidthSnapshot none = obs::bandwidth_snapshot(nullptr);
  EXPECT_FALSE(none.available);
  EXPECT_FALSE(none.unavailable_reason.empty());

  // Unavailable hw: the reason must pass through verbatim.
  obs::HwSample hw;
  hw.available = false;
  hw.unavailable_reason = "no PMU in this VM";
  const obs::BandwidthSnapshot degraded = obs::bandwidth_snapshot(&hw);
  EXPECT_FALSE(degraded.available);
  if constexpr (obs::kCompiledIn) {
    EXPECT_EQ(degraded.unavailable_reason, "no PMU in this VM");
  }
}

TEST(ObsBandwidth, VerdictNamesAreStable) {
  // tools/check_report_schema.py hard-codes these strings.
  EXPECT_STREQ(obs::bound_verdict_name(obs::BoundVerdict::kUnknown),
               "unknown");
  EXPECT_STREQ(obs::bound_verdict_name(obs::BoundVerdict::kComputeBound),
               "compute-bound");
  EXPECT_STREQ(obs::bound_verdict_name(obs::BoundVerdict::kMemoryBound),
               "memory-bound");
}

// --- The v4 report document. ------------------------------------------

TEST(ObsReport, SchemaV4ProfileAndBandwidthNullWhenNotRequested) {
  const std::string report =
      obs::build_run_report(test_run_info(), nullptr, nullptr, nullptr);
  EXPECT_TRUE(json_balanced(report)) << report;
  EXPECT_NE(report.find("\"profile\":null"), std::string::npos) << report;
  EXPECT_NE(report.find("\"bandwidth\":null"), std::string::npos) << report;
}

TEST(ObsReport, SchemaV4SerializesProfileSnapshot) {
  obs::ProfSnapshot prof;
  prof.available = true;
  prof.hz = 97;
  prof.samples = 5;
  prof.dropped = 1;
  prof.phases.push_back({"solve/round", 5});
  prof.stacks.push_back({"solve;round;contract", 3});
  prof.stacks.push_back({"solve;round;mwe", 2});
  const std::string report =
      obs::build_run_report(test_run_info(), nullptr, nullptr, &prof);
  EXPECT_TRUE(json_balanced(report)) << report;
  if constexpr (obs::kCompiledIn) {
    EXPECT_NE(report.find("\"profile\":{\"available\":true,\"hz\":97"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("\"name\":\"solve/round\",\"samples\":5"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("\"stack\":\"solve;round;contract\""),
              std::string::npos)
        << report;
  } else {
    // Compiled out: the report serializer is flavour-independent, so the
    // section is still present and well-formed.
    EXPECT_NE(report.find("\"profile\":"), std::string::npos) << report;
  }
}

TEST(ObsReport, SchemaV4SerializesDegradedProfileAndBandwidth) {
  obs::ProfSnapshot prof;
  prof.available = false;
  prof.unavailable_reason = "profiler not started";
  obs::HwSample hw;
  hw.available = false;
  hw.unavailable_reason = "no PMU";
  const std::string report =
      obs::build_run_report(test_run_info(), nullptr, &hw, &prof);
  EXPECT_TRUE(json_balanced(report)) << report;
  if constexpr (obs::kCompiledIn) {
    EXPECT_NE(report.find("\"profile\":{\"available\":false,\"reason\":"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("\"bandwidth\":{\"available\":false,\"reason\":"),
              std::string::npos)
        << report;
  }
}

}  // namespace
}  // namespace llpmst
