// Deterministic schedule simulator suite.
//
// The contract under test is the PR's acceptance criterion: the same
// (scenario, seed) produces a bit-identical schedule trace and an identical
// forest on every run, and replaying a recorded trace reproduces the
// schedule exactly.  The determinism tests deliberately do NOT depend on
// the failpoint build flavour — CI runs this binary with failpoints both
// compiled in and compiled out; only the timeline/fault tests skip when
// they are out.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/run_context.hpp"
#include "graph/csr_graph.hpp"
#include "llp/llp_boruvka.hpp"
#include "mst/auto.hpp"
#include "mst/kruskal.hpp"
#include "scenario/scenario.hpp"
#include "sim/schedule_trace.hpp"
#include "sim/sim_executor.hpp"
#include "sim/timeline.hpp"
#include "support/cancel.hpp"
#include "support/failpoint.hpp"
#include "support/virtual_time.hpp"
#include "test_util.hpp"

namespace llpmst {
namespace {

using sim::ScheduleTrace;
using sim::SimExecutor;
using test::csr;

CsrGraph scenario_graph(const char* name, std::uint64_t seed = 1) {
  const Scenario* s = find_scenario(name);
  EXPECT_NE(s, nullptr) << name;
  return csr(s->make(seed));
}

/// One simulated llp-boruvka run: returns (trace, result).
struct SimRun {
  ScheduleTrace trace;
  MstResult result;
  std::uint64_t decisions = 0;
  bool diverged = false;
};

SimRun run_sim(const CsrGraph& g, const SimExecutor::Options& options) {
  SimExecutor exec(options);
  EXPECT_TRUE(exec.timeline_error().empty()) << exec.timeline_error();
  RunContext ctx;
  ctx.attach_executor(&exec);
  SimRun out;
  out.result = llp_boruvka(g, ctx);
  out.trace = exec.trace();
  out.decisions = exec.decisions();
  out.diverged = exec.replay_diverged();
  return out;
}

class SimDeterminism : public testing::Test {
 protected:
  void SetUp() override {
    if (fail::kCompiledIn) fail::disarm_all();
  }
  void TearDown() override {
    if (fail::kCompiledIn) fail::disarm_all();
  }
};

// ------------------------------------------------------------ determinism

TEST_F(SimDeterminism, ThreeConsecutiveRunsAreBitIdentical) {
  const CsrGraph g = scenario_graph("geo-road-hybrid", 5);
  const MstResult reference = kruskal(g);

  SimExecutor::Options o;
  o.seed = 42;
  o.workers = 4;
  const SimRun first = run_sim(g, o);
  ASSERT_GT(first.decisions, 0u);
  ASSERT_EQ(first.result.edges, reference.edges);
  ASSERT_EQ(first.result.total_weight, reference.total_weight);

  for (int rep = 0; rep < 2; ++rep) {
    const SimRun again = run_sim(g, o);
    ASSERT_EQ(again.trace, first.trace) << "run " << rep + 2;
    ASSERT_EQ(again.trace.encode(), first.trace.encode());
    ASSERT_EQ(again.result.edges, first.result.edges);
    ASSERT_EQ(again.result.total_weight, first.result.total_weight);
  }
}

TEST_F(SimDeterminism, DifferentSeedsExploreDifferentSchedules) {
  const CsrGraph g = scenario_graph("road-baseline", 3);
  SimExecutor::Options a;
  a.seed = 1;
  a.workers = 4;
  SimExecutor::Options b = a;
  b.seed = 2;
  const SimRun ra = run_sim(g, a);
  const SimRun rb = run_sim(g, b);
  // Schedules differ; the forest must not.
  EXPECT_NE(ra.trace.picks, rb.trace.picks);
  EXPECT_EQ(ra.result.edges, rb.result.edges);
  EXPECT_EQ(ra.result.edges, kruskal(g).edges);
}

TEST_F(SimDeterminism, ReplayReproducesTheScheduleExactly) {
  const CsrGraph g = scenario_graph("near-duplicate-weights", 7);
  SimExecutor::Options record;
  record.seed = 99;
  record.workers = 3;
  const SimRun recorded = run_sim(g, record);

  SimExecutor::Options replay;
  replay.replay = &recorded.trace;
  const SimRun replayed = run_sim(g, replay);
  EXPECT_FALSE(replayed.diverged);
  EXPECT_EQ(replayed.trace, recorded.trace);
  EXPECT_EQ(replayed.result.edges, recorded.result.edges);
  EXPECT_EQ(replayed.result.total_weight, recorded.result.total_weight);
}

TEST_F(SimDeterminism, TruncatedReplayFillsDeterministically) {
  // Past the end of a (minimized) prefix the scheduler falls back to
  // round-robin; that continuation must itself be deterministic.
  const CsrGraph g = scenario_graph("road-baseline", 2);
  SimExecutor::Options record;
  record.seed = 5;
  record.workers = 4;
  const SimRun recorded = run_sim(g, record);
  ASSERT_GT(recorded.trace.picks.size(), 10u);

  ScheduleTrace prefix = recorded.trace;
  prefix.picks.resize(prefix.picks.size() / 2);

  SimExecutor::Options replay;
  replay.replay = &prefix;
  const SimRun a = run_sim(g, replay);
  const SimRun b = run_sim(g, replay);
  EXPECT_FALSE(a.diverged);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.result.edges, b.result.edges);
  EXPECT_EQ(a.result.edges, kruskal(g).edges);
}

TEST_F(SimDeterminism, SingleWorkerSimulationStillTerminates) {
  const CsrGraph g = scenario_graph("forest-dust", 1);
  SimExecutor::Options o;
  o.seed = 11;
  o.workers = 1;
  const SimRun r = run_sim(g, o);
  EXPECT_EQ(r.result.edges, kruskal(g).edges);
}

// --------------------------------------------------------- trace encoding

TEST(ScheduleTraceTest, EncodeDecodeRoundTrip) {
  ScheduleTrace t;
  t.seed = 0xdeadbeefULL;
  t.workers = 5;
  t.picks = {0, 0, 0, 3, 2, 2, 4, 1, 1, 1, 1, 0};
  ScheduleTrace back;
  ASSERT_TRUE(back.decode(t.encode())) << t.encode();
  EXPECT_EQ(back, t);
}

TEST(ScheduleTraceTest, DecodeRejectsMalformedTokens) {
  ScheduleTrace t;
  EXPECT_FALSE(t.decode(""));
  EXPECT_FALSE(t.decode("nonsense"));
  EXPECT_FALSE(t.decode("llpsim1:12"));                 // truncated
  EXPECT_FALSE(t.decode("llpsim2:1:4:0x1"));            // wrong version
  EXPECT_FALSE(t.decode("llpsim1:1:0:0x1"));            // zero workers
  EXPECT_FALSE(t.decode("llpsim1:1:4:0x1.zz"));         // bad run
  EXPECT_FALSE(t.decode("llpsim1:1:4:9x1"));            // pick >= workers
  // A failed decode must leave the object unchanged.
  ScheduleTrace keep;
  keep.seed = 7;
  keep.workers = 2;
  keep.picks = {1, 0};
  ScheduleTrace probe = keep;
  EXPECT_FALSE(probe.decode("llpsim1:bad"));
  EXPECT_EQ(probe, keep);
}

TEST(ScheduleTraceTest, MinimizePrefixFindsTheShortestFailingPrefix) {
  ScheduleTrace failing;
  failing.seed = 1;
  failing.workers = 2;
  failing.picks.assign(100, 0);
  // The "bug" needs at least 37 recorded picks to manifest.
  const auto still_fails = [](const ScheduleTrace& t) {
    return t.picks.size() >= 37;
  };
  const ScheduleTrace min = sim::minimize_prefix(failing, still_fails);
  EXPECT_EQ(min.picks.size(), 37u);
  EXPECT_EQ(min.seed, failing.seed);
  EXPECT_EQ(min.workers, failing.workers);
}

TEST(ScheduleTraceTest, MinimizeKeepsScheduleIndependentFailuresEmpty) {
  ScheduleTrace failing;
  failing.seed = 1;
  failing.workers = 2;
  failing.picks.assign(50, 1);
  const ScheduleTrace min =
      sim::minimize_prefix(failing, [](const ScheduleTrace&) { return true; });
  EXPECT_TRUE(min.picks.empty());
}

// ---------------------------------------------- virtual clock & deadlines

TEST(VirtualClockTest, CancelTokenSeesAnAlreadyExpiredDeadline) {
  SimExecutor::Options o;
  o.workers = 2;
  SimExecutor exec(o);
  CancelToken token;
  token.set_deadline_after_ms(5);
  EXPECT_FALSE(token.cancelled());
  exec.clock().advance_ns(4'999'999);
  EXPECT_FALSE(token.cancelled());
  exec.clock().advance_ns(1);
  EXPECT_TRUE(token.cancelled());
  // Once expired under virtual time it stays expired — the clock only
  // moves forward.
  EXPECT_TRUE(token.cancelled());
}

TEST(VirtualClockTest, ZeroMsDeadlineExpiresImmediately) {
  SimExecutor::Options o;
  o.workers = 2;
  SimExecutor exec(o);
  CancelToken zero;
  zero.set_deadline_after_ms(0);
  EXPECT_TRUE(zero.cancelled());
  CancelToken negative;
  negative.set_deadline_after_ms(-3);  // clamped to "now"
  EXPECT_TRUE(negative.cancelled());
}

TEST(VirtualClockTest, DeadlineExpiryIsScheduleDeterministic) {
  // The virtual clock advances step_ns per decision, so a deadline armed
  // through the RunContext expires at the exact same decision every run —
  // partial results become reproducible instead of racy.
  const CsrGraph g = scenario_graph("road-baseline", 4);
  const auto run_with_deadline = [&] {
    SimExecutor::Options o;
    o.seed = 21;
    o.workers = 4;
    o.step_ns = 50'000;  // 0.05ms per decision: a 2ms budget = 40 decisions
    SimExecutor exec(o);
    RunContext ctx;
    ctx.attach_executor(&exec);
    ctx.set_deadline_ms(2.0);
    SimRun out;
    out.result = llp_boruvka(g, ctx);
    out.trace = exec.trace();
    out.decisions = exec.decisions();
    return out;
  };
  const SimRun a = run_with_deadline();
  const SimRun b = run_with_deadline();
  EXPECT_EQ(a.result.stats.outcome, RunOutcome::kDeadlineExceeded);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.result.edges, b.result.edges);
  EXPECT_EQ(a.result.stats.outcome, b.result.stats.outcome);
}

TEST(VirtualClockTest, WatchdogWithZeroTimeoutCancelsPromptly) {
  // The watchdog deliberately runs on REAL time even under a virtual clock
  // (a wedged simulation never advances virtual time), so a zero timeout
  // must cancel without any virtual-clock help.
  CancelToken token;
  Watchdog dog(token, 0);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (!token.cancelled() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  dog.disarm();
  EXPECT_TRUE(token.cancelled());
}

// ------------------------------------------------------ scripted timelines

// @step triggers, cancel/advance actions, and parse errors work in BOTH
// failpoint flavours (no failpoint machinery involved); only the tests that
// arm or count failpoints need the instrumented build.
class SimTimeline : public testing::Test {
 protected:
  void SetUp() override {
    if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
    fail::disarm_all();
  }
  void TearDown() override {
    if (fail::kCompiledIn) fail::disarm_all();
  }
};

TEST(SimTimelinePortable, AtStepCancelStopsTheRunDeterministically) {
  const CsrGraph g = scenario_graph("road-baseline", 6);
  const auto run_cancelled = [&] {
    SimExecutor::Options o;
    o.seed = 8;
    o.workers = 4;
    o.timeline = "@60: cancel";
    SimExecutor exec(o);
    EXPECT_TRUE(exec.timeline_error().empty()) << exec.timeline_error();
    CancelToken token;
    exec.bind_cancel(&token);
    RunContext ctx;
    ctx.attach_executor(&exec);
    ctx.set_cancel(&token);
    SimRun out;
    out.result = llp_boruvka(g, ctx);
    out.trace = exec.trace();
    return out;
  };
  const SimRun a = run_cancelled();
  const SimRun b = run_cancelled();
  EXPECT_EQ(a.result.stats.outcome, RunOutcome::kCancelled);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.result.edges, b.result.edges);
}

TEST_F(SimTimeline, OnHitArmInjectsAFaultAtTheKthVisit) {
  const CsrGraph g = scenario_graph("road-baseline", 6);
  SimExecutor::Options o;
  o.seed = 13;
  o.workers = 4;
  // The 2nd boruvka/contract hit arms a one-shot structured fault; the run
  // must stop with kInjectedFault on a LATER round (the arm takes effect
  // from the next visit).
  o.timeline = "hit(boruvka/contract:2): arm(boruvka/contract=1*return)";
  const SimRun r = run_sim(g, o);
  EXPECT_EQ(r.result.stats.outcome, RunOutcome::kInjectedFault);
}

TEST(SimTimelinePortable, MalformedTimelineIsReportedNotIgnored) {
  SimExecutor::Options o;
  o.workers = 2;
  o.timeline = "@notanumber: cancel";
  SimExecutor exec(o);
  EXPECT_FALSE(exec.timeline_error().empty());
}

TEST_F(SimTimeline, UserCancelDuringAutoFallbackStopsTheSequentialScan) {
  // The mst::auto fallback runs kruskal_cancellable on the USER token only
  // (an expired deadline must not kill its own recovery).  Here the user
  // cancel lands MID-fallback, scripted on the k-th kruskal/scan stride:
  // the fallback must stop with a partial forest, not run to completion.
  // From 8 workers auto's table names llp-boruvka.
  const CsrGraph g = scenario_graph("rmat-graph500", 9);
  const MstResult reference = kruskal(g);

  SimExecutor::Options o;
  o.seed = 3;
  o.workers = 8;
  o.timeline = "hit(kruskal/scan:2): cancel";
  SimExecutor exec(o);
  ASSERT_TRUE(exec.timeline_error().empty()) << exec.timeline_error();
  CancelToken user;
  exec.bind_cancel(&user);
  RunContext ctx;
  ctx.attach_executor(&exec);
  ctx.set_cancel(&user);
  // Break the parallel pick so auto must fall back.
  ASSERT_TRUE(fail::arm("boruvka/contract", "return"));

  const AutoMstResult r = minimum_spanning_forest(g, ctx);
  EXPECT_TRUE(r.fell_back);
  EXPECT_EQ(r.algorithm, "kruskal");
  EXPECT_EQ(r.result.stats.outcome, RunOutcome::kCancelled);
  EXPECT_LT(r.result.edges.size(), reference.edges.size());
}

TEST_F(SimTimeline, ExpiredDeadlineFallbackStillCompletesUnderSim) {
  // Counterpart to the user-cancel case: when only the DEADLINE expires,
  // the fallback ignores it and must deliver the complete exact forest
  // even though virtual time never rewinds.  At 8 workers auto's pick is
  // the parallel llp-boruvka, whose scheduling decisions advance the
  // virtual clock past the budget.
  const CsrGraph g = scenario_graph("rmat-graph500", 10);
  const MstResult reference = kruskal(g);

  SimExecutor::Options o;
  o.seed = 4;
  o.workers = 8;
  o.step_ns = 1'000'000;  // 1ms per decision: the 1ms budget dies instantly
  SimExecutor exec(o);
  RunContext ctx;
  ctx.attach_executor(&exec);
  ctx.set_deadline_ms(1.0);

  const AutoMstResult r = minimum_spanning_forest(g, ctx);
  EXPECT_TRUE(r.fell_back);
  EXPECT_EQ(r.fallback_reason, "deadline_exceeded");
  EXPECT_EQ(r.result.edges, reference.edges);
  EXPECT_EQ(r.result.stats.outcome, RunOutcome::kOk);
}

}  // namespace
}  // namespace llpmst
