// Chaos suite: the loosely-synchronized parallel MST algorithms must produce
// the exact same forest under ANY schedule, so we perturb schedules with
// probabilistic yield/sleep failpoints across 100 deterministic seeds and
// compare bit-for-bit against sequential Kruskal.  The second half exercises
// the graceful-degradation story end to end: deadlines and watchdogs stop
// wedged runs, and mst::auto falls back to sequential Kruskal with a
// structured reason when its parallel pick fails.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "graph/generators/random_graph.hpp"
#include "graph/generators/road.hpp"
#include "llp/llp_boruvka.hpp"
#include "llp/llp_prim_parallel.hpp"
#include "llp/llp_solver.hpp"
#include "mst/auto.hpp"
#include "mst/kruskal.hpp"
#include "mst/verifier.hpp"
#include "scenario/repro.hpp"
#include "scenario/scenario.hpp"
#include "support/cancel.hpp"
#include "support/failpoint.hpp"
#include "support/status.hpp"
#include "test_util.hpp"

namespace llpmst {
namespace {

using test::csr;

constexpr int kChaosSeeds = 100;

// Chaos workloads come from the named scenario registry so a failure can
// print a repro command that regenerates the EXACT graph by name.
constexpr std::uint64_t kConnectedSeed = 7;
constexpr std::uint64_t kSparseSeed = 11;

CsrGraph connected_graph() {
  // A grid road network: always connected, large enough that every
  // parallel_for dispatches a real team.
  return csr(find_scenario("road-baseline")->make(kConnectedSeed));
}

CsrGraph dense_forest_graph() {
  // Graph500-shaped RMAT: m/n ~ 6 and disconnected, a cell where auto's
  // policy table names llp-boruvka at >= 2 threads.
  return csr(find_scenario("rmat-graph500")->make(kConnectedSeed));
}

CsrGraph sparse_random_graph() {
  // ER topology with near-duplicate weights: sparse AND tie-break heavy.
  return csr(find_scenario("near-duplicate-weights")->make(kSparseSeed));
}

/// The copy-pasteable one-liner every chaos failure message carries.
std::string repro(const char* scenario, std::uint64_t graph_seed,
                  const char* algo, const char* failpoints,
                  std::uint64_t chaos_seed) {
  ReproSpec rs;
  rs.scenario = scenario;
  rs.algo = algo;
  rs.seed = graph_seed;
  rs.threads = 4;
  rs.failpoints = failpoints;
  std::string line = format_repro_command(rs);
  if (chaos_seed != 0) {
    line += "  # failpoint seed " + std::to_string(chaos_seed);
  }
  return line;
}

class Chaos : public testing::Test {
 protected:
  void SetUp() override {
    if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
    fail::disarm_all();
  }
  void TearDown() override {
    if (fail::kCompiledIn) fail::disarm_all();
  }
};

// ------------------------------------------- schedule-perturbation chaos

TEST_F(Chaos, LlpPrimParallelMatchesKruskalUnderAHundredSeeds) {
  const CsrGraph g = connected_graph();
  const MstResult reference = kruskal(g);
  ThreadPool pool(4);
  RunContext ctx(pool);

  // Yield a fifth of team tasks at dispatch and stall a quarter of the
  // bag/heap handoffs: exactly the windows where a stale frontier or a
  // half-flushed Q buffer would surface as a wrong tree.
  const char* spec = "pool/task=20%yield;llp_prim/handoff=25%sleep(50)";
  std::string error;
  ASSERT_EQ(fail::configure(spec, &error), 2u) << error;

  for (std::uint64_t seed = 1; seed <= kChaosSeeds; ++seed) {
    fail::set_seed(seed);
    const std::string at = repro("road-baseline", kConnectedSeed,
                                 "llp-prim-parallel", spec, seed);
    const MstResult r = llp_prim_parallel(g, ctx);
    ASSERT_EQ(r.stats.outcome, RunOutcome::kOk) << at;
    ASSERT_EQ(r.edges, reference.edges) << at;
    ASSERT_EQ(r.total_weight, reference.total_weight) << at;
    const VerifyResult v = verify_spanning_forest(g, r);
    ASSERT_TRUE(v.ok) << v.error << "\n" << at;
  }
  EXPECT_GT(fail::fire_count("llp_prim/handoff"), 0u);
}

TEST_F(Chaos, LlpBoruvkaMatchesKruskalUnderAHundredSeeds) {
  const CsrGraph g = sparse_random_graph();
  const MstResult reference = kruskal(g);
  ThreadPool pool(4);
  RunContext ctx(pool);

  const char* spec = "pool/task=20%yield;boruvka/contract=50%sleep(50)";
  std::string error;
  ASSERT_EQ(fail::configure(spec, &error), 2u) << error;

  for (std::uint64_t seed = 1; seed <= kChaosSeeds; ++seed) {
    fail::set_seed(seed);
    const std::string at = repro("near-duplicate-weights", kSparseSeed,
                                 "llp-boruvka", spec, seed);
    const MstResult r = llp_boruvka(g, ctx);
    ASSERT_EQ(r.stats.outcome, RunOutcome::kOk) << at;
    ASSERT_EQ(r.edges, reference.edges) << at;
    const VerifyResult v = verify_spanning_forest(g, r);
    ASSERT_TRUE(v.ok) << v.error << "\n" << at;
  }
  EXPECT_GT(fail::fire_count("boruvka/contract"), 0u);
}

// ------------------------------------------------- deadlines & watchdogs

TEST_F(Chaos, DeadlineStopsANonConvergingLlpSolve) {
  // forbidden() is always true, so without the deadline this solve would
  // grind through a million sweeps.  The deadline must stop it at a sweep
  // (or chunk) checkpoint long before that.
  ThreadPool pool(4);
  CancelToken token;
  token.set_deadline_after_ms(30);
  LlpOptions o;
  o.max_sweeps = 1'000'000;
  o.cancel = &token;
  const auto start = std::chrono::steady_clock::now();
  const LlpStats s = llp_solve(
      pool, 3000, [](std::size_t) { return true; }, [](std::size_t) {}, o);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(s.outcome, RunOutcome::kDeadlineExceeded);
  EXPECT_FALSE(s.converged);
  EXPECT_LT(s.sweeps, 1'000'000u);
  EXPECT_LT(elapsed_ms, 10'000) << "deadline failed to stop the solve";
}

TEST_F(Chaos, WatchdogStopsAWedgedLlpSolve) {
  // The wedge: every sweep stalls on an injected 1ms sleep and the predicate
  // never converges.  Nobody calls cancel() — the watchdog must.
  ASSERT_TRUE(fail::arm("llp/sweep", "sleep(1000)"));
  ThreadPool pool(2);
  CancelToken token;
  Watchdog dog(token, 25);
  LlpOptions o;
  o.max_sweeps = 1'000'000;
  o.cancel = &token;
  const LlpStats s = llp_solve(
      pool, 2000, [](std::size_t) { return true; }, [](std::size_t) {}, o);
  dog.disarm();
  EXPECT_EQ(s.outcome, RunOutcome::kCancelled);
  EXPECT_LT(s.sweeps, 1'000'000u);
}

// ------------------------------------------------- graceful degradation

TEST_F(Chaos, AutoFallsBackToKruskalOnInjectedFaultAtFourThreads) {
  const CsrGraph g = dense_forest_graph();
  const MstResult reference = kruskal(g);
  ThreadPool pool(4);  // dense + disconnected -> llp-boruvka
  RunContext ctx(pool);
  ASSERT_TRUE(fail::arm("boruvka/contract", "return"));

  const AutoMstResult r = minimum_spanning_forest(g, ctx);
  EXPECT_TRUE(r.fell_back);
  EXPECT_EQ(r.algorithm, "kruskal");
  EXPECT_EQ(r.fallback_reason, "injected_fault");
  EXPECT_EQ(r.result.edges, reference.edges);
  const VerifyResult v = verify_spanning_forest(g, r.result);
  EXPECT_TRUE(v.ok) << v.error;
}

TEST_F(Chaos, AutoFallsBackToKruskalOnInjectedBoruvkaFault) {
  const CsrGraph g = sparse_random_graph();
  const MstResult reference = kruskal(g);
  ThreadPool pool(8);  // the paper's crossover -> llp-boruvka
  RunContext ctx(pool);
  ASSERT_TRUE(fail::arm("boruvka/contract", "return"));

  const AutoMstResult r = minimum_spanning_forest(g, ctx);
  EXPECT_TRUE(r.fell_back);
  EXPECT_EQ(r.algorithm, "kruskal");
  EXPECT_EQ(r.fallback_reason, "injected_fault");
  EXPECT_EQ(r.result.edges, reference.edges);
}

TEST_F(Chaos, AutoFallsBackToKruskalOnDeadline) {
  // An already-expired deadline plus a stall on every contraction: the
  // parallel run stops at its first checkpoint and the portfolio must
  // recover with a full sequential answer, not hand back the empty partial
  // forest.
  const CsrGraph g = dense_forest_graph();
  const MstResult reference = kruskal(g);
  ThreadPool pool(4);
  RunContext ctx(pool);
  ASSERT_TRUE(fail::arm("boruvka/contract", "sleep(500)"));

  ctx.set_deadline_ms(0.001);
  const AutoMstResult r = minimum_spanning_forest(g, ctx);
  EXPECT_TRUE(r.fell_back);
  EXPECT_EQ(r.algorithm, "kruskal");
  EXPECT_EQ(r.fallback_reason, "deadline_exceeded");
  EXPECT_EQ(r.result.edges, reference.edges);
}

TEST_F(Chaos, AutoHonoursUserCancelWithoutFallback) {
  const CsrGraph g = connected_graph();
  ThreadPool pool(4);
  CancelToken token;
  token.cancel();

  RunContext ctx(pool);
  ctx.set_cancel(&token);
  const AutoMstResult r = minimum_spanning_forest(g, ctx);
  // A user cancel is a request to stop, not a failure to route around.
  EXPECT_FALSE(r.fell_back);
  EXPECT_EQ(r.result.stats.outcome, RunOutcome::kCancelled);
}

TEST_F(Chaos, FallbackCanBeDisabled) {
  const CsrGraph g = dense_forest_graph();
  ThreadPool pool(4);
  RunContext ctx(pool);
  ASSERT_TRUE(fail::arm("boruvka/contract", "return"));

  AutoMstOptions options;
  options.fallback_to_sequential = false;
  const AutoMstResult r = minimum_spanning_forest(g, ctx, options);
  EXPECT_FALSE(r.fell_back);
  EXPECT_EQ(r.result.stats.outcome, RunOutcome::kInjectedFault);
}

}  // namespace
}  // namespace llpmst
