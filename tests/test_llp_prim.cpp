// LLP-Prim specifics: the early-fixing machinery, the Q staging, the heap
// traffic reduction the paper reports, and thread-count invariance of the
// parallel version.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "graph/algorithms/connected_components.hpp"
#include "graph/generators/random_graph.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/generators/road.hpp"
#include "graph/generators/special.hpp"
#include "llp/llp_prim.hpp"
#include "llp/llp_prim_parallel.hpp"
#include "mst/kruskal.hpp"
#include "mst/prim.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "sim/sim_executor.hpp"
#include "test_util.hpp"

namespace llpmst {
namespace {

using test::csr;

CsrGraph medium_connected_graph(std::uint64_t seed) {
  RoadParams p;
  p.width = 60;
  p.height = 60;
  p.seed = seed;
  return csr(generate_road_network(p));
}

TEST(LlpPrim, AblationVariantsAllProduceTheMst) {
  const CsrGraph g = medium_connected_graph(3);
  const MstResult reference = kruskal(g);
  for (const bool mwe : {false, true}) {
    for (const bool q : {false, true}) {
      LlpPrimOptions o;
      o.mwe_fixing = mwe;
      o.q_staging = q;
      const MstResult r = llp_prim(g, 0, o);
      EXPECT_EQ(r.edges, reference.edges)
          << "mwe=" << mwe << " q=" << q;
    }
  }
}

TEST(LlpPrim, EveryVertexFixedExactlyOnce) {
  const CsrGraph g = medium_connected_graph(4);
  const MstResult r = llp_prim(g);
  EXPECT_EQ(r.stats.fixed_via_heap + r.stats.fixed_via_mwe,
            g.num_vertices());
  EXPECT_GT(r.stats.fixed_via_mwe, 0u);
}

TEST(LlpPrim, FewerHeapOpsThanClassicPrim) {
  // The headline mechanism behind Fig. 2: early fixing removes heap pushes
  // and pops relative to Prim on the same graph.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const CsrGraph g = medium_connected_graph(seed);
    const MstResult p = prim(g);
    const MstResult lp = llp_prim(g);
    ASSERT_EQ(p.edges, lp.edges);
    EXPECT_LT(lp.stats.heap.pushes, p.stats.heap.pushes) << "seed " << seed;
    EXPECT_LT(lp.stats.heap.pops, p.stats.heap.pops) << "seed " << seed;
  }
}

TEST(LlpPrim, MweFixingDisabledMeansAllFixedViaHeap) {
  const CsrGraph g = medium_connected_graph(5);
  LlpPrimOptions o;
  o.mwe_fixing = false;
  const MstResult r = llp_prim(g, 0, o);
  EXPECT_EQ(r.stats.fixed_via_mwe, 0u);
  EXPECT_EQ(r.stats.fixed_via_heap, g.num_vertices());
}

TEST(LlpPrim, QStagingReducesOrEqualsHeapAdjusts) {
  const CsrGraph g = medium_connected_graph(6);
  LlpPrimOptions with_q;
  LlpPrimOptions without_q;
  without_q.q_staging = false;
  const MstResult a = llp_prim(g, 0, with_q);
  const MstResult b = llp_prim(g, 0, without_q);
  ASSERT_EQ(a.edges, b.edges);
  const auto traffic = [](const MstResult& r) {
    return r.stats.heap.pushes + r.stats.heap.adjusts;
  };
  EXPECT_LE(traffic(a), traffic(b));
}

TEST(LlpPrim, PaperWalkthroughOnFigure1) {
  // Section V-A runs Algorithm 5 on Fig. 1: c and b are fixed through MWEs
  // (edges 4 was c's path? — per the text: c fixed via (a,c) being a's MWE,
  // b fixed via (c,b) being b/c's MWE, e via (d,e)); only d goes through
  // the heap after a.
  const CsrGraph g = csr(make_paper_figure1());
  const MstResult r = llp_prim(g, 0);
  EXPECT_EQ(r.total_weight, 16u);
  // root a via "heap seed", d via heap pop = 2 heap fixes; b, c, e via MWE.
  EXPECT_EQ(r.stats.fixed_via_heap, 2u);
  EXPECT_EQ(r.stats.fixed_via_mwe, 3u);
}

TEST(LlpPrim, HeapNeverHoldsAFixedVertex) {
  // R erases the heap entry of every vertex it fixes, so each pop fixes a
  // vertex: the heap-fixed vertices are the pops plus one root per tree, and
  // every pushed entry leaves the heap by a pop or an erase.
  const CsrGraph connected = medium_connected_graph(8);
  const CsrGraph forest = csr(make_forest(5, 80, 13));
  for (const CsrGraph* g : {&connected, &forest}) {
    const MstResult reference = kruskal(*g);
    for (const bool mwe : {false, true}) {
      for (const bool q : {false, true}) {
        LlpPrimOptions o;
        o.mwe_fixing = mwe;
        o.q_staging = q;
        const MstResult r = llp_prim(*g, 0, o);
        const HeapStats& h = r.stats.heap;
        ASSERT_EQ(r.edges, reference.edges);
        EXPECT_EQ(h.pops, r.stats.fixed_via_heap - r.num_trees)
            << "mwe=" << mwe << " q=" << q;
        EXPECT_EQ(h.pushes, h.pops + h.erases);
        if (!mwe) {
          EXPECT_EQ(h.erases, 0u);
        }
      }
    }
  }
}

TEST(LlpPrimForest, RestartsProduceTheMsf) {
  const CsrGraph g = csr(make_forest(4, 60, 11));
  const MstResult r = llp_prim(g);
  EXPECT_EQ(r.edges, kruskal(g).edges);
  EXPECT_EQ(r.num_trees, 4u);
}

TEST(LlpPrimForest, IsolatedVerticesBecomeTrivialTrees) {
  EdgeList list(6);
  list.add_edge(0, 1, 5);
  list.add_edge(1, 2, 3);
  list.normalize();  // vertices 3, 4, 5 isolated
  const CsrGraph g = csr(list);
  const MstResult r = llp_prim(g);
  EXPECT_EQ(r.edges.size(), 2u);
  EXPECT_EQ(r.num_trees, 4u);
}

TEST(LlpPrimForest, EdgelessGraph) {
  const CsrGraph g = csr(EdgeList(5));
  const MstResult r = llp_prim(g);
  EXPECT_TRUE(r.edges.empty());
  EXPECT_EQ(r.num_trees, 5u);
}

class LlpPrimParallel : public testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Threads, LlpPrimParallel,
                         testing::Values(1, 2, 4, 8));

TEST_P(LlpPrimParallel, MatchesSequentialOnManyGraphs) {
  ThreadPool pool(static_cast<std::size_t>(GetParam()));
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const CsrGraph g = medium_connected_graph(seed + 10);
    const MstResult seq = llp_prim(g);
    RunContext ctx(pool);
    const MstResult par = llp_prim_parallel(g, ctx);
    ASSERT_EQ(par.edges, seq.edges) << "seed " << seed;
    EXPECT_EQ(par.stats.fixed_via_heap + par.stats.fixed_via_mwe,
              g.num_vertices());
  }
}

TEST_P(LlpPrimParallel, DenseRmatGraph) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 16;
  p.seed = 3;
  EdgeList list = generate_rmat(p);
  connect_components(list);
  const CsrGraph g = csr(list);
  ThreadPool pool(static_cast<std::size_t>(GetParam()));
  RunContext ctx(pool);
  EXPECT_EQ(llp_prim_parallel(g, ctx).edges, kruskal(g).edges);
}

TEST_P(LlpPrimParallel, ForestMatchesKruskal) {
  // A drained heap restarts from the next unfixed vertex, as llp_prim
  // does; the heap follows the same erase rule, so every pop fixes a vertex.
  ThreadPool pool(static_cast<std::size_t>(GetParam()));
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 4;
  p.seed = 5;
  for (const EdgeList& list :
       {make_forest(6, 70, 9), generate_rmat(p), EdgeList(8)}) {
    const CsrGraph g = csr(list);
    RunContext ctx(pool);
    const MstResult r = llp_prim_parallel(g, ctx);
    const MstResult reference = kruskal(g);
    ASSERT_GT(reference.num_trees, 1u);
    ASSERT_EQ(r.edges, reference.edges);
    EXPECT_EQ(r.num_trees, reference.num_trees);
    EXPECT_EQ(r.stats.heap.pops, r.stats.fixed_via_heap - r.num_trees);
    EXPECT_EQ(r.stats.heap.pushes, r.stats.heap.pops + r.stats.heap.erases);
  }
}

TEST(LlpPrimParallelStats, MweShareGrowsWithDensity) {
  // The paper credits graph500's higher edges/vertex for LLP-Prim's
  // parallelism: denser graphs fix a larger share of vertices through MWEs
  // than the sparse road graph... (the share is also what R-set parallelism
  // feeds on).  Sanity-check the instrumentation is populated.
  ThreadPool pool(4);
  RunContext ctx(pool);
  const CsrGraph road = medium_connected_graph(2);
  const MstResult r = llp_prim_parallel(road, ctx);
  EXPECT_GT(r.stats.fixed_via_mwe, road.num_vertices() / 10);
  EXPECT_GT(r.stats.edges_relaxed, 0u);
}

/// A hub joined to each of `leaves` leaves by the leaf's lightest edge, a
/// pendant vertex hanging off every leaf, and a heavier path through the
/// leaves.  The root's one-vertex frontier fixes every leaf across its MWE,
/// so the second super-step explores all the leaves at once (and fixes the
/// pendants).
CsrGraph star_hub_graph(std::uint32_t leaves) {
  EdgeList list(1 + 2 * leaves);
  for (std::uint32_t v = 1; v <= leaves; ++v) {
    list.add_edge(0, v, 1 + v % 97);
    list.add_edge(v, leaves + v, 2000 + v % 31);
    if (v < leaves) list.add_edge(v, v + 1, 1000 + v % 13);
  }
  list.normalize();
  return csr(list);
}

/// Each super-step is drained inline or by a dispatched team; both paths
/// must write Kruskal's forest, and the per-run summary must account for
/// every step.  The road grid's frontiers are mostly one or two vertices
/// (inline); the star hub's second frontier holds every leaf, large enough
/// to dispatch on any team.
class LlpPrimParallelPaths : public testing::TestWithParam<std::string> {
 protected:
  /// "sim" runs on a 4-worker SimExecutor; otherwise the thread count.
  std::unique_ptr<Executor> make_executor() const {
    if (GetParam() == "sim") {
      sim::SimExecutor::Options o;
      o.seed = 11;
      o.workers = 4;
      return std::make_unique<sim::SimExecutor>(o);
    }
    return std::make_unique<ThreadPool>(std::stoul(GetParam()));
  }
};
INSTANTIATE_TEST_SUITE_P(Executors, LlpPrimParallelPaths,
                         testing::Values("1", "2", "4", "sim"));

TEST_P(LlpPrimParallelPaths, InlineAndDispatchedStepsWriteKruskalsForest) {
  const std::unique_ptr<Executor> executor = make_executor();
  const bool team = executor->num_threads() > 1;
  const CsrGraph road = medium_connected_graph(21);
  const CsrGraph star = star_hub_graph(4000);
  for (const CsrGraph* g : {&road, &star}) {
    RunContext ctx;
    ctx.attach_executor(executor.get());
    const MstResult r = llp_prim_parallel(*g, ctx);
    const bool is_star = g == &star;
    ASSERT_EQ(r.edges, kruskal(*g).edges) << (is_star ? "star" : "road");
    EXPECT_EQ(r.stats.llp_inline_sweeps + r.stats.llp_dispatched_sweeps,
              r.stats.llp_sweeps);
    EXPECT_GT(r.stats.llp_inline_sweeps, 0u);
    if (!team) {
      EXPECT_EQ(r.stats.llp_dispatched_sweeps, 0u);
    } else if (is_star) {
      EXPECT_GT(r.stats.llp_dispatched_sweeps, 0u) << "no step dispatched";
    } else {
      // Road frontiers are tiny: almost every step stays on the caller.
      EXPECT_LE(r.stats.llp_dispatched_sweeps * 20, r.stats.llp_sweeps);
    }
  }
}

TEST_P(LlpPrimParallelPaths, OneSummaryRoundPerFrontierSizeClass) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const std::unique_ptr<Executor> executor = make_executor();
  for (const CsrGraph& g : {medium_connected_graph(22), star_hub_graph(4000)}) {
    obs::set_enabled(true);
    obs::RunScope scope;
    RunContext ctx;
    ctx.attach_executor(executor.get());
    const MstResult r = llp_prim_parallel(g, ctx);
    const std::vector<obs::RoundRecord> rounds = obs::snapshot_rounds();
    obs::set_enabled(false);

    ASSERT_EQ(r.edges, kruskal(g).edges);
    ASSERT_FALSE(rounds.empty());
    EXPECT_LE(rounds.size(), 33u);
    std::uint64_t steps = 0;
    std::uint64_t fixed = 0;
    std::uint64_t dispatched = 0;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      const obs::RoundRecord& round = rounds[i];
      EXPECT_EQ(round.label, "llp_prim_parallel");
      if (i > 0) {
        EXPECT_GT(round.round, rounds[i - 1].round) << "classes repeat";
      }
      EXPECT_GT(round.edges, 0u) << "empty class " << round.round;
      EXPECT_LE(round.components, round.edges);
      if (round.components == 0) {
        EXPECT_EQ(round.wall_ms, 0.0) << "inline steps are not timed";
      }
      steps += round.edges;
      fixed += round.advances;
      dispatched += round.components;
    }
    EXPECT_EQ(steps, r.stats.llp_sweeps);
    EXPECT_EQ(fixed, r.stats.fixed_via_mwe);
    EXPECT_EQ(dispatched, r.stats.llp_dispatched_sweeps);
  }
}

}  // namespace
}  // namespace llpmst
