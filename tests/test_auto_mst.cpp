// The algorithm portfolio (mst/auto.hpp): one test per cell of the policy
// table, each checking the pick and that the forest is Kruskal's.  Reported
// algorithm names are the canonical registry names.
#include <gtest/gtest.h>

#include "graph/generators/by_kind.hpp"
#include "graph/generators/road.hpp"
#include "graph/generators/special.hpp"
#include "mst/auto.hpp"
#include "mst/kruskal.hpp"
#include "test_util.hpp"

namespace llpmst {
namespace {

using test::csr;

CsrGraph road_graph() {
  RoadParams p;
  p.width = 40;
  p.height = 40;
  return csr(generate_road_network(p));
}

// One input per (density, connectivity) column of the policy table; the
// preconditions are asserted so a generator change cannot silently move an
// input to another column.
struct Inputs {
  CsrGraph sparse_tree = road_graph();                  // m/n ~ 1.9
  CsrGraph sparse_forest = csr(make_forest(3, 50, 7));  // m/n < 1
  CsrGraph dense_tree = csr(*generate_by_kind("er", 10, 1));      // ~ 7.9
  CsrGraph dense_forest = csr(*generate_by_kind("rmat", 10, 1));  // ~ 10.4
};

const Inputs& inputs() {
  static const Inputs in;
  return in;
}

/// Runs auto at `threads` on `g`: it must pick `entry`, not fall back, and
/// return Kruskal's forest.
void expect_pick(std::size_t threads, const CsrGraph& g, bool dense,
                 bool connected, const char* entry) {
  ASSERT_EQ(g.num_edges() >= 4 * g.num_vertices(), dense);
  ThreadPool pool(threads);
  RunContext ctx(pool);
  ASSERT_EQ(ctx.connected(g), connected);
  const AutoMstResult r = minimum_spanning_forest(g, ctx);
  EXPECT_EQ(r.algorithm, entry);
  EXPECT_FALSE(r.fell_back);
  EXPECT_EQ(r.result.edges, kruskal(g).edges);
}

/// One table cell: a thread band and a density, on a connected and on a
/// forest input.
void expect_cell(std::size_t threads, bool dense, const char* tree_entry,
                 const char* forest_entry) {
  const Inputs& in = inputs();
  SCOPED_TRACE(testing::Message() << threads << " threads, "
                                  << (dense ? "dense" : "sparse"));
  expect_pick(threads, dense ? in.dense_tree : in.sparse_tree, dense, true,
              tree_entry);
  expect_pick(threads, dense ? in.dense_forest : in.sparse_forest, dense,
              false, forest_entry);
}

TEST(AutoMst, OneThreadSparsePicksKruskal) {
  expect_cell(1, false, "kruskal", "kruskal");
}

TEST(AutoMst, OneThreadDensePicksKruskalOnTreesLlpPrimOnForests) {
  expect_cell(1, true, "kruskal", "llp-prim-parallel");
}

TEST(AutoMst, TwoThreadsSparsePickKruskal) {
  expect_cell(2, false, "kruskal", "kruskal");
  expect_cell(3, false, "kruskal", "kruskal");
}

TEST(AutoMst, TwoThreadsDensePickKruskalOnTreesLlpBoruvkaOnForests) {
  expect_cell(2, true, "kruskal", "llp-boruvka");
  expect_cell(3, true, "kruskal", "llp-boruvka");
}

TEST(AutoMst, FourThreadsSparsePickKruskal) {
  expect_cell(4, false, "kruskal", "kruskal");
}

TEST(AutoMst, FourThreadsDensePickLlpBoruvka) {
  expect_cell(4, true, "llp-boruvka", "llp-boruvka");
}

TEST(AutoMst, ManyThreadsPickLlpBoruvka) {
  // The paper's Fig. 3 crossover, kept for hosts the matrix cannot measure.
  expect_cell(8, false, "llp-boruvka", "llp-boruvka");
  expect_cell(8, true, "llp-boruvka", "llp-boruvka");
}

TEST(AutoMst, ExpiredDeadlineOnAKruskalCellFallsBackToTheExactForest) {
  // The Kruskal primary sees the expired budget before it allocates; the
  // fallback, which polls only the caller's token, builds the forest.
  const CsrGraph& g = inputs().sparse_tree;
  ThreadPool pool(2);
  RunContext ctx(pool);
  ctx.set_deadline_ms(1e-6);
  const AutoMstResult r = minimum_spanning_forest(g, ctx);
  EXPECT_TRUE(r.fell_back);
  EXPECT_EQ(r.algorithm, "kruskal");
  EXPECT_EQ(r.fallback_reason, "deadline_exceeded");
  EXPECT_EQ(r.result.stats.outcome, RunOutcome::kOk);
  EXPECT_EQ(r.result.edges, kruskal(g).edges);
}

TEST(AutoMst, EmptyGraph) {
  ThreadPool pool(2);
  RunContext ctx(pool);
  const CsrGraph g = csr(EdgeList(0));
  const AutoMstResult r = minimum_spanning_forest(g, ctx);
  EXPECT_EQ(r.algorithm, "trivial");
  EXPECT_TRUE(r.result.edges.empty());
}

TEST(AutoMst, ConnectivityAnswerIsCachedOnTheContext) {
  ThreadPool pool(2);
  RunContext ctx(pool);
  const CsrGraph g = road_graph();
  EXPECT_FALSE(ctx.components_cached(g));
  const AutoMstResult r = minimum_spanning_forest(g, ctx);
  // The selection's connectivity check seeds the cache; downstream
  // verification reuses it instead of recomputing components.
  EXPECT_TRUE(ctx.components_cached(g));
  EXPECT_EQ(ctx.num_components(g), 1u);
  EXPECT_EQ(r.result.num_trees, 1u);
}

}  // namespace
}  // namespace llpmst
