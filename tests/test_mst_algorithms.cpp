// Exact MST/MSF behaviour of every algorithm on known graphs, including the
// paper's Fig. 1 worked example.
#include <gtest/gtest.h>

#include <set>

#include "graph/generators/special.hpp"
#include "llp/llp_boruvka.hpp"
#include "llp/llp_prim.hpp"
#include "mst/kruskal.hpp"
#include "mst/parallel_boruvka.hpp"
#include "mst/prim.hpp"
#include "mst/prim_lazy.hpp"
#include "mst/verifier.hpp"
#include "test_util.hpp"

namespace llpmst {
namespace {

using test::all_msf_algorithms;
using test::csr;

/// Weights of the chosen edges (the paper discusses MSTs by edge weight).
std::multiset<Weight> edge_weights(const CsrGraph& g, const MstResult& r) {
  std::multiset<Weight> w;
  for (EdgeId e : r.edges) w.insert(g.edge(e).w);
  return w;
}

TEST(MstAlgorithms, PaperFigure1AllAlgorithms) {
  const CsrGraph g = csr(make_paper_figure1());
  ThreadPool pool(2);
  for (const auto& algo : all_msf_algorithms()) {
    const MstResult r = algo.run(g, pool);
    EXPECT_EQ(r.total_weight, 16u) << algo.name;
    EXPECT_EQ(edge_weights(g, r), (std::multiset<Weight>{2, 3, 4, 7}))
        << algo.name;  // the paper's MST {2, 3, 4, 7}
    EXPECT_EQ(r.num_trees, 1u) << algo.name;
    const VerifyResult v = verify_msf(g, r);
    EXPECT_TRUE(v.ok) << algo.name << ": " << v.error;
  }
}

TEST(MstAlgorithms, SingleVertexGraph) {
  const CsrGraph g = csr(EdgeList(1));
  ThreadPool pool(2);
  for (const auto& algo : all_msf_algorithms()) {
    const MstResult r = algo.run(g, pool);
    EXPECT_TRUE(r.edges.empty()) << algo.name;
    EXPECT_EQ(r.total_weight, 0u) << algo.name;
    EXPECT_EQ(r.num_trees, 1u) << algo.name;
  }
}

TEST(MstAlgorithms, TwoVerticesOneEdge) {
  EdgeList list(2);
  list.add_edge(0, 1, 42);
  list.normalize();
  const CsrGraph g = csr(list);
  ThreadPool pool(2);
  for (const auto& algo : all_msf_algorithms()) {
    const MstResult r = algo.run(g, pool);
    EXPECT_EQ(r.edges, (std::vector<EdgeId>{0})) << algo.name;
    EXPECT_EQ(r.total_weight, 42u) << algo.name;
  }
}

TEST(MstAlgorithms, TreeInputReturnsAllEdges) {
  const EdgeList list = make_random_tree(64, 11);
  const CsrGraph g = csr(list);
  ThreadPool pool(4);
  for (const auto& algo : all_msf_algorithms()) {
    const MstResult r = algo.run(g, pool);
    EXPECT_EQ(r.edges.size(), 63u) << algo.name;
    EXPECT_EQ(r.total_weight, g.total_weight()) << algo.name;
  }
}

TEST(MstAlgorithms, CycleDropsExactlyTheHeaviestEdge) {
  const EdgeList list = make_cycle(8);  // distinct wrapped weights
  const CsrGraph g = csr(list);
  Weight heaviest = 0;
  for (const WeightedEdge& e : g.edges()) heaviest = std::max(heaviest, e.w);
  ThreadPool pool(2);
  for (const auto& algo : all_msf_algorithms()) {
    const MstResult r = algo.run(g, pool);
    EXPECT_EQ(r.edges.size(), 7u) << algo.name;
    EXPECT_EQ(r.total_weight, g.total_weight() - heaviest) << algo.name;
  }
}

TEST(MstAlgorithms, EqualWeightsResolvedIdentically) {
  // All weights equal: priorities fall back to edge ids, and every
  // algorithm must still return the same forest.
  const EdgeList list = make_complete(8, /*seed=*/1);
  EdgeList tied(8);
  for (const WeightedEdge& e : list.edges()) tied.add_edge(e.u, e.v, 100);
  tied.normalize();
  const CsrGraph g = csr(tied);
  ThreadPool pool(4);
  const MstResult reference = kruskal(g);
  for (const auto& algo : all_msf_algorithms()) {
    const MstResult r = algo.run(g, pool);
    EXPECT_EQ(r.edges, reference.edges) << algo.name;
  }
  EXPECT_TRUE(verify_msf(g, reference).ok);
}

TEST(MstAlgorithms, ForestAlgorithmsHandleDisconnected) {
  const EdgeList list = make_forest(3, 20, 21);
  const CsrGraph g = csr(list);
  ThreadPool pool(4);
  const MstResult reference = kruskal(g);
  EXPECT_EQ(reference.num_trees, 3u);
  for (const auto& algo : all_msf_algorithms()) {
    const MstResult r = algo.run(g, pool);
    EXPECT_EQ(r.edges, reference.edges) << algo.name;
    EXPECT_EQ(r.num_trees, 3u) << algo.name;
  }
}

TEST(MstAlgorithms, IsolatedVerticesCountAsTrees) {
  EdgeList list(5);
  list.add_edge(0, 1, 3);  // vertices 2, 3, 4 isolated
  list.normalize();
  const CsrGraph g = csr(list);
  ThreadPool pool(2);
  for (const auto& algo : all_msf_algorithms()) {
    const MstResult r = algo.run(g, pool);
    EXPECT_EQ(r.edges.size(), 1u) << algo.name;
    EXPECT_EQ(r.num_trees, 4u) << algo.name;
  }
}

TEST(MstAlgorithms, PrimFamilyReturnsKruskalsForestOnDisconnected) {
  // A drained heap restarts from the next unfixed vertex, from any root.
  const EdgeList list = make_forest(2, 5, 3);
  const CsrGraph g = csr(list);
  const MstResult reference = kruskal(g);
  ASSERT_EQ(reference.num_trees, 2u);
  for (const VertexId root : {VertexId{0}, VertexId{7}}) {
    SCOPED_TRACE(testing::Message() << "root " << root);
    for (const MstResult& r :
         {prim(g, root), prim_lazy(g, root), llp_prim(g, root)}) {
      EXPECT_EQ(r.edges, reference.edges);
      EXPECT_EQ(r.num_trees, 2u);
      EXPECT_EQ(r.total_weight, reference.total_weight);
    }
  }
}

TEST(MstAlgorithms, PrimRootChoiceDoesNotChangeTree) {
  const EdgeList list = make_complete(12, 5);
  const CsrGraph g = csr(list);
  const MstResult from0 = prim(g, 0);
  for (VertexId root = 1; root < 12; root += 3) {
    EXPECT_EQ(prim(g, root).edges, from0.edges) << "root " << root;
    EXPECT_EQ(llp_prim(g, root).edges, from0.edges) << "root " << root;
  }
}

TEST(MstAlgorithms, StarGraphTakesAllEdges) {
  const CsrGraph g = csr(make_star(16));
  ThreadPool pool(2);
  for (const auto& algo : all_msf_algorithms()) {
    EXPECT_EQ(algo.run(g, pool).edges.size(), 15u) << algo.name;
  }
}

TEST(MstAlgorithms, BoruvkaRoundCountLogarithmic) {
  const CsrGraph g = csr(make_complete(64, 9));
  ThreadPool pool(2);
  RunContext ctx(pool);
  const MstResult r = parallel_boruvka(g, ctx);
  // Components at least halve per round: <= ceil(log2(64)) + 1 slack.
  EXPECT_LE(r.stats.rounds, 7u);
  EXPECT_GE(r.stats.rounds, 1u);
  const MstResult llp = llp_boruvka(g, ctx);
  EXPECT_LE(llp.stats.rounds, 7u);
}

TEST(MstAlgorithms, LazyHeapPrimCountsMoreHeapTraffic) {
  const CsrGraph g = csr(make_complete(40, 13));
  const MstResult eager = prim(g);
  const MstResult lazy = prim_lazy(g);
  EXPECT_EQ(eager.edges, lazy.edges);
  // The lazy variant re-inserts instead of adjusting, so it must push at
  // least as many entries, and pop at least as many (stale pops).
  EXPECT_GE(lazy.stats.heap.pushes, eager.stats.heap.pushes);
  EXPECT_GE(lazy.stats.heap.pops, eager.stats.heap.pops);
  EXPECT_EQ(eager.stats.heap.pushes, 40u);  // indexed: one push per vertex
}

}  // namespace
}  // namespace llpmst
