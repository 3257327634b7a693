// LLP-Boruvka specifics: engine configurations, forests, round structure,
// pointer-jumping statistics.
#include <gtest/gtest.h>

#include "graph/algorithms/connected_components.hpp"
#include "graph/generators/random_graph.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/generators/special.hpp"
#include "llp/llp_boruvka.hpp"
#include "mst/boruvka.hpp"
#include "mst/kruskal.hpp"
#include "mst/verifier.hpp"
#include "test_util.hpp"

namespace llpmst {
namespace {

using test::csr;

class LlpBoruvka : public testing::TestWithParam<int> {
 protected:
  ThreadPool pool_{static_cast<std::size_t>(GetParam())};
  RunContext ctx_{pool_};
};
INSTANTIATE_TEST_SUITE_P(Threads, LlpBoruvka, testing::Values(1, 2, 4, 8));

TEST_P(LlpBoruvka, AllEngineConfigsProduceTheMsf) {
  ErdosRenyiParams p;
  p.num_vertices = 3000;
  p.num_edges = 12000;
  p.seed = 9;
  const CsrGraph g = csr(generate_erdos_renyi(p));
  const MstResult reference = kruskal(g);
  for (const auto jumping :
       {PointerJumping::kAsynchronous, PointerJumping::kSynchronized}) {
    BoruvkaConfig c;
    c.jumping = jumping;
    const MstResult r = llp_boruvka_configured(g, ctx_, c);
    ASSERT_EQ(r.edges, reference.edges)
        << "async=" << (jumping == PointerJumping::kAsynchronous);
  }
}

TEST_P(LlpBoruvka, HandlesForestsAndIsolatedVertices) {
  EdgeList list = make_forest(6, 40, 13);
  list.ensure_vertices(list.num_vertices() + 5);  // extra isolated vertices
  const CsrGraph g = csr(list);
  const MstResult r = llp_boruvka(g, ctx_);
  const MstResult reference = kruskal(g);
  EXPECT_EQ(r.edges, reference.edges);
  EXPECT_EQ(r.num_trees, 6u + 5u);
  const VerifyResult v = verify_msf(g, r);
  EXPECT_TRUE(v.ok) << v.error;
}

TEST_P(LlpBoruvka, PathGraphWorstCaseRounds) {
  // A path halves its component count per round: rounds ~ log2(n).
  const CsrGraph g = csr(make_path(1024));
  const MstResult r = llp_boruvka(g, ctx_);
  EXPECT_EQ(r.edges.size(), 1023u);
  EXPECT_LE(r.stats.rounds, 11u);
}

TEST_P(LlpBoruvka, StarGraphOneRound) {
  const CsrGraph g = csr(make_star(512));
  const MstResult r = llp_boruvka(g, ctx_);
  EXPECT_EQ(r.edges.size(), 511u);
  // Every leaf's MWE is its star edge; one round suffices (a second may
  // run to observe emptiness depending on contraction, allow 2).
  EXPECT_LE(r.stats.rounds, 2u);
}

TEST_P(LlpBoruvka, MutualMweSymmetryBreaking) {
  // Two vertices joined by one edge: both pick it; the smaller id must stay
  // root and the edge must appear exactly once.
  EdgeList list(2);
  list.add_edge(0, 1, 7);
  list.normalize();
  const CsrGraph g = csr(list);
  const MstResult r = llp_boruvka(g, ctx_);
  EXPECT_EQ(r.edges, (std::vector<EdgeId>{0}));
  EXPECT_EQ(r.num_trees, 1u);
}

TEST_P(LlpBoruvka, ParallelEdgeBundlesWithoutDedup) {
  // Contracted multigraphs: two triangles contract into one parallel
  // bundle; the contraction must keep the bundle's true minimum.
  EdgeList list(6);
  // Two triangles bridged by three parallel-ish paths of different weight.
  list.add_edge(0, 1, 1);
  list.add_edge(1, 2, 2);
  list.add_edge(0, 2, 3);
  list.add_edge(3, 4, 1);
  list.add_edge(4, 5, 2);
  list.add_edge(3, 5, 3);
  list.add_edge(0, 3, 50);
  list.add_edge(1, 4, 40);
  list.add_edge(2, 5, 30);
  list.normalize();
  const CsrGraph g = csr(list);
  const MstResult r = llp_boruvka(g, ctx_);
  EXPECT_EQ(r.edges, kruskal(g).edges);
  EXPECT_EQ(r.total_weight, 1u + 2 + 1 + 2 + 30);
}

TEST_P(LlpBoruvka, PointerJumpStatsPopulatedOnDeepTrees) {
  // A long path creates deep hook trees; pointer jumping must do real work.
  const CsrGraph g = csr(make_path(4096, 0));
  const MstResult r = llp_boruvka(g, ctx_);
  EXPECT_EQ(r.edges.size(), 4095u);
  EXPECT_GT(r.stats.pointer_jumps, 0u);
}

TEST(LlpBoruvkaSequentialEquivalence, MatchesClassicBoruvka) {
  ThreadPool pool(1);
  RunContext ctx(pool);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ErdosRenyiParams p;
    p.num_vertices = 500;
    p.num_edges = 1500;
    p.seed = seed;
    const CsrGraph g = csr(generate_erdos_renyi(p));
    EXPECT_EQ(llp_boruvka(g, ctx).edges, boruvka(g).edges)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace llpmst
