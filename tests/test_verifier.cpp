#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators/random_graph.hpp"
#include "graph/generators/special.hpp"
#include "mst/forest_path.hpp"
#include "mst/kruskal.hpp"
#include "mst/verifier.hpp"
#include "support/random.hpp"
#include "test_util.hpp"

namespace llpmst {
namespace {

using test::csr;

MstResult reference_msf(const CsrGraph& g) { return kruskal(g); }

TEST(Verifier, AcceptsCorrectMst) {
  const CsrGraph g = csr(make_paper_figure1());
  const MstResult r = reference_msf(g);
  EXPECT_TRUE(verify_spanning_forest(g, r).ok);
  EXPECT_TRUE(verify_msf(g, r).ok);
}

TEST(Verifier, AcceptsForest) {
  const CsrGraph g = csr(make_forest(4, 15, 3));
  const MstResult r = reference_msf(g);
  const VerifyResult v = verify_msf(g, r);
  EXPECT_TRUE(v.ok) << v.error;
}

TEST(Verifier, AcceptsEmptyAndTrivial) {
  const CsrGraph empty = csr(EdgeList(0));
  MstResult r;
  r.num_trees = 0;
  EXPECT_TRUE(verify_msf(empty, r).ok);

  const CsrGraph single = csr(EdgeList(1));
  MstResult r1;
  r1.num_trees = 1;
  EXPECT_TRUE(verify_msf(single, r1).ok);
}

TEST(Verifier, RejectsOutOfRangeEdge) {
  const CsrGraph g = csr(make_paper_figure1());
  MstResult r = reference_msf(g);
  r.edges.back() = 99;
  const VerifyResult v = verify_spanning_forest(g, r);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("out of range"), std::string::npos);
}

TEST(Verifier, RejectsDuplicateEdge) {
  const CsrGraph g = csr(make_paper_figure1());
  MstResult r = reference_msf(g);
  r.edges[1] = r.edges[0];
  EXPECT_FALSE(verify_spanning_forest(g, r).ok);
}

TEST(Verifier, RejectsDroppedEdge) {
  const CsrGraph g = csr(make_paper_figure1());
  MstResult r = reference_msf(g);
  r.total_weight -= g.edge(r.edges.back()).w;
  r.edges.pop_back();
  // Still acyclic but no longer spanning.
  const VerifyResult v = verify_spanning_forest(g, r);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("span"), std::string::npos);
}

TEST(Verifier, RejectsCycle) {
  const CsrGraph g = csr(make_paper_figure1());
  MstResult r = reference_msf(g);
  // Replace an edge with one closing a cycle among already-connected
  // vertices: with 4 tree edges over 5 vertices, adding any 5th distinct
  // edge must close a cycle.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (std::find(r.edges.begin(), r.edges.end(), e) == r.edges.end()) {
      r.edges.push_back(e);
      break;
    }
  }
  std::sort(r.edges.begin(), r.edges.end());
  const VerifyResult v = verify_spanning_forest(g, r);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("cycle"), std::string::npos);
}

TEST(Verifier, RejectsWrongTotalWeight) {
  const CsrGraph g = csr(make_paper_figure1());
  MstResult r = reference_msf(g);
  r.total_weight += 1;
  const VerifyResult v = verify_spanning_forest(g, r);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("total_weight"), std::string::npos);
}

TEST(Verifier, RejectsWrongTreeCount) {
  const CsrGraph g = csr(make_paper_figure1());
  MstResult r = reference_msf(g);
  r.num_trees = 2;
  EXPECT_FALSE(verify_spanning_forest(g, r).ok);
}

TEST(Verifier, PartialForestChecksShapeButNotSpanning) {
  // A run that stopped early hands back part of the forest: acyclic, with
  // a weight and tree count that match its edges, but not spanning.
  ErdosRenyiParams p;
  p.num_vertices = 200;
  p.num_edges = 700;
  p.seed = 6;
  const CsrGraph g = csr(generate_erdos_renyi(p));
  const MstResult full = reference_msf(g);
  MstResult r;
  r.edges.assign(full.edges.begin(),
                 full.edges.begin() + static_cast<std::ptrdiff_t>(
                                          full.edges.size() / 2));
  finalize_result(g, r);
  const VerifyResult partial = verify_partial_forest(g, r);
  EXPECT_TRUE(partial.ok) << partial.error;
  EXPECT_FALSE(verify_spanning_forest(g, r).ok);
  EXPECT_TRUE(verify_partial_forest(g, full).ok);

  MstResult wrong_count = r;
  wrong_count.num_trees += 1;
  EXPECT_FALSE(verify_partial_forest(g, wrong_count).ok);
  MstResult wrong_weight = r;
  wrong_weight.total_weight += 1;
  EXPECT_FALSE(verify_partial_forest(g, wrong_weight).ok);

  // Every edge outside a spanning forest closes a cycle with it.
  MstResult cyclic = full;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!std::binary_search(full.edges.begin(), full.edges.end(), e)) {
      cyclic.edges.push_back(e);
      break;
    }
  }
  finalize_result(g, cyclic);
  const VerifyResult v = verify_partial_forest(g, cyclic);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("cycle"), std::string::npos);
}

TEST(Verifier, RejectsNonMinimalSpanningTree) {
  // Build a spanning tree that is valid but not minimal: swap a tree edge
  // for a heavier non-tree edge that keeps the graph spanning.
  const CsrGraph g = csr(make_paper_figure1());
  MstResult r = reference_msf(g);
  // Fig.1: MST uses b-c (3); swapping it for c-d (9) still spans
  // ({a-c, b-d, d-e, c-d}) but is heavier.
  EdgeId bc = kInvalidEdge, cd = kInvalidEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const WeightedEdge& we = g.edge(e);
    if (we.w == 3) bc = e;
    if (we.w == 9) cd = e;
  }
  ASSERT_NE(bc, kInvalidEdge);
  ASSERT_NE(cd, kInvalidEdge);
  std::replace(r.edges.begin(), r.edges.end(), bc, cd);
  std::sort(r.edges.begin(), r.edges.end());
  r.total_weight = r.total_weight - 3 + 9;

  EXPECT_TRUE(verify_spanning_forest(g, r).ok);  // shape is fine...
  const VerifyResult v = verify_msf(g, r);       // ...minimality is not
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("cycle property"), std::string::npos);
}

TEST(Verifier, RejectsEveryRandomSingleEdgeSwap) {
  // The MSF is unique (packed priorities), so replacing any chosen edge by
  // any non-chosen edge yields a different set that verify_msf must reject
  // — either as non-spanning, cyclic, or non-minimal.
  Xoshiro256 rng(77);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ErdosRenyiParams p;
    p.num_vertices = 60;
    p.num_edges = 240;
    p.seed = seed;
    const CsrGraph g = csr(generate_erdos_renyi(p));
    const MstResult good = reference_msf(g);
    if (good.edges.empty() || good.edges.size() == g.num_edges()) continue;

    std::vector<bool> chosen(g.num_edges(), false);
    for (const EdgeId e : good.edges) chosen[e] = true;

    for (int trial = 0; trial < 10; ++trial) {
      MstResult mutated = good;
      const std::size_t out_idx = rng.next_below(mutated.edges.size());
      EdgeId in_edge;
      do {
        in_edge = static_cast<EdgeId>(rng.next_below(g.num_edges()));
      } while (chosen[in_edge]);
      const EdgeId out_edge = mutated.edges[out_idx];
      mutated.edges[out_idx] = in_edge;
      std::sort(mutated.edges.begin(), mutated.edges.end());
      mutated.total_weight =
          mutated.total_weight - g.edge(out_edge).w + g.edge(in_edge).w;
      ASSERT_FALSE(verify_msf(g, mutated).ok)
          << "seed " << seed << " swap " << out_edge << "->" << in_edge;
    }
  }
}

TEST(Verifier, MinimalityCheckOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ErdosRenyiParams p;
    p.num_vertices = 120;
    p.num_edges = 500;
    p.seed = seed;
    const CsrGraph g = csr(generate_erdos_renyi(p));
    const MstResult r = reference_msf(g);
    const VerifyResult v = verify_msf(g, r);
    EXPECT_TRUE(v.ok) << "seed " << seed << ": " << v.error;
  }
}

// finalize_result: the bitmap pass that orders every algorithm's forest.

TEST(FinalizeResult, AnyInputOrderGivesTheAscendingForest) {
  ErdosRenyiParams p;
  p.num_vertices = 200;
  p.num_edges = 700;
  p.seed = 4;
  const CsrGraph g = csr(generate_erdos_renyi(p));
  const MstResult reference = reference_msf(g);
  std::vector<EdgeId> reversed(reference.edges.rbegin(),
                               reference.edges.rend());
  std::vector<EdgeId> shuffled = reference.edges;
  Xoshiro256 rng(9);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
  }
  for (const std::vector<EdgeId>& order : {reversed, shuffled}) {
    MstResult r;
    r.edges = order;
    r.total_weight = 12345;  // stale totals are recomputed, not kept
    r.weight_overflow = true;
    finalize_result(g, r);
    EXPECT_EQ(r.edges, reference.edges);
    EXPECT_EQ(r.total_weight, reference.total_weight);
    EXPECT_FALSE(r.weight_overflow);
    EXPECT_EQ(r.num_trees, reference.num_trees);
    EXPECT_TRUE(verify_msf(g, r).ok);
  }
}

TEST(FinalizeResult, EmptyForest) {
  const CsrGraph g = csr(make_paper_figure1());
  MstResult r;
  r.total_weight = 7;
  finalize_result(g, r);
  EXPECT_TRUE(r.edges.empty());
  EXPECT_EQ(r.total_weight, 0u);
  EXPECT_FALSE(r.weight_overflow);
  EXPECT_EQ(r.num_trees, g.num_vertices());
}

TEST(FinalizeResult, WordBoundariesAndTheLastId) {
  // 66 edges: two bitmap words, the second one partial.
  const CsrGraph g = csr(make_complete(12, 3));
  ASSERT_EQ(g.num_edges(), 66u);
  const EdgeId last = static_cast<EdgeId>(g.num_edges() - 1);
  MstResult r;
  r.edges = {last, 64, 63, 0};
  finalize_result(g, r);
  EXPECT_EQ(r.edges, (std::vector<EdgeId>{0, 63, 64, last}));
  TotalWeight expected = 0;
  for (const EdgeId e : r.edges) expected += g.edge(e).w;
  EXPECT_EQ(r.total_weight, expected);
  EXPECT_EQ(r.num_trees, g.num_vertices() - 4);
}

TEST(FinalizeResult, DuplicateIdStillFailsVerification) {
  const CsrGraph g = csr(make_paper_figure1());
  MstResult r = reference_msf(g);
  const std::size_t size = r.edges.size();
  r.edges.push_back(r.edges.front());
  finalize_result(g, r);
  EXPECT_EQ(r.edges.size(), size + 1);  // not merged away
  const VerifyResult v = verify_spanning_forest(g, r);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("duplicate"), std::string::npos);
}

TEST(FinalizeResult, OutOfRangeIdStillFailsVerification) {
  const CsrGraph g = csr(make_paper_figure1());
  MstResult r = reference_msf(g);
  const std::size_t size = r.edges.size();
  r.edges.insert(r.edges.begin(), static_cast<EdgeId>(g.num_edges()));
  finalize_result(g, r);
  EXPECT_EQ(r.edges.size(), size + 1);
  const VerifyResult v = verify_spanning_forest(g, r);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("out of range"), std::string::npos);
}

// ---------------------------------------------------- forest path index

TEST(ForestPathIndex, PathGraphQueries) {
  // Path 0-1-2-3 with weights 10, 20, 5.
  EdgeList list(4);
  list.add_edge(0, 1, 10);
  list.add_edge(1, 2, 20);
  list.add_edge(2, 3, 5);
  list.normalize();
  const CsrGraph g = csr(list);
  std::vector<EdgeId> all{0, 1, 2};
  const ForestPathIndex idx(g, all);

  EXPECT_TRUE(idx.connected(0, 3));
  EXPECT_EQ(priority_weight(idx.max_on_path(0, 3)), 20u);
  EXPECT_EQ(priority_weight(idx.max_on_path(2, 3)), 5u);
  EXPECT_EQ(idx.max_on_path(1, 1), 0u);
}

TEST(ForestPathIndex, DisconnectedTrees) {
  EdgeList list(4);
  list.add_edge(0, 1, 7);
  list.add_edge(2, 3, 9);
  list.normalize();
  const CsrGraph g = csr(list);
  const ForestPathIndex idx(g, {0, 1});
  EXPECT_FALSE(idx.connected(0, 2));
  EXPECT_TRUE(idx.connected(2, 3));
  // Cross-tree edges are always light.
  EXPECT_TRUE(idx.is_light(0, 2, make_priority(1000, 5)));
}

TEST(ForestPathIndex, IsLightMatchesCycleProperty) {
  const CsrGraph g = csr(make_paper_figure1());
  const MstResult mst = kruskal(g);
  const ForestPathIndex idx(g, mst.edges);
  // Tree edges ARE light w.r.t. their own tree (they equal the path max and
  // heaviness is strict), so a filter on this test keeps the forest's edges.
  for (const EdgeId e : mst.edges) {
    const WeightedEdge& we = g.edge(e);
    EXPECT_TRUE(idx.is_light(we.u, we.v, g.edge_priority(e)));
  }
  // Non-tree edges of an MST are F-heavy (cycle property).
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (std::find(mst.edges.begin(), mst.edges.end(), e) != mst.edges.end()) {
      continue;
    }
    const WeightedEdge& we = g.edge(e);
    EXPECT_FALSE(idx.is_light(we.u, we.v, g.edge_priority(e)))
        << "edge " << e;
  }
}

}  // namespace
}  // namespace llpmst
