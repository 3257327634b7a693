// The library's central property test: every MST/MSF implementation returns
// the IDENTICAL edge set (the unique priority-ordered MSF) on a broad sweep
// of generator families, sizes, seeds, and thread counts — and that edge set
// passes full minimality verification.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "graph/generators/random_graph.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/generators/road.hpp"
#include "graph/generators/special.hpp"
#include "llp/llp_boruvka.hpp"
#include "llp/llp_prim_parallel.hpp"
#include "mst/kruskal.hpp"
#include "mst/parallel_boruvka.hpp"
#include "mst/verifier.hpp"
#include "test_util.hpp"

namespace llpmst {
namespace {

using test::all_msf_algorithms;
using test::csr;

enum class Family { kErdosRenyi, kRmat, kRoad, kGeometric, kTree, kForest,
                    kComplete };

const char* family_name(Family f) {
  switch (f) {
    case Family::kErdosRenyi: return "erdos_renyi";
    case Family::kRmat: return "rmat";
    case Family::kRoad: return "road";
    case Family::kGeometric: return "geometric";
    case Family::kTree: return "tree";
    case Family::kForest: return "forest";
    case Family::kComplete: return "complete";
  }
  return "?";
}

EdgeList make_graph(Family f, int size_class, std::uint64_t seed) {
  switch (f) {
    case Family::kErdosRenyi: {
      ErdosRenyiParams p;
      p.num_vertices = 200u << size_class;
      p.num_edges = p.num_vertices * 4;
      p.seed = seed;
      return generate_erdos_renyi(p);
    }
    case Family::kRmat: {
      RmatParams p;
      p.scale = 8 + size_class;
      p.edge_factor = 8;
      p.seed = seed;
      return generate_rmat(p);
    }
    case Family::kRoad: {
      RoadParams p;
      p.width = 16u << size_class;
      p.height = 16;
      p.seed = seed;
      return generate_road_network(p);
    }
    case Family::kGeometric: {
      GeometricParams p;
      p.num_vertices = 250u << size_class;
      p.neighbors = 5;
      p.seed = seed;
      return generate_geometric(p);
    }
    case Family::kTree:
      return make_random_tree(300u << size_class, seed);
    case Family::kForest:
      return make_forest(5, 60u << size_class, seed);
    case Family::kComplete:
      return make_complete(30u << size_class, seed);
  }
  return EdgeList(0);
}

class MsfEquivalence
    : public testing::TestWithParam<std::tuple<Family, int, int, int>> {};

TEST_P(MsfEquivalence, AllAlgorithmsAgreeAndVerify) {
  const auto [family, size_class, seed, threads] = GetParam();
  EdgeList list = make_graph(family, size_class, static_cast<std::uint64_t>(seed));
  const CsrGraph g = csr(list);

  ThreadPool pool(static_cast<std::size_t>(threads));
  const MstResult reference = kruskal(g);
  {
    const VerifyResult v = verify_msf(g, reference);
    ASSERT_TRUE(v.ok) << family_name(family) << ": " << v.error;
  }

  for (const auto& algo : all_msf_algorithms()) {
    const MstResult r = algo.run(g, pool);
    ASSERT_EQ(r.edges, reference.edges)
        << algo.name << " on " << family_name(family) << " size "
        << size_class << " seed " << seed << " threads " << threads;
    ASSERT_EQ(r.total_weight, reference.total_weight) << algo.name;
    ASSERT_EQ(r.num_trees, reference.num_trees) << algo.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MsfEquivalence,
    testing::Combine(testing::Values(Family::kErdosRenyi, Family::kRmat,
                                     Family::kRoad, Family::kGeometric,
                                     Family::kTree, Family::kForest,
                                     Family::kComplete),
                     testing::Values(0, 1, 2),  // size classes
                     testing::Values(1, 2, 3),  // seeds
                     testing::Values(1, 4, 8)),  // thread counts
    [](const testing::TestParamInfo<MsfEquivalence::ParamType>& info) {
      return std::string(family_name(std::get<0>(info.param))) + "_s" +
             std::to_string(std::get<1>(info.param)) + "_seed" +
             std::to_string(std::get<2>(info.param)) + "_t" +
             std::to_string(std::get<3>(info.param));
    });

// The structural fact LLP-Prim's early fixing and LLP-Boruvka's hooking
// both stand on (the paper's Lemma 2 via the cut property): every vertex's
// minimum-weight incident edge is an MSF edge.
TEST(MstStructuralLemmas, EveryVertexMweIsInTheMsf) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ErdosRenyiParams p;
    p.num_vertices = 400;
    p.num_edges = 2400;
    p.seed = seed;
    const CsrGraph g = csr(generate_erdos_renyi(p));
    const MstResult msf = kruskal(g);
    std::vector<bool> in_msf(g.num_edges(), false);
    for (const EdgeId e : msf.edges) in_msf[e] = true;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const EdgePriority mwe = g.min_incident_priority(v);
      if (mwe == kInfinitePriority) continue;  // isolated vertex
      ASSERT_TRUE(in_msf[priority_edge(mwe)])
          << "vertex " << v << "'s MWE is not an MSF edge (seed " << seed
          << ")";
    }
  }
}

// Repeated-run determinism under maximum thread contention: racy execution,
// unique result.
TEST(MsfDeterminism, RepeatedParallelRunsIdentical) {
  RmatParams p;
  p.scale = 11;
  p.edge_factor = 8;
  p.seed = 5;
  EdgeList list = generate_rmat(p);
  connect_components(list);
  const CsrGraph g = csr(list);
  ThreadPool pool(8);
  RunContext ctx(pool);

  const MstResult reference = kruskal(g);
  for (int run = 0; run < 10; ++run) {
    ASSERT_EQ(llp_boruvka(g, ctx).edges, reference.edges) << "run " << run;
    ASSERT_EQ(llp_prim_parallel(g, ctx).edges, reference.edges)
        << "run " << run;
    ASSERT_EQ(parallel_boruvka(g, ctx).edges, reference.edges)
        << "run " << run;
  }
}

}  // namespace
}  // namespace llpmst
