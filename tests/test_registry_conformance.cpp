// Registry conformance: every registered MST/MSF algorithm, discovered via
// mst_algorithms() rather than a hand-maintained list, is run through a
// fixed workload matrix (sparse, dense, forest, empty, single-vertex) and
// must (a) match the Kruskal oracle bit for bit and (b) pass the exact
// minimality verifier.  Every entry runs every workload, forests included:
// the registry has one contract and no capability to skip on.  A new
// algorithm registered in src/mst/registry.cpp is covered here with zero
// test edits.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/run_context.hpp"
#include "graph/generators/random_graph.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/generators/special.hpp"
#include "mst/kruskal.hpp"
#include "mst/registry.hpp"
#include "mst/verifier.hpp"
#include "support/cancel.hpp"
#include "support/status.hpp"
#include "test_util.hpp"

namespace llpmst {
namespace {

using test::csr;

struct ConformanceCase {
  const char* name;
  CsrGraph graph;
};

std::vector<ConformanceCase> conformance_cases() {
  std::vector<ConformanceCase> cases;

  ErdosRenyiParams sparse;
  sparse.num_vertices = 800;
  sparse.num_edges = 1800;
  sparse.seed = 21;
  EdgeList sparse_list = generate_erdos_renyi(sparse);
  connect_components(sparse_list);
  cases.push_back({"sparse", csr(sparse_list)});

  ErdosRenyiParams dense;
  dense.num_vertices = 300;
  dense.num_edges = 9000;
  dense.seed = 22;
  EdgeList dense_list = generate_erdos_renyi(dense);
  connect_components(dense_list);
  cases.push_back({"dense", csr(dense_list)});

  cases.push_back({"forest", csr(make_forest(4, 60, 23))});
  cases.push_back({"empty", csr(EdgeList(0))});
  cases.push_back({"single-vertex", csr(EdgeList(1))});
  return cases;
}

class RegistryConformance : public testing::TestWithParam<int> {
 protected:
  ThreadPool pool_{static_cast<std::size_t>(GetParam())};
};
INSTANTIATE_TEST_SUITE_P(Threads, RegistryConformance, testing::Values(1, 4));

TEST_P(RegistryConformance, EveryAlgorithmMatchesKruskalAndVerifies) {
  RunContext ctx(pool_);
  for (const ConformanceCase& c : conformance_cases()) {
    SCOPED_TRACE(c.name);
    const MstResult reference = kruskal(c.graph);
    for (const MstAlgorithm& algo : mst_algorithms()) {
      SCOPED_TRACE(algo.name);
      const MstResult r = algo.run(c.graph, ctx);
      EXPECT_EQ(r.edges, reference.edges);
      EXPECT_EQ(r.total_weight, reference.total_weight);
      EXPECT_EQ(r.num_trees, reference.num_trees);
      const VerifyResult v = verify_msf(c.graph, r, ctx);
      EXPECT_TRUE(v.ok) << v.error;
    }
  }
}

TEST_P(RegistryConformance, ScratchReuseAcrossAlgorithmsIsClean) {
  // The whole matrix above runs through ONE context; this test pins the
  // property directly: the same arena driven through graphs of very
  // different shapes, twice per algorithm, must stay bit-identical.
  RunContext ctx(pool_);
  const CsrGraph big = csr(make_complete(40, 31));
  const CsrGraph small = csr(make_forest(3, 10, 32));
  for (const MstAlgorithm& algo : mst_algorithms()) {
    SCOPED_TRACE(algo.name);
    const MstResult b1 = algo.run(big, ctx);
    const MstResult s1 = algo.run(small, ctx);
    const MstResult b2 = algo.run(big, ctx);
    const MstResult s2 = algo.run(small, ctx);
    EXPECT_EQ(b1.edges, b2.edges);
    EXPECT_EQ(s1.edges, s2.edges);
    EXPECT_EQ(b1.edges, kruskal(big).edges);
    EXPECT_EQ(s1.edges, kruskal(small).edges);
  }
}

TEST(RegistryInvariants, NamesAreUniqueNonEmptyAndLookupRoundTrips) {
  std::vector<std::string> names;
  for (const MstAlgorithm& a : mst_algorithms()) {
    ASSERT_NE(a.name, nullptr);
    ASSERT_NE(a.label, nullptr);
    ASSERT_NE(a.summary, nullptr);
    ASSERT_NE(a.run, nullptr);
    EXPECT_FALSE(std::string(a.name).empty());
    names.emplace_back(a.name);
    const MstAlgorithm* found = find_mst_algorithm(a.name);
    ASSERT_NE(found, nullptr) << a.name;
    EXPECT_EQ(found, &a) << a.name;  // lookup returns the entry itself
  }
  // Exactly these entries, in presentation order: a silently dropped,
  // added or duplicated entry fails here.
  const std::vector<std::string> expected{
      "kruskal", "prim", "prim-lazy", "boruvka", "filter-kruskal",
      "parallel-boruvka", "llp-prim", "llp-prim-parallel", "llp-boruvka"};
  EXPECT_EQ(names, expected);
  EXPECT_EQ(find_mst_algorithm("no-such-algorithm"), nullptr);
  // "auto" is a policy over the registry, not an entry in it.
  EXPECT_EQ(find_mst_algorithm("auto"), nullptr);
}

TEST(RegistryInvariants, CapabilityFlagsMatchKnownEntries) {
  // `parallel` is the one flag; it says whether the entry uses the pool.
  const std::set<std::string> parallel{"filter-kruskal", "parallel-boruvka",
                                       "llp-prim-parallel", "llp-boruvka"};
  for (const MstAlgorithm& a : mst_algorithms()) {
    EXPECT_EQ(a.caps.parallel, parallel.count(a.name) == 1) << a.name;
  }
}

TEST(RegistryInvariants, DescribeCapsFormat) {
  // One token per entry, the one --list-algos and the README table carry.
  AlgoCaps caps;
  caps.parallel = true;
  EXPECT_EQ(describe_caps(caps), "par");
  caps.parallel = false;
  EXPECT_EQ(describe_caps(caps), "seq");
}

TEST(RegistryInvariants, CancellableEntriesHonourAPreCancelledToken) {
  // Every entry polls its token: a pre-cancelled context must stop the run
  // early with a kCancelled outcome, not grind to completion.
  ThreadPool pool(2);
  const CsrGraph g = csr(make_complete(64, 33));
  for (const MstAlgorithm& a : mst_algorithms()) {
    SCOPED_TRACE(a.name);
    CancelToken token;
    token.cancel();
    RunContext ctx(pool);
    ctx.set_cancel(&token);
    const MstResult r = a.run(g, ctx);
    EXPECT_EQ(r.stats.outcome, RunOutcome::kCancelled);
  }
}

}  // namespace
}  // namespace llpmst
