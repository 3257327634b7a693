// filter_kruskal, the parallel Kruskal, against the plain Kruskal oracle.
// (They are also swept by test_mst_property; this file covers their
// specific mechanics.)
#include <gtest/gtest.h>

#include <chrono>
#include <functional>

#include "graph/generators/random_graph.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/generators/special.hpp"
#include "mst/filter_kruskal.hpp"
#include "mst/kruskal.hpp"
#include "mst/verifier.hpp"
#include "obs/mem_stats.hpp"
#include "support/cancel.hpp"
#include "support/failpoint.hpp"
#include "support/random.hpp"
#include "test_util.hpp"

namespace llpmst {
namespace {

using test::csr;

class KruskalVariants : public testing::TestWithParam<int> {
 protected:
  ThreadPool pool_{static_cast<std::size_t>(GetParam())};
  RunContext ctx_{pool_};
};
INSTANTIATE_TEST_SUITE_P(Threads, KruskalVariants, testing::Values(1, 4));

EdgeList er_edges(std::uint64_t seed) {
  ErdosRenyiParams p;
  p.num_vertices = 2000;
  p.num_edges = 10000;
  p.seed = seed;
  return generate_erdos_renyi(p);
}

/// er_edges(seed) with edge i reweighted to `weight(hash of i)`.  The (u, v)
/// pairs are untouched, so the list stays normalized.
CsrGraph reweighted(std::uint64_t seed,
                    const std::function<Weight(std::uint64_t)>& weight) {
  EdgeList list = er_edges(seed);
  for (std::size_t i = 0; i < list.num_edges(); ++i) {
    list.edges()[i].w = weight(SplitMix64::mix(seed * 1000003 + i));
  }
  return csr(list);
}

/// Weights that vary only in the `varying` bits; the `fixed` bits keep the
/// other digits constant but nonzero.
std::function<Weight(std::uint64_t)> only(Weight varying, Weight fixed) {
  return [=](std::uint64_t h) {
    return (static_cast<Weight>(h) & varying) | fixed;
  };
}

TEST_P(KruskalVariants, ParallelKruskalMatchesOracle) {
  // kruskal radix-sorts the weight half of the packed priorities in three
  // 11-bit passes and skips a pass whose digit every weight shares;
  // filter_kruskal partitions around pivots and std::sorts its base cases,
  // so it is a reference that shares no sort code.  The inputs below hit
  // every skip pattern.
  const auto check = [&](const CsrGraph& g, const char* label) {
    const MstResult r = kruskal(g);
    EXPECT_EQ(filter_kruskal(g, ctx_).edges, r.edges) << label;
    const VerifyResult v = verify_msf(g, r);
    EXPECT_TRUE(v.ok) << label << ": " << v.error;
  };
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    check(csr(er_edges(seed)), "generator weights");
    check(reweighted(seed, only(0, 7)), "all weights equal (no pass)");
    check(reweighted(seed, only(0xffc00000u, 0x155555u)),
          "weights differ in bits 22-31 only (last pass)");
    check(reweighted(seed, only(0x003ff800u, 0xa0000005u)),
          "weights differ in bits 11-21 only (middle pass)");
    check(reweighted(seed, only(0x7ffu, 0x5a5a5800u)),
          "weights differ in bits 0-10 only (first pass)");
    check(reweighted(seed,
                     [](std::uint64_t h) {
                       switch (h % 3) {
                         case 0: return Weight{0};
                         case 1: return Weight{0xffffffffu};
                         default: return static_cast<Weight>(h >> 32);
                       }
                     }),
          "weights 0, 0xffffffff and random (all passes)");
  }

  check(csr(EdgeList(5)), "m = 0");
  EdgeList one(3);
  one.add_edge(0, 2, 0xffffffffu);
  one.normalize();
  check(csr(one), "m = 1");
}

TEST_P(KruskalVariants, KruskalPreCancelledScansNothing) {
  const CsrGraph g = csr(er_edges(3));
  CancelToken token;
  token.cancel();
  const obs::MemSample before = obs::mem_sample();
  const MstResult r = kruskal_cancellable(g, &token);
  const obs::MemSample after = obs::mem_sample();
  EXPECT_EQ(r.stats.outcome, RunOutcome::kCancelled);
  EXPECT_TRUE(r.edges.empty());
  EXPECT_EQ(r.num_trees, g.num_vertices());
  // The token is polled before the key array is sized: an expired budget
  // costs no per-edge memory.
  if (after.alloc_tracking) {
    EXPECT_LT(after.alloc_bytes - before.alloc_bytes,
              g.num_edges() * sizeof(EdgePriority));
  }
}

TEST_P(KruskalVariants, FilterKruskalMatchesOracle) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ErdosRenyiParams p;
    p.num_vertices = 2000;
    p.num_edges = 20000;  // dense enough that filtering actually kicks in
    p.seed = seed + 50;
    const CsrGraph g = csr(generate_erdos_renyi(p));
    EXPECT_EQ(filter_kruskal(g, ctx_).edges, kruskal(g).edges)
        << "seed " << seed;
  }
}

TEST_P(KruskalVariants, FilterKruskalBelowBaseThreshold) {
  // Small inputs take the pure base-case path.
  const CsrGraph g = csr(make_complete(30, 7));
  EXPECT_EQ(filter_kruskal(g, ctx_).edges, kruskal(g).edges);
}

TEST_P(KruskalVariants, FilterKruskalOnForest) {
  const CsrGraph g = csr(make_forest(4, 500, 3));
  const MstResult r = filter_kruskal(g, ctx_);
  EXPECT_EQ(r.edges, kruskal(g).edges);
  EXPECT_EQ(r.num_trees, 4u);
}

/// Disarms every failpoint when the test scope ends, even on ASSERT exits.
struct DisarmFailpoints {
  ~DisarmFailpoints() { fail::disarm_all(); }
};

TEST_P(KruskalVariants, FilterKruskalStopsWithinOneStrideOfADeadline) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  // Every 1024-edge poll stalls 1 ms, so the top-level partition and the
  // partitions down the light half poll about 2m / 1024 >= 500 times before
  // the first filter: unbudgeted, the run takes well over 500 ms.  A 50 ms
  // deadline lands in the top-level partition and must stop it there.
  ErdosRenyiParams p;
  p.num_vertices = 60000;
  p.num_edges = 300000;
  p.seed = 17;
  const CsrGraph g = csr(generate_erdos_renyi(p));
  ASSERT_GE(2 * g.num_edges() / 1024, 500u);

  DisarmFailpoints disarm;
  ASSERT_TRUE(fail::arm("filter_kruskal/scan", "sleep(1000)"));
  CancelToken token;
  token.set_deadline_after_ms(50);
  ctx_.set_cancel(&token);
  const auto start = std::chrono::steady_clock::now();
  const MstResult r = filter_kruskal(g, ctx_);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  ctx_.set_cancel(nullptr);

  EXPECT_EQ(r.stats.outcome, RunOutcome::kDeadlineExceeded);
  // One stride past the deadline is a 1 ms stall plus 1024 edges of work;
  // the rest of the allowance is scheduling noise on a loaded host.
  EXPECT_LT(elapsed_ms, 150.0);
  EXPECT_LT(fail::hit_count("filter_kruskal/scan"), 500u);
  // Stopped inside the top-level partition: no base case has united an
  // edge yet, so the partial forest is empty.
  EXPECT_TRUE(r.edges.empty());
  EXPECT_EQ(r.num_trees, g.num_vertices());
}

TEST_P(KruskalVariants, KruskalDeadlineStopsTheKeyFill) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  // Every 1024-key poll of the fill stalls 1 ms, so the fill alone takes
  // about m / 1024 >= 290 ms unbudgeted.  A 30 ms deadline must stop it
  // inside the fill: before the sort, and before the scan's first poll.
  ErdosRenyiParams p;
  p.num_vertices = 60000;
  p.num_edges = 300000;
  p.seed = 19;
  const CsrGraph g = csr(generate_erdos_renyi(p));
  const std::size_t strides = (g.num_edges() + 1023) / 1024;
  ASSERT_GE(strides, 290u);

  DisarmFailpoints disarm;
  ASSERT_TRUE(fail::arm("kruskal/fill", "sleep(1000)"));
  ASSERT_TRUE(fail::arm("kruskal/scan", "0%yield"));  // counts hits only
  CancelToken token;
  token.set_deadline_after_ms(30);
  const auto start = std::chrono::steady_clock::now();
  const MstResult r = kruskal_cancellable(g, &token);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();

  EXPECT_EQ(r.stats.outcome, RunOutcome::kDeadlineExceeded);
  EXPECT_TRUE(r.edges.empty());
  EXPECT_EQ(r.num_trees, g.num_vertices());
  EXPECT_GE(fail::hit_count("kruskal/fill"), 1u);
  EXPECT_LT(fail::hit_count("kruskal/fill"), strides);
  EXPECT_EQ(fail::hit_count("kruskal/scan"), 0u);
  // One stride past the deadline is a 1 ms stall plus 1024 keys; the rest
  // of the allowance is scheduling noise on a loaded host.
  EXPECT_LT(elapsed_ms, 150.0);
}

TEST_P(KruskalVariants, KruskalInjectedFaultInTheFillStopsTheRun) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  DisarmFailpoints disarm;
  ASSERT_TRUE(fail::arm("kruskal/fill", "return"));
  const CsrGraph g = csr(er_edges(5));
  const MstResult r = kruskal_cancellable(g, nullptr);
  EXPECT_EQ(r.stats.outcome, RunOutcome::kInjectedFault);
  EXPECT_TRUE(r.edges.empty());
  EXPECT_EQ(r.num_trees, g.num_vertices());
}

TEST_P(KruskalVariants, FilterKruskalInjectedFaultStopsTheRun) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  DisarmFailpoints disarm;
  ASSERT_TRUE(fail::arm("filter_kruskal/scan", "return"));
  const MstResult r = filter_kruskal(csr(er_edges(4)), ctx_);
  EXPECT_EQ(r.stats.outcome, RunOutcome::kInjectedFault);
  EXPECT_TRUE(r.edges.empty());
}

TEST_P(KruskalVariants, ParallelKruskalOnRmat) {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 10;
  p.seed = 4;
  const CsrGraph g = csr(generate_rmat(p));
  EXPECT_EQ(filter_kruskal(g, ctx_).edges, kruskal(g).edges);
}

TEST_P(KruskalVariants, TrivialGraphs) {
  const CsrGraph empty = csr(EdgeList(1));
  EXPECT_TRUE(filter_kruskal(empty, ctx_).edges.empty());
  EdgeList two(2);
  two.add_edge(0, 1, 9);
  two.normalize();
  const CsrGraph g2 = csr(two);
  EXPECT_EQ(filter_kruskal(g2, ctx_).total_weight, 9u);
}

}  // namespace
}  // namespace llpmst
