// kruskal against an independent std::stable_sort reference, and
// filter_kruskal against kruskal.  (Both are also swept by
// test_mst_property; this file covers their specific mechanics: kruskal's
// weight-digit buckets, light prefix and filter pass, hub buckets, scratch
// bound, thread-count independence and stride-granular stops.)
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "graph/generators/random_graph.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/generators/road.hpp"
#include "graph/generators/special.hpp"
#include "mst/filter_kruskal.hpp"
#include "mst/kruskal.hpp"
#include "mst/verifier.hpp"
#include "ds/union_find.hpp"
#include "obs/mem_stats.hpp"
#include "sim/sim_executor.hpp"
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

/// `list` with edge i reweighted to `weight(hash of i)`.  The (u, v) pairs
/// are untouched, so the list stays normalized.
CsrGraph reweight(EdgeList list, std::uint64_t seed,
                  const std::function<Weight(std::uint64_t)>& weight) {
  for (std::size_t i = 0; i < list.num_edges(); ++i) {
    list.edges()[i].w = weight(SplitMix64::mix(seed * 1000003 + i));
  }
  return csr(list);
}

/// er_edges(seed), reweighted.
CsrGraph reweighted(std::uint64_t seed,
                    const std::function<Weight(std::uint64_t)>& weight) {
  return reweight(er_edges(seed), seed, weight);
}

/// Weights that vary only in the `varying` bits; the `fixed` bits keep the
/// other digits constant but nonzero.
std::function<Weight(std::uint64_t)> only(Weight varying, Weight fixed) {
  return [=](std::uint64_t h) {
    return (static_cast<Weight>(h) & varying) | fixed;
  };
}

/// The independent reference: edge ids ordered by (weight, id) with
/// std::stable_sort, grown into a forest through union-find, returned in
/// the order they were united.  Only the first `limit` ids of that order
/// are scanned: the prefix a run cancelled after `limit` edges got through.
std::vector<EdgeId> reference_order(
    const CsrGraph& g,
    std::size_t limit = std::numeric_limits<std::size_t>::max()) {
  std::vector<EdgeId> order(g.num_edges());
  std::iota(order.begin(), order.end(), EdgeId{0});
  std::stable_sort(order.begin(), order.end(), [&g](EdgeId a, EdgeId b) {
    return g.edge(a).w < g.edge(b).w;
  });
  UnionFind uf(g.num_vertices());
  std::vector<EdgeId> forest;
  for (std::size_t i = 0; i < order.size() && i < limit; ++i) {
    const WeightedEdge& e = g.edge(order[i]);
    if (uf.unite(e.u, e.v)) forest.push_back(order[i]);
  }
  return forest;
}

/// reference_order in ascending id order, as every entry returns it.
std::vector<EdgeId> reference_forest(
    const CsrGraph& g,
    std::size_t limit = std::numeric_limits<std::size_t>::max()) {
  std::vector<EdgeId> forest = reference_order(g, limit);
  std::sort(forest.begin(), forest.end());
  return forest;
}

/// The first `count` edges the reference unites, in ascending id order:
/// the partial forest of a run stopped after it united `count` edges.
std::vector<EdgeId> reference_prefix(const CsrGraph& g, std::size_t count) {
  std::vector<EdgeId> forest = reference_order(g);
  forest.resize(std::min(count, forest.size()));
  std::sort(forest.begin(), forest.end());
  return forest;
}

/// A G(n, m) graph big enough for a 6-bit weight digit (~200k edges, so
/// about 2^6 buckets of 2^12 records).
EdgeList big_er_edges(std::uint64_t seed) {
  ErdosRenyiParams p;
  p.num_vertices = 40000;
  p.num_edges = 200000;
  p.seed = seed;
  return generate_erdos_renyi(p);
}

/// Weights bunched into one narrow band: `share` percent of the edges get
/// `band(h)`, the rest a full-range 32-bit weight.  With share > 1/64 the
/// band's bucket is a hub.
std::function<Weight(std::uint64_t)> bunched(
    unsigned share, const std::function<Weight(std::uint64_t)>& band) {
  return [=](std::uint64_t h) {
    return (h >> 40) % 100 < share ? band(h) : static_cast<Weight>(h);
  };
}

TEST_P(KruskalVariants, KruskalMatchesStableSortReference) {
  // kruskal buckets by the top varying weight digit and radix-sorts each
  // bucket by the bits below it; the reference std::stable_sorts all edge
  // ids by weight, so it shares no sort code.  Both the registry entry (on
  // this fixture's pool) and the executor-free call must match it.
  const auto check = [&](const CsrGraph& g, const char* label) {
    const std::vector<EdgeId> want = reference_forest(g);
    EXPECT_EQ(kruskal(g, ctx_).edges, want) << label;
    EXPECT_EQ(kruskal(g).edges, want) << label;
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    check(csr(er_edges(seed)), "generator weights");
    check(reweighted(seed, only(0, 7)), "all weights equal");
    check(reweighted(seed, only(0xffc00000u, 0x155555u)), "bits 22-31 only");
    check(reweighted(seed, only(0x003ff800u, 0xa0000005u)), "bits 11-21 only");
    check(reweighted(seed, only(0x7ffu, 0x5a5a5800u)), "bits 0-10 only");

    const EdgeList big = big_er_edges(seed);
    // 200k edges take a 6-bit digit: with the top varying bit at 31 it is
    // bits 26-31.
    check(reweight(big, seed, only(0xfc000000u, 0x5u)),
          "weights vary only in the top digit (each bucket one weight)");
    check(reweight(big, seed, only(0xf80007ffu, 0x00a5a000u)),
          "buckets vary only below the top digit");
    check(reweight(big, seed, only(0x800007ffu, 0x12345000u)),
          "two buckets, both hubs, varying below the digit");
    check(reweight(big, seed,
                   [](std::uint64_t h) {
                     switch (h % 5) {
                       case 0: return Weight{0};
                       case 1: return Weight{0xffffffffu};
                       default: return static_cast<Weight>(h >> 32);
                     }
                   }),
          "the full 32-bit range, with 0 and 0xffffffff");
  }
}

TEST_P(KruskalVariants, KruskalHubBucketMatchesReference) {
  // 90% of the weights in one band that the top digit cannot split: that
  // bucket holds far more than max(2^16, m/64) records and is sorted in
  // place by priority, cycle walk by cycle walk down to std::sort.  A band
  // of one weight is split by its ids alone, a band of 2^12 weights by
  // weight and then by id, and half one weight and half spread over the
  // bucket's whole range mixes both at the top level.
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const EdgeList big = big_er_edges(seed);
    const CsrGraph one = reweight(
        big, seed, bunched(90, [](std::uint64_t) { return Weight{1000}; }));
    EXPECT_EQ(kruskal(one, ctx_).edges, reference_forest(one)) << seed;
    const CsrGraph band = reweight(big, seed, bunched(90, [](std::uint64_t h) {
      return static_cast<Weight>(1000 + (h & 0xfff));
    }));
    EXPECT_EQ(kruskal(band, ctx_).edges, reference_forest(band)) << seed;
    const CsrGraph split =
        reweight(big, seed, bunched(90, [](std::uint64_t h) {
          return (h >> 8) & 1 ? Weight{1000}
                              : static_cast<Weight>(h & 0x3ffffff);
        }));
    EXPECT_EQ(kruskal(split, ctx_).edges, reference_forest(split)) << seed;
  }
}

TEST_P(KruskalVariants, KruskalScratchStaysWithinTheHubBound) {
  // The records take 16 B per edge; everything else kruskal allocates is
  // the radix scratch (at most the hub bound, max(2^16, m/64) records),
  // O(n) union-find and forest arrays, an m-bit bitmap and the per-worker
  // bucket counters.  A sort scratch as large as the records would exceed
  // this bound by 16 B per edge.
  const EdgeList big = big_er_edges(4);
  const CsrGraph g = reweight(big, 4, bunched(50, [](std::uint64_t h) {
    return static_cast<Weight>(7 + (h & 0xff));
  }));
  const std::size_t m = g.num_edges();
  const std::size_t n = g.num_vertices();
  ASSERT_GT(m / 2, std::size_t{1} << 16);  // the band's bucket is a hub
  const MstResult warm = kruskal(g, ctx_);  // per-thread logs, lazily sized
  const obs::MemSample before = obs::mem_sample();
  const MstResult r = kruskal(g, ctx_);
  const obs::MemSample after = obs::mem_sample();
  EXPECT_EQ(r.edges, warm.edges);
  EXPECT_EQ(r.edges, reference_forest(g));
  if (!after.alloc_tracking) GTEST_SKIP() << "allocation tracking off";
  const std::size_t hub = std::max(std::size_t{1} << 16, m / 64);
  const std::size_t allowed =
      16 * m + 16 * hub + 16 * n + m / 8 + (std::size_t{256} << 10);
  EXPECT_LE(after.alloc_bytes - before.alloc_bytes, allowed);
}

TEST_P(KruskalVariants, KruskalOnSmallAndThresholdEdgeCounts) {
  // The digit width comes from m: one bucket below 2^12 edges, two from
  // 2^12, four from 2^13.  Complete graphs (m from 0 to 55, cycles
  // everywhere, so the order matters) and graphs of average degree 8 with m
  // around those steps all match the reference.
  for (const std::uint32_t n : {1u, 2u, 3u, 4u, 6u, 8u, 11u}) {
    const CsrGraph g = csr(make_complete(n, n + 1));
    EXPECT_EQ(kruskal(g, ctx_).edges, reference_forest(g)) << "K_" << n;
  }
  for (const std::uint64_t target :
       {4095ull, 4096ull, 4200ull, 8191ull, 8192ull, 8300ull, 20000ull}) {
    ErdosRenyiParams p;
    p.num_vertices = static_cast<std::uint32_t>(target / 4);
    p.num_edges = target;
    p.max_weight = 0xffffffffu;
    p.seed = target + 3;
    const CsrGraph g = csr(generate_erdos_renyi(p));
    EXPECT_EQ(kruskal(g, ctx_).edges, reference_forest(g)) << "m " << target;
  }
}

/// Disarms every failpoint when the test scope ends, even on ASSERT exits.
struct DisarmFailpoints {
  ~DisarmFailpoints() { fail::disarm_all(); }
};

/// Hits of the filter pass's failpoint during one kruskal(g, ctx) run
/// (0 when failpoints are compiled out, so callers check kCompiledIn).
std::size_t filter_hits(const CsrGraph& g, RunContext& ctx,
                        MstResult* out = nullptr) {
  DisarmFailpoints disarm;
  EXPECT_TRUE(!fail::kCompiledIn ||
              fail::arm("kruskal/filter", "0%yield"));  // counts hits only
  MstResult r = kruskal(g, ctx);
  const std::size_t hits = fail::hit_count("kruskal/filter");
  if (out != nullptr) *out = std::move(r);
  return hits;
}

/// A graph in two parts on n vertices: the `light` lightest edges join
/// only the first `core` vertices (each to its next `light / core`
/// neighbours around a ring), and `heavy` edges with weights in
/// [band, band + 2^12) join the other vertices (each to its successor
/// and to the one `stride` further on), so every heavy edge survives the
/// filter while they form a forest.
CsrGraph two_part(std::uint32_t n, std::uint32_t core, std::size_t light,
                  std::size_t heavy, Weight band) {
  EdgeList list(n);
  const std::uint32_t reach = static_cast<std::uint32_t>(light / core);
  for (std::uint32_t v = 0; v < core; ++v) {
    for (std::uint32_t d = 1; d <= reach; ++d) {
      const std::uint64_t h = SplitMix64::mix(v * 977 + d);
      list.add_edge(v, (v + d) % core, static_cast<Weight>(h & 0xfffff));
    }
  }
  const std::uint32_t rest = n - core;
  for (std::size_t i = 0; i < heavy; ++i) {
    const std::uint32_t v = core + static_cast<std::uint32_t>(i / 2) % rest;
    const std::uint32_t step = i % 2 == 0 ? 1 : 7;
    list.add_edge(v, core + (v - core + step) % rest,
                  band + static_cast<Weight>(SplitMix64::mix(i) & 0xfff));
  }
  list.normalize();
  return csr(list);
}

TEST_P(KruskalVariants, DenseGraphsMatchTheReferenceThroughTheFilter) {
  // Dense graphs (m well above 2n) scan their lightest 2n edges, then
  // filter the rest against that forest: the filter pass must run, and
  // the forest must still be exactly the reference's.
  RmatParams rp;
  rp.scale = 12;
  rp.seed = 3;
  ErdosRenyiParams ep;
  ep.num_vertices = 2000;
  ep.num_edges = 30000;
  ep.max_weight = 0xffffffffu;
  ep.seed = 11;
  const CsrGraph rmat = csr(generate_rmat(rp));
  const CsrGraph er = csr(generate_erdos_renyi(ep));
  for (const CsrGraph* g : {&rmat, &er}) {
    ASSERT_GT(g->num_edges(), 4 * g->num_vertices());
    MstResult r;
    const std::size_t hits = filter_hits(*g, ctx_, &r);
    EXPECT_EQ(r.edges, reference_forest(*g));
    EXPECT_EQ(kruskal(*g).edges, r.edges);
    if (fail::kCompiledIn) {
      EXPECT_GT(hits, 0u);
    }
  }
}

TEST_P(KruskalVariants, EdgeCountsAroundTwiceTheVertexCount) {
  // m = 2n - 1, 2n and 2n + 1 on n = 4096 vertices (four buckets).  The
  // last edge id gets a weight far above the rest, so it is alone in the
  // top bucket: at 2n + 1 the light prefix is the bottom bucket's 2n
  // edges and the filter reads the one heavy edge; below that, every
  // bucket is light.  The same graphs with full-range weights spread the
  // cut over many buckets.
  constexpr std::uint32_t n = 4096;
  for (const std::size_t m : {2 * n - 1, 2 * n, 2 * n + 1}) {
    EdgeList list(n);
    for (std::uint32_t v = 0; v < n && list.num_edges() < m; ++v) {
      for (std::uint32_t d : {1u, 2u, 3u}) {
        if (list.num_edges() < m) list.add_edge(v, (v + d * 61) % n, 1);
      }
    }
    list.normalize();
    ASSERT_EQ(list.num_edges(), m);
    for (const bool spread : {false, true}) {
      for (std::size_t i = 0; i < m; ++i) {
        const std::uint64_t h = SplitMix64::mix(i + m);
        list.edges()[i].w =
            spread ? static_cast<Weight>(h)
            : i + 1 == m ? 0x80000000u | static_cast<Weight>(h & 0xff)
                         : static_cast<Weight>(h % 1000);
      }
      const CsrGraph g = csr(list);
      MstResult r;
      const std::size_t hits = filter_hits(g, ctx_, &r);
      EXPECT_EQ(r.edges, reference_forest(g)) << m << " " << spread;
      if (fail::kCompiledIn && !spread) {
        EXPECT_EQ(hits > 0, m == 2 * n + 1) << m;
      }
    }
  }
}

TEST_P(KruskalVariants, ASpanningLightPrefixSkipsTheFilter) {
  // A connected graph whose lightest n - 1 edges form a path: the light
  // scan completes the tree, so the filter pass never starts although m is
  // about 6n.
  EdgeList list = big_er_edges(3);
  const std::uint32_t n = list.num_vertices();
  for (WeightedEdge& e : list.edges()) {
    e.w = 1000 + static_cast<Weight>(SplitMix64::mix(e.u * 31 + e.v) >> 40);
  }
  for (std::uint32_t v = 0; v + 1 < n; ++v) list.add_edge(v, v + 1, v % 997);
  list.normalize();
  const CsrGraph g = csr(list);
  ASSERT_GT(g.num_edges(), 4 * std::size_t{n});
  MstResult r;
  const std::size_t hits = filter_hits(g, ctx_, &r);
  EXPECT_EQ(r.edges, reference_forest(g));
  EXPECT_EQ(r.num_trees, 1u);
  EXPECT_EQ(hits, 0u);
}

TEST_P(KruskalVariants, DenseGraphsWithEqualWeightsAndHubBuckets) {
  // All-equal weights make one bucket, so every edge is light.  The
  // two-part graph puts 200k light edges on 1000 vertices and 198k heavy
  // ones in one narrow band on the other 99k: the light bucket is a hub,
  // and so is the heavy one, whose edges all survive the filter, so both
  // are sorted in place.
  const CsrGraph equal = reweight(big_er_edges(5), 5, only(0, 42));
  EXPECT_EQ(kruskal(equal, ctx_).edges, reference_forest(equal));
  const CsrGraph hubs = two_part(100000, 1000, 200000, 198000, 0x80000000u);
  ASSERT_GT(hubs.num_edges(), 2 * hubs.num_vertices());
  MstResult r;
  const std::size_t hits = filter_hits(hubs, ctx_, &r);
  EXPECT_EQ(r.edges, reference_forest(hubs));
  if (fail::kCompiledIn) {
    EXPECT_GT(hits, 0u);
  }
}

TEST_P(KruskalVariants, InjectedFaultInTheFilterStopsAfterTheLightScan) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  // The filter pass polls "kruskal/filter": a fault there returns the
  // forest of the light scan, the first edges of the reference's.
  DisarmFailpoints disarm;
  ASSERT_TRUE(fail::arm("kruskal/filter", "return"));
  const CsrGraph g = csr(big_er_edges(9));
  const MstResult r = kruskal(g, ctx_);
  EXPECT_EQ(r.stats.outcome, RunOutcome::kInjectedFault);
  EXPECT_FALSE(r.edges.empty());
  EXPECT_LT(r.edges.size(), reference_forest(g).size());
  EXPECT_EQ(r.edges, reference_prefix(g, r.edges.size()));
}

TEST(KruskalThreads, ForestsAreByteIdenticalAtOneAndFourThreads) {
  // Each worker's slice of a bucket follows the slices of the workers
  // before it, so every bucket keeps edge-id order whatever the team size.
  ThreadPool one(1);
  ThreadPool four(4);
  RunContext ctx1(one);
  RunContext ctx4(four);
  RmatParams rp;
  rp.scale = 14;
  rp.edge_factor = 12;
  rp.seed = 9;
  RoadParams road;
  road.width = 200;
  road.height = 200;
  for (const CsrGraph& g :
       {csr(generate_rmat(rp)), csr(generate_road_network(road)),
        reweight(big_er_edges(2), 2, bunched(90, [](std::uint64_t h) {
                   return static_cast<Weight>(h & 0x3ff);
                 }))}) {
    const MstResult a = kruskal(g, ctx1);
    const MstResult b = kruskal(g, ctx4);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.total_weight, b.total_weight);
    EXPECT_EQ(a.num_trees, b.num_trees);
    EXPECT_EQ(a.edges, reference_forest(g));
  }
}

TEST_P(KruskalVariants, ParallelKruskalMatchesOracle) {
  // filter_kruskal partitions around pivots and std::sorts its base cases,
  // so it shares no sort code with kruskal's weight-digit buckets.  The
  // inputs below put the weight variation in each digit in turn.
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
  // The token is polled before the record array is sized: an expired
  // budget costs no per-edge memory.
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
  // Every 1024-edge poll of the partition stalls 1 ms, so its first pass
  // alone takes about m / 1024 >= 290 ms unbudgeted.  A 30 ms deadline must
  // stop it inside the partition, before the scan's first poll.
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
  // One stride past the deadline is a 1 ms stall plus 1024 edges; the
  // rest of the allowance is scheduling noise on a loaded host.
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

/// Runs the registry kruskal on a simulated team of `workers` whose
/// timeline cancels `token` on the k-th hit of a failpoint (`timeline`),
/// counting the hits of all of kruskal's failpoints.
MstResult kruskal_cancelled_at(const CsrGraph& g, const std::string& timeline,
                               std::size_t workers) {
  sim::SimExecutor::Options o;
  o.seed = 5;
  o.workers = workers;
  o.timeline = timeline;
  sim::SimExecutor exec(o);
  EXPECT_TRUE(exec.timeline_error().empty()) << exec.timeline_error();
  CancelToken token;
  exec.bind_cancel(&token);
  RunContext ctx;
  ctx.attach_executor(&exec);
  ctx.set_cancel(&token);
  EXPECT_TRUE(fail::arm("kruskal/fill", "0%yield"));  // counts hits only
  EXPECT_TRUE(fail::arm("kruskal/filter", "0%yield"));
  EXPECT_TRUE(fail::arm("kruskal/scan", "0%yield"));
  return kruskal(g, ctx);
}

TEST(KruskalStops, ACancelInsideThePartitionStopsWithinOneStride) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  DisarmFailpoints disarm;
  const CsrGraph g = csr(big_er_edges(6));
  // Each of the partition's three passes polls once per 1024 edges of
  // every worker's range: hit 2 * m / 1024 + 5 lies in the scatter.
  constexpr std::size_t kWorkers = 4;
  const std::size_t k = 2 * g.num_edges() / kScanStride + 5;
  const MstResult r = kruskal_cancelled_at(
      g, "hit(kruskal/fill:" + std::to_string(k) + "): cancel", kWorkers);
  EXPECT_EQ(r.stats.outcome, RunOutcome::kCancelled);
  EXPECT_TRUE(r.edges.empty());
  EXPECT_EQ(r.num_trees, g.num_vertices());
  // The poll that cancelled stops its worker; every other worker stops at
  // its next poll.
  EXPECT_GE(fail::hit_count("kruskal/fill"), k);
  EXPECT_LT(fail::hit_count("kruskal/fill"), k + kWorkers);
  EXPECT_EQ(fail::hit_count("kruskal/scan"), 0u);
}

TEST(KruskalStops, ACancelInsideABucketStopsWithinOneStride) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  DisarmFailpoints disarm;
  const CsrGraph g = csr(big_er_edges(7));
  // Hit k of the scan's poll comes before record (k - 1) * 1024 in
  // (weight, id) order, which lies inside a ~3k-record bucket of the light
  // prefix (its first 2n = 80k records, so k <= 79).  The run must have
  // united exactly the forest of the records before it.
  for (const std::size_t k : {2u, 37u, 78u}) {
    const MstResult r = kruskal_cancelled_at(
        g, "hit(kruskal/scan:" + std::to_string(k) + "): cancel", 4);
    EXPECT_EQ(r.stats.outcome, RunOutcome::kCancelled) << k;
    EXPECT_EQ(fail::hit_count("kruskal/scan"), k);
    EXPECT_EQ(r.edges, reference_forest(g, (k - 1) * kScanStride)) << k;
    EXPECT_FALSE(r.edges.empty()) << k;
  }
}

TEST(KruskalStops, ACancelInsideTheFilterStopsWithinOneStride) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  DisarmFailpoints disarm;
  const CsrGraph g = csr(big_er_edges(10));
  // The filter polls once per 1024 edges of every worker's range, about
  // m / 1024 = 195 times in all: hit 100 lies in its middle.  The run
  // stops there with the light scan's forest, and no survivor is scanned.
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t k = 100;
  const MstResult full = kruskal_cancelled_at(g, "", kWorkers);
  const std::size_t light_polls = fail::hit_count("kruskal/scan");
  ASSERT_GT(fail::hit_count("kruskal/filter"), k + kWorkers);
  const MstResult r = kruskal_cancelled_at(
      g, "hit(kruskal/filter:" + std::to_string(k) + "): cancel", kWorkers);
  EXPECT_EQ(r.stats.outcome, RunOutcome::kCancelled);
  EXPECT_GE(fail::hit_count("kruskal/filter"), k);
  EXPECT_LT(fail::hit_count("kruskal/filter"), k + kWorkers);
  EXPECT_LT(fail::hit_count("kruskal/scan"), light_polls);
  EXPECT_FALSE(r.edges.empty());
  EXPECT_LT(r.edges.size(), full.edges.size());
  EXPECT_EQ(r.edges, reference_prefix(g, r.edges.size()));
}

TEST(KruskalStops, ACancelInsideTheSurvivorScanStopsWithinOneStride) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  DisarmFailpoints disarm;
  // The scan's last poll lies among the survivors of the filter.  A cancel
  // there keeps every edge united before it: the run's forest is the
  // reference's first edges, and it misses some of the rest.
  const CsrGraph g = csr(big_er_edges(7));
  const MstResult full = kruskal_cancelled_at(g, "", 4);
  const std::size_t last = fail::hit_count("kruskal/scan");
  ASSERT_GT(fail::hit_count("kruskal/filter"), 0u);
  const MstResult r = kruskal_cancelled_at(
      g, "hit(kruskal/scan:" + std::to_string(last) + "): cancel", 4);
  EXPECT_EQ(r.stats.outcome, RunOutcome::kCancelled);
  EXPECT_EQ(fail::hit_count("kruskal/scan"), last);
  EXPECT_LT(r.edges.size(), full.edges.size());
  EXPECT_EQ(r.edges, reference_prefix(g, r.edges.size()));
}

TEST(KruskalStops, AContextRunsAgainAfterAStoppedRun) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  // A stopped run leaves its unscanned records in the context's scratch;
  // the next run on the context frees them and must not see them, even on
  // a graph with fewer buckets.
  DisarmFailpoints disarm;
  const CsrGraph g = csr(big_er_edges(8));
  // Disconnected, so its scan runs through every bucket.
  ErdosRenyiParams p;
  p.num_vertices = 20000;
  p.num_edges = 10000;
  p.seed = 8;
  const CsrGraph small = csr(generate_erdos_renyi(p));
  ASSERT_LT(small.num_edges() * 4, g.num_edges());
  sim::SimExecutor::Options o;
  o.seed = 5;
  o.workers = 4;
  o.timeline = "hit(kruskal/scan:20): cancel";
  sim::SimExecutor exec(o);
  ASSERT_TRUE(exec.timeline_error().empty()) << exec.timeline_error();
  CancelToken token;
  exec.bind_cancel(&token);
  RunContext ctx;
  ctx.attach_executor(&exec);
  ctx.set_cancel(&token);
  ASSERT_TRUE(fail::arm("kruskal/scan", "0%yield"));  // counts hits only
  const MstResult stopped = kruskal(g, ctx);
  EXPECT_EQ(stopped.stats.outcome, RunOutcome::kCancelled);
  EXPECT_EQ(stopped.edges, reference_forest(g, 19 * kScanStride));

  ctx.set_cancel(nullptr);
  for (const CsrGraph* next : {&small, &g}) {
    const MstResult full = kruskal(*next, ctx);
    EXPECT_EQ(full.stats.outcome, RunOutcome::kOk);
    EXPECT_EQ(full.edges, reference_forest(*next));
    EXPECT_EQ(full.total_weight, kruskal(*next).total_weight);
  }
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
