// Round-by-round invariants of the Boruvka engine's fused contraction path
// (self-loop drop + exact pair-table bundle minimum + dense relabeling),
// plus a wide randomized cross-check against kruskal, and the partial forest
// a cancelled run returns.
//
// The checks lean on three facts the engine must preserve:
//   * an MSF edge is emitted in the SAME round its endpoints merge, becomes
//     a self-loop in that round's contraction, and is dropped there — so the
//     reference-MSF edges among a round's drops must number exactly that
//     round's emissions (a drop of a not-yet-emitted MSF edge — e.g. a
//     bundle filter removing a bundle minimum — breaks this immediately);
//   * every input edge is dropped exactly once across the whole run (it
//     either survives a contraction into the next round's list or is
//     dropped; the run ends with an empty list);
//   * a round whose contraction ran the pair table keeps exactly one edge
//     per pair of components, and that edge is the pair's lightest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ds/union_find.hpp"
#include "graph/generators/random_graph.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/generators/special.hpp"
#include "llp/llp_boruvka.hpp"
#include "mst/kruskal.hpp"
#include "mst/parallel_boruvka.hpp"
#include "scenario/adversarial.hpp"
#include "sim/sim_executor.hpp"
#include "test_util.hpp"

namespace llpmst {
namespace {

using test::csr;

struct RoundLog {
  std::vector<BoruvkaRoundStats> rounds;        // dropped_edge_ids nulled
  std::vector<std::vector<EdgeId>> dropped;     // per-round copies
};

MstResult run_logged(const CsrGraph& g, RunContext& ctx, BoruvkaConfig c,
                     RoundLog& log) {
  c.collect_dropped_edges = true;
  c.round_observer = [&log](const BoruvkaRoundStats& info) {
    log.rounds.push_back(info);
    log.rounds.back().dropped_edge_ids = nullptr;  // points into scratch
    ASSERT_NE(info.dropped_edge_ids, nullptr);
    log.dropped.push_back(*info.dropped_edge_ids);
  };
  return llp_boruvka_configured(g, ctx, c);
}

/// Asserts every per-round invariant plus the whole-run drop accounting.
void check_rounds(const CsrGraph& g, const MstResult& reference,
                  const RoundLog& log) {
  const std::set<EdgeId> msf(reference.edges.begin(), reference.edges.end());
  std::set<EdgeId> dropped_union;
  std::size_t dropped_total = 0;
  // Edges of the current round's list, and the components merged so far.
  std::vector<bool> alive(g.num_edges(), true);
  UnionFind merged(g.num_vertices());

  ASSERT_EQ(log.rounds.size(), log.dropped.size());
  std::size_t prev_components = g.num_vertices() + 1;
  for (std::size_t i = 0; i < log.rounds.size(); ++i) {
    const BoruvkaRoundStats& r = log.rounds[i];
    SCOPED_TRACE(testing::Message() << "round " << r.round);

    // Exact edge bookkeeping: everything entering a round either survives
    // into the next list or is counted in one of the two drop buckets.
    EXPECT_EQ(r.edges_after, r.active_edges - r.self_loops_dropped -
                                 r.bundle_edges_dropped);
    EXPECT_EQ(log.dropped[i].size(),
              r.self_loops_dropped + r.bundle_edges_dropped);
    if (!r.pair_table) {
      EXPECT_EQ(r.bundle_edges_dropped, 0u);
    }

    // Progress: a round with edges emits at least one MSF edge, which then
    // contracts to a self-loop — the edge list strictly shrinks.
    ASSERT_GT(r.active_edges, 0u);
    EXPECT_GE(r.msf_edges_emitted, 1u);
    EXPECT_LT(r.edges_after, r.active_edges);

    // Components monotonically decrease; each emission merges two (fully
    // spanned components vanish from the count entirely, hence <=).  From
    // round 2 on every live component has an incident edge and must merge,
    // so the count at least halves.
    EXPECT_LT(r.components, prev_components);
    EXPECT_LE(r.components_after, r.components - r.msf_edges_emitted);
    if (r.round >= 2) {
      EXPECT_LE(2 * r.components_after, r.components);
    }
    prev_components = r.components;

    // Cycle property: the reference-MSF edges among this round's drops are
    // exactly the edges emitted this round (already-merged duplicates and
    // bundle-filtered heavy edges are provably non-MSF).
    std::size_t msf_drops = 0;
    for (const EdgeId e : log.dropped[i]) {
      ASSERT_LT(e, g.num_edges());
      ASSERT_TRUE(alive[e]) << "edge " << e << " dropped twice";
      if (msf.count(e) != 0) {
        ++msf_drops;
        merged.unite(g.edge(e).u, g.edge(e).v);
      }
      EXPECT_TRUE(dropped_union.insert(e).second);
    }
    EXPECT_EQ(msf_drops, r.msf_edges_emitted);
    dropped_total += log.dropped[i].size();

    // Bundle minima over this round's list, keyed by the merged components.
    std::map<std::pair<VertexId, VertexId>, EdgePriority> bundle;
    if (r.pair_table) {
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (!alive[e]) continue;
        VertexId a = merged.find(g.edge(e).u);
        VertexId b = merged.find(g.edge(e).v);
        if (a == b) continue;
        if (a > b) std::swap(a, b);
        const auto [it, fresh] = bundle.try_emplace({a, b}, g.edge_priority(e));
        if (!fresh) it->second = std::min(it->second, g.edge_priority(e));
      }
    }
    for (const EdgeId e : log.dropped[i]) alive[e] = false;
    if (r.pair_table) {
      // One survivor per component pair, and it is the pair's minimum.
      EXPECT_EQ(r.edges_after, bundle.size());
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (!alive[e]) continue;
        const VertexId a = merged.find(g.edge(e).u);
        const VertexId b = merged.find(g.edge(e).v);
        const auto it = bundle.find({std::min(a, b), std::max(a, b)});
        ASSERT_NE(it, bundle.end()) << "survivor " << e << " is a self-loop";
        EXPECT_EQ(it->second, g.edge_priority(e))
            << "survivor " << e << " is not its bundle's minimum";
      }
    }
  }

  // Whole-run accounting: every input edge is dropped exactly once.
  EXPECT_EQ(dropped_total, g.num_edges());
  EXPECT_EQ(dropped_union.size(), g.num_edges());
}

/// True iff some round of the log ran the pair table.
bool any_pair_table(const RoundLog& log) {
  return std::any_of(log.rounds.begin(), log.rounds.end(),
                     [](const BoruvkaRoundStats& r) { return r.pair_table; });
}

class BoruvkaContraction : public testing::TestWithParam<int> {
 protected:
  ThreadPool pool_{static_cast<std::size_t>(GetParam())};
  RunContext ctx_{pool_};
};
INSTANTIATE_TEST_SUITE_P(Threads, BoruvkaContraction, testing::Values(1, 2, 4));

TEST_P(BoruvkaContraction, RoundInvariantsAcrossAllEngineConfigs) {
  ErdosRenyiParams p;
  p.num_vertices = 2000;
  p.num_edges = 8000;
  p.seed = 42;
  const CsrGraph g = csr(generate_erdos_renyi(p));
  const MstResult reference = kruskal(g);
  for (const auto jumping :
       {PointerJumping::kAsynchronous, PointerJumping::kSynchronized}) {
    SCOPED_TRACE(testing::Message()
                 << "async=" << (jumping == PointerJumping::kAsynchronous));
    BoruvkaConfig c;
    c.jumping = jumping;
    RoundLog log;
    const MstResult r = run_logged(g, ctx_, c, log);
    ASSERT_EQ(r.edges, reference.edges);
    check_rounds(g, reference, log);
    EXPECT_TRUE(any_pair_table(log));
  }
}

TEST_P(BoruvkaContraction, ScratchReuseAcrossRunsIsClean) {
  // One context's scratch driven through graphs of very different shapes,
  // by both jumping flavours: stale capacity (and learned grain) from a
  // bigger earlier run must never leak into a later one.
  const BoruvkaScratch& scratch = ctx_.scratch().get<BoruvkaScratch>();
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    ErdosRenyiParams big;
    big.num_vertices = 1500;
    big.num_edges = 6000;
    big.seed = seed;
    const CsrGraph g1 = csr(generate_erdos_renyi(big));
    const CsrGraph g2 = csr(make_forest(5, 30, seed));
    for (const CsrGraph* g : {&g1, &g2}) {
      EXPECT_EQ(llp_boruvka(*g, ctx_).edges, kruskal(*g).edges);
      EXPECT_EQ(parallel_boruvka(*g, ctx_).edges, kruskal(*g).edges);
    }
  }
  // The runs above all went through the context's one scratch.
  EXPECT_EQ(&scratch, &ctx_.scratch().get<BoruvkaScratch>());
  EXPECT_GE(scratch.msf_edges.capacity(), 1499u);
}

TEST_P(BoruvkaContraction, HundredSeedCrossCheckVsKruskal) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);

    // Sparse (m ~ 2n, disconnected fragments + isolated vertices), dense
    // (heavy parallel-bundle pressure after the first contraction), forest
    // (MSF = input, every algorithm's degenerate case).
    ErdosRenyiParams sparse;
    sparse.num_vertices = 300;
    sparse.num_edges = 600;
    sparse.seed = seed;
    ErdosRenyiParams dense;
    dense.num_vertices = 48;
    dense.num_edges = 1000;
    dense.seed = seed;
    const CsrGraph graphs[] = {csr(generate_erdos_renyi(sparse)),
                               csr(generate_erdos_renyi(dense)),
                               csr(make_forest(4, 25, seed))};
    for (const CsrGraph& g : graphs) {
      const MstResult reference = kruskal(g);
      RoundLog log;
      const MstResult r = run_logged(g, ctx_, BoruvkaConfig{}, log);
      ASSERT_EQ(r.edges, reference.edges)
          << "n=" << g.num_vertices() << " m=" << g.num_edges();
      check_rounds(g, reference, log);
    }
  }
}

// Few components, many edges: every cluster collapses in round 1, leaving
// 160-edge bundles between 12 super-vertices.  The pair table must cut each
// bundle to its minimum in that same round.
TEST(BoruvkaContractionBundles, DenseBundlesCollapseToOneEdgePerPairAt2T) {
  ThreadPool pool(2);
  RunContext ctx(pool);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    BundleHeavyParams p;
    p.clusters = 12;
    p.cluster_size = 16;
    p.bundle_width = 160;
    p.seed = seed;
    const CsrGraph g = csr(make_bundle_heavy(p));
    const MstResult reference = kruskal(g);
    for (const auto jumping :
         {PointerJumping::kAsynchronous, PointerJumping::kSynchronized}) {
      BoruvkaConfig c;
      c.jumping = jumping;
      RoundLog log;
      const MstResult r = run_logged(g, ctx, c, log);
      ASSERT_EQ(r.edges, reference.edges);
      check_rounds(g, reference, log);
      ASSERT_FALSE(log.rounds.empty());
      const BoruvkaRoundStats& first = log.rounds.front();
      EXPECT_TRUE(first.pair_table);
      EXPECT_EQ(first.components_after, 12u);
      EXPECT_LE(first.edges_after, 12u * 11u / 2u);
      EXPECT_GE(first.bundle_edges_dropped, 11u * (160u - 1u));
    }
  }
}

// The contraction's output does not depend on the thread count: the same
// rounds, the same counts, the same dropped edges in the same order, and
// the same forest at 1T and 4T.  rmat at scale 12 runs both emit paths.
TEST(BoruvkaContractionDeterminism, SameRoundsAndForestAt1TAnd4T) {
  RmatParams rp;
  rp.scale = 12;
  rp.seed = 5;
  const EdgeList rmat = generate_rmat(rp);
  BundleHeavyParams bp;
  bp.seed = 4;
  const CsrGraph graphs[] = {csr(rmat), csr(make_bundle_heavy(bp))};
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  RunContext ctx1(pool1);
  RunContext ctx4(pool4);
  for (const CsrGraph& g : graphs) {
    for (const auto jumping :
         {PointerJumping::kAsynchronous, PointerJumping::kSynchronized}) {
      SCOPED_TRACE(testing::Message()
                   << "n=" << g.num_vertices() << " async="
                   << (jumping == PointerJumping::kAsynchronous));
      BoruvkaConfig c;
      c.jumping = jumping;
      RoundLog log1;
      RoundLog log4;
      const MstResult r1 = run_logged(g, ctx1, c, log1);
      const MstResult r4 = run_logged(g, ctx4, c, log4);
      ASSERT_EQ(r1.edges, r4.edges);
      EXPECT_EQ(r1.total_weight, r4.total_weight);
      EXPECT_EQ(r1.stats.rounds, r4.stats.rounds);
      EXPECT_TRUE(any_pair_table(log1));
      ASSERT_EQ(log1.rounds.size(), log4.rounds.size());
      for (std::size_t i = 0; i < log1.rounds.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "round " << i + 1);
        const BoruvkaRoundStats& a = log1.rounds[i];
        const BoruvkaRoundStats& b = log4.rounds[i];
        EXPECT_EQ(a.round, b.round);
        EXPECT_EQ(a.components, b.components);
        EXPECT_EQ(a.active_edges, b.active_edges);
        EXPECT_EQ(a.msf_edges_emitted, b.msf_edges_emitted);
        EXPECT_EQ(a.self_loops_dropped, b.self_loops_dropped);
        EXPECT_EQ(a.bundle_edges_dropped, b.bundle_edges_dropped);
        EXPECT_EQ(a.pair_table, b.pair_table);
        EXPECT_EQ(a.components_after, b.components_after);
        EXPECT_EQ(a.edges_after, b.edges_after);
        EXPECT_EQ(log1.dropped[i], log4.dropped[i]);
      }
    }
  }
}

// A cancel that lands mid-run stops the engine within one chunk of the sweep
// that sees it.  The returned forest is what hook emitted so far: component
// MWEs only, so a subset of the MSF, with the token's outcome.  On the
// thread pools the round observer cancels after round 1 and round 2's first
// sweep stops; under the simulator a timeline cancels at the scheduler
// decision halfway through a full run, i.e. inside some sweep's team, and
// the run must end a few decisions later.
class BoruvkaCancel : public testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(Executors, BoruvkaCancel,
                         testing::Values("1", "4", "sim"));

TEST_P(BoruvkaCancel, MidRunCancelReturnsASubsetOfTheMsf) {
  RmatParams rp;
  rp.scale = 12;
  rp.seed = 7;
  const CsrGraph g = csr(generate_rmat(rp));
  const MstResult reference = kruskal(g);
  for (const auto jumping :
       {PointerJumping::kAsynchronous, PointerJumping::kSynchronized}) {
    SCOPED_TRACE(testing::Message()
                 << "async=" << (jumping == PointerJumping::kAsynchronous));
    BoruvkaConfig c;
    c.jumping = jumping;
    CancelToken token;
    std::unique_ptr<Executor> executor;
    const sim::SimExecutor* sim_executor = nullptr;
    std::uint64_t cancel_at = 0;
    if (GetParam() == "sim") {
      sim::SimExecutor::Options o;
      o.seed = 3;
      o.workers = 4;
      std::uint64_t full_run = 0;
      {
        sim::SimExecutor probe(o);
        RunContext ctx;
        ctx.attach_executor(&probe);
        ASSERT_EQ(llp_boruvka_configured(g, ctx, c).edges, reference.edges);
        full_run = probe.decisions();
      }
      ASSERT_GT(full_run, 4u);
      cancel_at = full_run / 2;
      char spec[48];
      std::snprintf(spec, sizeof spec, "@%llu: cancel",
                    static_cast<unsigned long long>(cancel_at));
      o.timeline = spec;
      auto sim = std::make_unique<sim::SimExecutor>(o);
      ASSERT_TRUE(sim->timeline_error().empty());
      sim->bind_cancel(&token);
      sim_executor = sim.get();
      executor = std::move(sim);
    } else {
      executor = std::make_unique<ThreadPool>(std::stoul(GetParam()));
      c.round_observer = [&token](const BoruvkaRoundStats& info) {
        if (info.round == 1) token.cancel();
      };
    }
    RunContext ctx;
    ctx.attach_executor(executor.get());
    ctx.set_cancel(&token);
    const MstResult r = llp_boruvka_configured(g, ctx, c);
    EXPECT_EQ(r.stats.outcome, RunOutcome::kCancelled);
    EXPECT_LT(r.edges.size(), reference.edges.size());
    EXPECT_FALSE(r.edges.empty());
    if (sim_executor != nullptr) {
      // A few decisions after the cancel: each worker's next chunk grab and
      // the join, or for synchronized jumping the rest of one jump
      // iteration; never the rest of the round.
      EXPECT_LE(sim_executor->decisions(), cancel_at + 16);
    } else {
      // Round 2 began, and its first sweep stopped.
      EXPECT_EQ(r.stats.rounds, 2u);
    }
    // Both edge lists are in ascending id order (finalize_result).
    EXPECT_TRUE(std::includes(reference.edges.begin(), reference.edges.end(),
                              r.edges.begin(), r.edges.end()));
  }
}

}  // namespace
}  // namespace llpmst
