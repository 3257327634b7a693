#include "mst/filter_kruskal.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "core/run_context.hpp"
#include "ds/concurrent_union_find.hpp"
#include "parallel/scan.hpp"
#include "support/failpoint.hpp"
#include "support/random.hpp"

namespace llpmst {

namespace {

/// Cancellation / failpoint polling stride, as in kruskal.cpp: the pivot
/// partition, the parallel filter and the base-case scan poll once per this
/// many edges, so a deadline lands mid-pass instead of after the recursion.
constexpr std::size_t kScanStride = 1024;

struct FilterKruskalState {
  const CsrGraph& g;
  Executor& pool;
  const CancelToken* cancel;
  ConcurrentUnionFind uf;
  std::vector<EdgeId> chosen;
  std::size_t components;  // remaining merges possible
  Xoshiro256 rng{0x9e3779b9u};
  std::atomic<RunOutcome> outcome{RunOutcome::kOk};  // first stop wins

  FilterKruskalState(const CsrGraph& graph, Executor& p,
                     const CancelToken* token)
      : g(graph), pool(p), cancel(token), uf(graph.num_vertices()),
        components(graph.num_vertices()) {}

  /// Stride poll, safe from any worker: the chaos hook, then the token.  The
  /// first stop is latched, so every recursion level unwinds after it.
  bool poll() {
    RunOutcome o = RunOutcome::kOk;
    if (LLPMST_FAILPOINT("filter_kruskal/scan") != fail::Action::kNone) {
      o = RunOutcome::kInjectedFault;
    } else if (cancel != nullptr && cancel->cancelled()) {
      o = cancel->reason();
    }
    if (o != RunOutcome::kOk) {
      RunOutcome none = RunOutcome::kOk;
      outcome.compare_exchange_strong(none, o, std::memory_order_relaxed);
    }
    return stopped();
  }

  [[nodiscard]] bool stopped() const {
    return outcome.load(std::memory_order_relaxed) != RunOutcome::kOk;
  }

  /// Base case: sort the slice and run plain Kruskal over it.  Edges are
  /// united in global priority order, so a stop leaves a valid partial
  /// forest.
  void kruskal_base(std::vector<EdgePriority>& edges) {
    std::sort(edges.begin(), edges.end());
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (i % kScanStride == 0 && poll()) return;
      const EdgePriority p = edges[i];
      const WeightedEdge& we = g.edge(priority_edge(p));
      if (uf.unite(we.u, we.v)) {
        chosen.push_back(priority_edge(p));
        --components;
        if (components == 1) return;
      }
    }
  }

  /// Removes edges whose endpoints are already connected.  find-only
  /// concurrent traffic on the lock-free UF; unions are quiesced here.
  /// After a stop every edge reads as filtered, so parallel_filter's write
  /// pass never keeps more edges than its count pass sized.
  void filter(std::vector<EdgePriority>& edges) {
    std::vector<EdgePriority> kept;
    parallel_filter(
        pool, edges.size(), kept,
        [&](std::size_t i) {
          if (i % kScanStride == 0) poll();
          if (stopped()) return false;
          const WeightedEdge& we = g.edge(priority_edge(edges[i]));
          return uf.find(we.u) != uf.find(we.v);
        },
        [&](std::size_t i) { return edges[i]; });
    edges.swap(kept);
  }

  void solve(std::vector<EdgePriority>& edges) {
    constexpr std::size_t kBaseThreshold = 2048;
    if (components <= 1 || edges.empty() || stopped()) return;
    if (edges.size() <= kBaseThreshold) {
      kruskal_base(edges);
      return;
    }

    // Median-of-three random pivot on the packed priority.
    const auto sample = [&] {
      return edges[rng.next_below(edges.size())];
    };
    EdgePriority a = sample(), b = sample(), c = sample();
    if (a > b) std::swap(a, b);
    if (b > c) std::swap(b, c);
    if (a > b) std::swap(a, b);
    const EdgePriority pivot = b;

    std::vector<EdgePriority> light, heavy;
    light.reserve(edges.size() / 2);
    heavy.reserve(edges.size() / 2);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (i % kScanStride == 0 && poll()) return;
      const EdgePriority p = edges[i];
      (p <= pivot ? light : heavy).push_back(p);
    }
    if (heavy.empty()) {
      // Degenerate pivot (the maximum priority): no split happened.  Fall
      // back to plain Kruskal on the slice rather than recursing in place.
      kruskal_base(light);
      return;
    }
    edges.clear();
    edges.shrink_to_fit();

    solve(light);
    if (components > 1 && !heavy.empty() && !stopped()) {
      filter(heavy);
      solve(heavy);
    }
  }
};

}  // namespace

MstResult filter_kruskal(const CsrGraph& g, RunContext& ctx) {
  FilterKruskalState state(g, ctx.executor(), ctx.cancel_token());
  std::vector<EdgePriority> edges(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) edges[e] = g.edge_priority(e);
  state.solve(edges);

  MstResult r;
  r.edges = std::move(state.chosen);
  r.stats.outcome = state.outcome.load(std::memory_order_relaxed);
  finalize_result(g, r);
  return r;
}

MstAlgorithm filter_kruskal_algorithm() {
  return {"filter-kruskal", "Filter-Kruskal",
          "pivot recursion + parallel component filter (OSS 2009)",
          {.parallel = true, .msf_capable = true, .deterministic = true,
           .cancellable = true},
          [](const CsrGraph& g, RunContext& ctx) {
            return filter_kruskal(g, ctx);
          }};
}

}  // namespace llpmst
