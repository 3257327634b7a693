#include "mst/kruskal.hpp"

#include <span>
#include <vector>

#include "core/run_context.hpp"
#include "ds/union_find.hpp"
#include "obs/phase_timer.hpp"
#include "support/cancel.hpp"
#include "support/failpoint.hpp"
#include "support/radix_sort.hpp"

namespace llpmst {

namespace {
/// How many edges ahead the scan prefetches the edge record it will unite,
/// and (closer, once that record has arrived) the union-find parent slots
/// of its endpoints.  Measured on road-20, er-19 and rmat-19: with the
/// record only 16 ahead, reading it 8 ahead stalls on the denser graphs,
/// whose scan steps are short.
constexpr std::size_t kPrefetchDistance = 32;
constexpr std::size_t kParentPrefetchDistance = 8;
}  // namespace

MstResult kruskal(const CsrGraph& g) { return kruskal_cancellable(g, nullptr); }

MstResult kruskal_cancellable(const CsrGraph& g, const CancelToken* cancel) {
  obs::PhaseTimer phase("kruskal");
  const std::size_t n = g.num_vertices();
  const std::span<const WeightedEdge> edges = g.edges();
  const std::size_t m = edges.size();

  // A run stopped before the scan returns the empty forest: one tree per
  // vertex.  An already-triggered token (an expired budget before the
  // fallback) costs O(1): nothing is allocated or scanned.
  const auto stopped = [n](RunOutcome why) {
    MstResult r;
    r.stats.outcome = why;
    r.num_trees = n;
    return r;
  };
  if (cancel != nullptr && cancel->cancelled()) {
    return stopped(cancel->reason());
  }

  // Sort packed priorities == (weight, id) lexicographic.  `any & ~all`
  // marks the weight bits that are not the same for every edge.
  std::vector<EdgePriority> order;
  {
    obs::PhaseTimer sort_phase("sort");
    order.resize(m);
    Weight any = 0;
    Weight all = ~Weight{0};
    // The fill polls (and passes the "kruskal/fill" failpoint) once per
    // kScanStride keys, so a budget can stop it before the first sort pass.
    for (std::size_t lo = 0; lo < m; lo += kScanStride) {
      if (LLPMST_FAILPOINT("kruskal/fill") != fail::Action::kNone) {
        return stopped(RunOutcome::kInjectedFault);
      }
      if (cancel != nullptr && cancel->cancelled()) {
        return stopped(cancel->reason());
      }
      const std::size_t hi = lo + kScanStride < m ? lo + kScanStride : m;
      for (std::size_t e = lo; e < hi; ++e) {
        const Weight w = edges[e].w;
        order[e] = make_priority(w, static_cast<EdgeId>(e));
        any |= w;
        all &= w;
      }
    }
    // Stable LSD passes over the weight half only: the keys arrive in id
    // order, so stability leaves them in full (weight, id) order.  The token
    // is polled before the scratch buffer is allocated and every
    // kScanStride keys of each pass: on cancellation the sort stops early,
    // leaving the keys unordered, and the scan's poll at i == 0 reports the
    // outcome before any key is used.
    const auto stop = [cancel] {
      return cancel != nullptr && cancel->cancelled();
    };
    const Weight varying = any & ~all;
    if (varying != 0 && !stop()) {
      std::vector<EdgePriority> scratch(m);
      const std::span<EdgePriority> sorted = lsd_radix_sort(
          std::span<EdgePriority>(order), std::span<EdgePriority>(scratch),
          varying, [](EdgePriority k) { return priority_weight(k); }, stop);
      if (sorted.data() == scratch.data()) order.swap(scratch);
    }
  }

  MstResult r;
  r.edges.reserve(n > 0 ? n - 1 : 0);
  {
    obs::PhaseTimer scan_phase("scan");
    UnionFind uf(n);
    for (std::size_t i = 0; i < m; ++i) {
      if (i % kScanStride == 0) {
        // Chaos hook: the fallback oracle's scan.  This is the window where
        // "user cancel arrives while mst::auto is already falling back" is
        // exercised deterministically — a scripted timeline cancels on a hit
        // of this point, and the poll right after observes it.
        if (LLPMST_FAILPOINT("kruskal/scan") != fail::Action::kNone) {
          r.stats.outcome = RunOutcome::kInjectedFault;
          break;
        }
        if (cancel != nullptr && cancel->cancelled()) {
          r.stats.outcome = cancel->reason();
          break;
        }
      }
      if (i + kPrefetchDistance < m) {
        __builtin_prefetch(
            &edges[priority_edge(order[i + kPrefetchDistance])]);
      }
      if (i + kParentPrefetchDistance < m) {
        const WeightedEdge& ahead =
            edges[priority_edge(order[i + kParentPrefetchDistance])];
        uf.prefetch(ahead.u);
        uf.prefetch(ahead.v);
      }
      const EdgeId e = priority_edge(order[i]);
      const WeightedEdge& we = edges[e];
      if (uf.unite(we.u, we.v)) {
        r.edges.push_back(e);
        if (r.edges.size() + 1 == n) break;  // spanning tree complete
      }
    }
  }
  finalize_result(g, r);
  return r;
}

MstResult kruskal(const CsrGraph& g, RunContext& ctx) {
  return kruskal_cancellable(g, ctx.cancel_token());
}

MstAlgorithm kruskal_algorithm() {
  return {"kruskal", "Kruskal",
          "radix-sort packed priorities, grow the forest through union-find "
          "(the oracle)",
          {.parallel = false},
          [](const CsrGraph& g, RunContext& ctx) { return kruskal(g, ctx); }};
}

}  // namespace llpmst
