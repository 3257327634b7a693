#include "mst/boruvka.hpp"

#include <algorithm>
#include <vector>

#include "core/run_context.hpp"
#include "support/cancel.hpp"

namespace llpmst {

MstResult boruvka(const CsrGraph& g, const CancelToken* cancel) {
  const std::size_t n = g.num_vertices();
  const std::size_t m = g.num_edges();

  MstResult r;
  std::vector<bool> in_tree(m, false);
  std::vector<VertexId> cid(n);
  std::vector<EdgePriority> best(n);
  std::vector<VertexId> stack;
  // Each round's traversal and edge sweep poll `cancel` every kScanStride
  // steps; a stop keeps the forest of the rounds already finished.
  const auto stopped = [&](std::size_t step) {
    if (!cancelled_at_stride(cancel, step)) return false;
    r.stats.outcome = cancel->reason();
    return true;
  };

  for (;;) {
    ++r.stats.rounds;

    // Component identification by BFS/DFS over tree edges (Algorithm 3's
    // BFS(i) loop).  Iterating sources ascending labels each component with
    // its minimum vertex id.
    std::fill(cid.begin(), cid.end(), kInvalidVertex);
    std::size_t visited = 0;
    for (VertexId i = 0; i < n && r.stats.outcome == RunOutcome::kOk; ++i) {
      if (cid[i] != kInvalidVertex) continue;
      cid[i] = i;
      stack.assign(1, i);
      while (!stack.empty()) {
        if (stopped(visited++)) break;
        const VertexId u = stack.back();
        stack.pop_back();
        const auto nbrs = g.neighbors(u);
        const auto prios = g.arc_priorities(u);
        for (std::size_t a = 0; a < nbrs.size(); ++a) {
          if (!in_tree[priority_edge(prios[a])]) continue;
          const VertexId v = nbrs[a];
          if (cid[v] != kInvalidVertex) continue;
          cid[v] = i;
          stack.push_back(v);
        }
      }
    }

    // Minimum outgoing edge per component (the dist/mwe sweep).
    std::fill(best.begin(), best.end(), kInfinitePriority);
    for (EdgeId e = 0; e < m && r.stats.outcome == RunOutcome::kOk; ++e) {
      if (stopped(e)) break;
      const WeightedEdge& we = g.edge(e);
      const VertexId cu = cid[we.u], cv = cid[we.v];
      if (cu == cv) continue;
      const EdgePriority p = make_priority(we.w, e);
      if (p < best[cu]) best[cu] = p;
      if (p < best[cv]) best[cv] = p;
    }

    if (r.stats.outcome != RunOutcome::kOk) break;

    // Add every component's mwe (both sides may pick the same edge; the
    // in_tree flag makes the second add a no-op).
    std::size_t added = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (cid[v] != v || best[v] == kInfinitePriority) continue;
      const EdgeId e = priority_edge(best[v]);
      if (!in_tree[e]) {
        in_tree[e] = true;
        r.edges.push_back(e);
        ++added;
      }
    }
    if (added == 0) break;  // every component is maximal: MSF complete
  }

  finalize_result(g, r);
  return r;
}

MstResult boruvka(const CsrGraph& g, RunContext& ctx) {
  return boruvka(g, ctx.cancel_token());
}

MstAlgorithm boruvka_algorithm() {
  return {"boruvka", "Boruvka (1T)",
          "sequential Boruvka, faithful per-round BFS (Algorithm 3)",
          {.parallel = false},
          [](const CsrGraph& g, RunContext& ctx) { return boruvka(g, ctx); }};
}

}  // namespace llpmst
