#include "llp/llp_prim.hpp"

#include <vector>

#include "ds/binary_heap.hpp"
#include "obs/hw_counters.hpp"
#include "obs/phase_timer.hpp"
#include "support/assert.hpp"

namespace llpmst {

MstResult llp_prim(const CsrGraph& g, VertexId root,
                   const LlpPrimOptions& options) {
  const std::size_t n = g.num_vertices();
  LLPMST_CHECK_MSG(n >= 1, "LLP-Prim requires a non-empty graph");
  LLPMST_CHECK(root < n);

  obs::PhaseTimer algo_span("llp_prim");
  obs::ScopedHwCounters hw_scope("llp_prim");
  MstResult r;
  r.edges.reserve(n - 1);
  // dist[k] packs k's tentative priority; its low half is k's parent edge.
  std::vector<EdgePriority> dist(n, kInfinitePriority);
  std::vector<std::uint8_t> fixed(n, 0);
  std::vector<std::uint8_t> in_q(n, 0);

  BinaryHeap<EdgePriority> heap(n);
  std::vector<VertexId> bag_r;   // the unordered R set
  std::vector<VertexId> q;       // staged insertOrAdjust targets

  std::size_t num_fixed = 1;
  std::size_t next_root = 0;  // forest-restart scan cursor
  fixed[root] = 1;
  ++r.stats.fixed_via_heap;  // the root counts as the initial heap seed
  bag_r.push_back(root);

  for (;;) {
    // "This algorithm can be terminated as soon as n-1 edges have been
    // chosen" (Section V-A) — once everything is fixed, the remaining R
    // members' arcs lead only to fixed vertices and the heap holds only
    // stale entries.
    if (num_fixed == n) break;

    // Drain R: vertices here are already fixed; explore their edges.  Order
    // within R is irrelevant (the LLP property) — we pop LIFO.  Each drain
    // is one worklist sweep in the Algorithm 1 sense.
    if (!bag_r.empty()) ++r.stats.llp_sweeps;
    {
      obs::PhaseTimer relax_span("relax");
      while (!bag_r.empty() && num_fixed < n) {
        const VertexId j = bag_r.back();
        bag_r.pop_back();

        const auto nbrs = g.neighbors(j);
        const auto prios = g.arc_priorities(j);
        const auto mwe_flags = g.arc_mwe_flags(j);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const VertexId k = nbrs[i];
          if (fixed[k]) continue;
          ++r.stats.edges_relaxed;
          const EdgePriority p = prios[i];

          // Early fixing: (j, k) is the MWE of j or of k -> it is an MST edge
          // and j is fixed, so k's parent is j (see Section V-A).  The flag is
          // precomputed per arc so this is a sequential-stream read.
          if (options.mwe_fixing && mwe_flags[i]) {
            fixed[k] = 1;
            ++num_fixed;
            ++r.stats.fixed_via_mwe;
            // k's heap entry, if any, is dead: erase it, so the heap holds
            // only unfixed vertices.
            if (heap.contains(k)) heap.erase(k);
            r.edges.push_back(priority_edge(p));
            bag_r.push_back(k);
            continue;
          }

          if (p < dist[k]) {
            dist[k] = p;
            if (options.q_staging) {
              if (!in_q[k]) {
                in_q[k] = 1;
                q.push_back(k);
              }
            } else {
              heap.insert_or_adjust(k, p);
            }
          }
        }
      }
    }

    // Everything fixed during the drain: skip the flush.
    if (num_fixed == n) break;

    // R drained: flush the staged heap updates.  Vertices fixed for free in
    // the meantime never touch the heap — that is the optimization.
    {
      obs::PhaseTimer flush_span("heap_flush");
      for (const VertexId k : q) {
        in_q[k] = 0;
        if (!fixed[k]) {
          heap.insert_or_adjust(k, dist[k]);
          ++r.stats.staged_in_q;
        }
      }
      q.clear();
    }

    // Fall back to the heap for the next nearest non-fixed vertex.  Every
    // entry is unfixed (R erased the others), so every pop fixes a vertex
    // and the popped key carries its parent edge.
    VertexId next = 0;
    obs::PhaseTimer pop_span("heap_pop");
    if (!heap.empty()) {
      const auto [j, key] = heap.pop();
      LLPMST_ASSERT(!fixed[j]);
      r.edges.push_back(priority_edge(key));
      next = j;
    } else if (options.allow_forest) {
      // Forest extension: component exhausted but vertices remain — start a
      // new tree from the next unfixed vertex (it becomes that tree's root
      // and contributes no edge).
      while (fixed[next_root]) ++next_root;
      next = static_cast<VertexId>(next_root);
    } else {
      break;
    }
    fixed[next] = 1;
    ++num_fixed;
    ++r.stats.fixed_via_heap;
    bag_r.push_back(next);
  }

  LLPMST_CHECK_MSG(num_fixed == n,
                   "LLP-Prim requires a connected graph; use llp_prim_msf "
                   "or LLP-Boruvka for forests");
  r.stats.heap = heap.stats();
  record_algo_metrics("llp_prim", r.stats);
  finalize_result(g, r);
  return r;
}

MstResult llp_prim_msf(const CsrGraph& g) {
  if (g.num_vertices() == 0) return {};  // empty graph: the empty forest
  LlpPrimOptions options;
  options.allow_forest = true;
  return llp_prim(g, 0, options);
}

MstResult llp_prim_msf(const CsrGraph& g, RunContext& /*ctx*/) {
  return llp_prim_msf(g);
}

MstAlgorithm llp_prim_algorithm() {
  return {"llp-prim", "LLP-Prim (1T)",
          "Prim with early fixing + staged heap inserts (Algorithm 5)",
          {.parallel = false, .msf_capable = true, .deterministic = true,
           .cancellable = false},
          [](const CsrGraph& g, RunContext& ctx) {
            return llp_prim_msf(g, ctx);
          }};
}

}  // namespace llpmst
