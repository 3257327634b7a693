// Heap-generic Prim implementation backing both the classic baseline
// (indexed binary heap) and the heap-choice ablation bench (d-ary, pairing,
// lazy heaps).  The heap interface required is:
//   push(id, key), pop() -> (id, key), empty()
//   insert_or_adjust(id, key)  — optional; heaps without it (LazyHeap) get
//                                duplicate insertion + stale-pop skipping,
//                                exactly the variant the paper analyses in
//                                Section IV.
#pragma once

#include "mst/mst_result.hpp"
#include "support/assert.hpp"
#include "support/cancel.hpp"

namespace llpmst {

/// Grows a tree from `root`; when the heap drains with vertices left
/// (disconnected input), the next unfixed vertex starts a new tree, so the
/// result is the minimum spanning forest.  `cancel` is polled every
/// kScanStride fixed vertices; a triggered token returns the partial
/// forest with the token's outcome.
template <typename Heap>
[[nodiscard]] MstResult prim_with_heap(const CsrGraph& g, VertexId root,
                                       const CancelToken* cancel = nullptr) {
  const std::size_t n = g.num_vertices();
  MstResult r;
  if (n == 0) return r;  // the empty forest
  LLPMST_CHECK(root < n);

  std::vector<EdgePriority> dist(n, kInfinitePriority);
  std::vector<EdgeId> parent_edge(n, kInvalidEdge);
  std::vector<std::uint8_t> fixed(n, 0);

  Heap heap(n);
  std::size_t num_fixed = 0;
  std::size_t next_root = 0;  // forest-restart scan cursor
  VertexId tree_root = root;
  dist[root] = 0;
  heap.push(root, EdgePriority{0});

  while (num_fixed < n) {
    if (cancelled_at_stride(cancel, num_fixed)) {
      r.stats.outcome = cancel->reason();
      break;
    }
    if (heap.empty()) {
      // Component exhausted: the next unfixed vertex roots a new tree.
      while (fixed[next_root]) ++next_root;
      tree_root = static_cast<VertexId>(next_root);
      dist[tree_root] = 0;
      heap.push(tree_root, EdgePriority{0});
    }
    const auto [j, key] = heap.pop();
    if (fixed[j]) continue;  // stale entry (lazy heaps only)
    (void)key;
    fixed[j] = 1;
    ++num_fixed;
    ++r.stats.fixed_via_heap;
    if (j != tree_root) r.edges.push_back(parent_edge[j]);

    const auto nbrs = g.neighbors(j);
    const auto prios = g.arc_priorities(j);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId k = nbrs[i];
      if (fixed[k]) continue;
      ++r.stats.edges_relaxed;
      const EdgePriority p = prios[i];
      if (p < dist[k]) {
        dist[k] = p;
        parent_edge[k] = priority_edge(p);
        if constexpr (requires(Heap& h) { h.insert_or_adjust(k, p); }) {
          heap.insert_or_adjust(k, p);
        } else {
          heap.push(k, p);  // lazy: duplicates allowed, stale pops skipped
        }
      }
    }
  }

  r.stats.heap = heap.stats();
  finalize_result(g, r);
  return r;
}

}  // namespace llpmst
