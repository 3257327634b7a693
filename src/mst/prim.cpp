#include "mst/prim.hpp"

#include "core/run_context.hpp"
#include "ds/binary_heap.hpp"
#include "mst/prim_heaps.hpp"

namespace llpmst {

MstResult prim(const CsrGraph& g, VertexId root) {
  return prim_with_heap<BinaryHeap<EdgePriority>>(g, root);
}

MstResult prim(const CsrGraph& g, RunContext& ctx) {
  return prim_with_heap<BinaryHeap<EdgePriority>>(g, 0, ctx.cancel_token());
}

MstAlgorithm prim_algorithm() {
  return {"prim", "Prim",
          "classic Prim with an indexed binary heap (Fig. 2 baseline)",
          {.parallel = false},
          [](const CsrGraph& g, RunContext& ctx) { return prim(g, ctx); }};
}

}  // namespace llpmst
