#include "mst/prim_lazy.hpp"

#include "core/run_context.hpp"
#include "ds/lazy_heap.hpp"
#include "mst/prim_heaps.hpp"

namespace llpmst {

MstResult prim_lazy(const CsrGraph& g, VertexId root) {
  return prim_with_heap<LazyHeap<EdgePriority>>(g, root);
}

MstResult prim_lazy(const CsrGraph& g, RunContext& ctx) {
  return prim_with_heap<LazyHeap<EdgePriority>>(g, 0, ctx.cancel_token());
}

MstAlgorithm prim_lazy_algorithm() {
  return {"prim-lazy", "Prim (lazy heap)",
          "Prim with lazy inserts and stale pops (Section IV's variant)",
          {.parallel = false},
          [](const CsrGraph& g, RunContext& ctx) { return prim_lazy(g, ctx); }};
}

}  // namespace llpmst
