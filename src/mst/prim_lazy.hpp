// Lazy-heap Prim: the variant the paper's Section IV complexity analysis
// describes ("instead of adjusting the key ... simply insert the vertex in
// the heap"; stale pops are skipped).  O(m) heap entries, O(m log m) time.
#pragma once

#include "mst/registry.hpp"

namespace llpmst {

class RunContext;

[[nodiscard]] MstResult prim_lazy(const CsrGraph& g, VertexId root = 0);
/// Uniform registry entry point (sequential; polls the context's cancel
/// token every kScanStride fixed vertices).
[[nodiscard]] MstResult prim_lazy(const CsrGraph& g, RunContext& ctx);
/// Registry descriptor (see mst/registry.hpp).
[[nodiscard]] MstAlgorithm prim_lazy_algorithm();

}  // namespace llpmst
