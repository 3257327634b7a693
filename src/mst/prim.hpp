// Classic Prim's algorithm (the paper's Algorithm 2): grow one fragment from
// a root, always adding the minimum-weight outgoing edge, with an indexed
// binary heap supporting insertOrAdjust (decrease-key).
//
// This is the "Prim" baseline of Fig. 2.  On a disconnected graph the next
// unfixed vertex roots a new tree whenever the heap drains, so the result
// is the minimum spanning forest.
#pragma once

#include "mst/registry.hpp"

namespace llpmst {

class RunContext;

/// Runs Prim from `root`.  Heap type is the indexed binary heap; see
/// prim_with_heap in prim_heaps.hpp for the heap-choice ablation.
[[nodiscard]] MstResult prim(const CsrGraph& g, VertexId root = 0);
/// Uniform registry entry point (sequential; polls the context's cancel
/// token every kScanStride fixed vertices).
[[nodiscard]] MstResult prim(const CsrGraph& g, RunContext& ctx);
/// Registry descriptor (see mst/registry.hpp).
[[nodiscard]] MstAlgorithm prim_algorithm();

}  // namespace llpmst
