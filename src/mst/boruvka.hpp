// Classic sequential Boruvka (the paper's Algorithm 3): repeatedly identify
// components of (V, T) by BFS, find each component's minimum outgoing edge
// by an edge sweep, add all of them to T.  Handles forests.
//
// Kept faithful to the paper's formulation — including the per-round BFS
// over the tree-so-far, which is what makes single-threaded Boruvka ~3x
// slower than the Prim family in Fig. 2.
#pragma once

#include "mst/registry.hpp"

namespace llpmst {

class CancelToken;
class RunContext;

/// `cancel` is polled every kScanStride vertices and edges of each round's
/// sweeps; a triggered token returns the forest of the finished rounds
/// with the token's outcome.
[[nodiscard]] MstResult boruvka(const CsrGraph& g,
                                const CancelToken* cancel = nullptr);
/// Uniform registry entry point (sequential; polls the context's cancel
/// token).
[[nodiscard]] MstResult boruvka(const CsrGraph& g, RunContext& ctx);
/// Registry descriptor (see mst/registry.hpp).
[[nodiscard]] MstAlgorithm boruvka_algorithm();

}  // namespace llpmst
