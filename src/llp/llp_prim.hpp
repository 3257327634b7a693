// LLP-Prim, sequential ("LLP-Prim (1T)" in the paper's Fig. 2): Prim's
// algorithm with *early fixing* (the paper's Algorithm 5, derived from the
// LLP formulation in Algorithm 4).
//
// Key differences from classic Prim:
//   * a vertex k is fixed immediately — without any heap traffic — whenever
//     a fixed vertex j relaxes edge (j, k) and that edge is the minimum-
//     weight edge (MWE) of either endpoint (the paper's two ways of becoming
//     fixed); such vertices go into the unordered bag R;
//   * R is drained before the heap is consulted; vertices in R may be
//     processed in any order;
//   * heap insertions for non-MWE discoveries are staged in Q and flushed
//     only when R drains, so a vertex that gets fixed for free while R is
//     processed never pays for a heap operation.
//   * a vertex fixed through R while it sits in the heap has its entry
//     erased at once, so the heap holds only unfixed vertices and every
//     pop fixes one.
//   * beyond the paper, which assumes a connected graph: when the heap
//     drains with vertices left, the next unfixed vertex roots a new tree,
//     so the result is the minimum spanning FOREST.
//
// The result is the same unique MST, with strictly fewer heap operations —
// the Fig. 2 single-thread advantage (~20-30%).
#pragma once

#include "mst/registry.hpp"

namespace llpmst {

class CancelToken;
class RunContext;

/// Ablation switches (both on = the paper's algorithm; both off = classic
/// Prim with an extra indirection, used to isolate where the win comes from).
struct LlpPrimOptions {
  bool mwe_fixing = true;  // early fixing through minimum-weight edges
  bool q_staging = true;   // defer heap inserts until R drains
};

/// `cancel` is polled every kScanStride vertices drained from R; a
/// triggered token returns the partial forest with the token's outcome.
[[nodiscard]] MstResult llp_prim(const CsrGraph& g, VertexId root = 0,
                                 const LlpPrimOptions& options = {},
                                 const CancelToken* cancel = nullptr);
/// Uniform registry entry point (sequential; polls the context's cancel
/// token).  This is what "llp-prim" dispatches to.
[[nodiscard]] MstResult llp_prim(const CsrGraph& g, RunContext& ctx);
/// Registry descriptor (see mst/registry.hpp).
[[nodiscard]] MstAlgorithm llp_prim_algorithm();

}  // namespace llpmst
