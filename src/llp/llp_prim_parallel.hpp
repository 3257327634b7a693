// Parallel LLP-Prim ("LLP-Prim" in the paper's Figs. 3-4): the early-fixing
// algorithm with the R set drained by the whole thread team.
//
// Parallel structure per super-step:
//   * the current frontier (a snapshot of R) is processed in parallel;
//     fixing a vertex is a CAS claim on its fixed flag; tentative distances
//     are atomic fetch-mins on the packed (priority) word, whose low half
//     *is* the parent edge id — one word carries both `d` and `parent`;
//   * newly fixed vertices go into per-worker bag buffers (no contention);
//     vertices whose distance improved go into per-worker Q buffers;
//   * when R drains, one thread flushes Q into the binary heap and pops the
//     next nearest non-fixed vertex — the sequential bottleneck the paper
//     acknowledges, which is why LLP-Prim wins at low core counts and
//     plateaus around 8 threads (Fig. 3).
//   * when the heap drains with vertices left (a disconnected graph), the
//     next tree starts at the next unfixed vertex, as in sequential
//     LLP-Prim's forest mode.
//
// The result is the same unique minimum spanning forest for every thread
// count.
#pragma once

#include "mst/registry.hpp"

namespace llpmst {

class RunContext;

/// Runs on ctx.executor().  ctx.cancel_token() (when set) is polled once per
/// super-step; a triggered token (or the "llp_prim/handoff" failpoint)
/// stops the run early with result.stats.outcome != kOk and a PARTIAL edge
/// set — callers must check the outcome before trusting the forest
/// (mst::auto does, and falls back).
[[nodiscard]] MstResult llp_prim_parallel(const CsrGraph& g, RunContext& ctx,
                                          VertexId root = 0);
/// Registry descriptor (see mst/registry.hpp).
[[nodiscard]] MstAlgorithm llp_prim_parallel_algorithm();

}  // namespace llpmst
