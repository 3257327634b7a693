// LLP-Boruvka (the paper's Algorithm 6): Boruvka where each round's star
// contraction is an LLP instance.
//
// Per round: every vertex picks its minimum-weight edge and its parent
// across it (symmetry broken by id on mutual picks); the resulting rooted
// trees are collapsed to stars by pointer jumping run as pure LLP —
//     forbidden(j) = G[j] != G[G[j]],   advance(j) = G[j] := G[G[j]]
// — evaluated "in parallel and without synchronization" (chaotic relaxed
// atomics, no barrier between jumps); then edges are re-targeted to star
// roots and self-loops dropped, and the algorithm recurses on the contracted
// graph.  The synchronized baseline (mst/parallel_boruvka.hpp) runs the same
// engine and contraction; LLP-Boruvka removes its per-jump barriers.
// Naturally computes minimum spanning *forests*.
#pragma once

#include "mst/boruvka_engine.hpp"
#include "mst/registry.hpp"

namespace llpmst {

/// Runs on ctx.executor(), reusing the context's BoruvkaScratch across runs.
/// ctx.cancel_token() (when set) stops the run between rounds; a triggered
/// token or an injected fault yields result.stats.outcome != kOk with a
/// PARTIAL forest.
[[nodiscard]] MstResult llp_boruvka(const CsrGraph& g, RunContext& ctx);
/// Registry descriptor (see mst/registry.hpp).
[[nodiscard]] MstAlgorithm llp_boruvka_algorithm();

/// Ablation entry point: run LLP-Boruvka with explicit engine knobs (which
/// pointer-jumping flavour, which load balance).  llp_boruvka() runs
/// kAsynchronous; the baseline runs kSynchronized.  Config fields override
/// the context (config.cancel, when set, beats ctx.cancel_token();
/// config.scratch == nullptr means a fresh engine-internal scratch, NOT the
/// context's — the ablation's scratch-reuse axis depends on that).
[[nodiscard]] MstResult llp_boruvka_configured(const CsrGraph& g,
                                               RunContext& ctx,
                                               const BoruvkaConfig& config);

}  // namespace llpmst
