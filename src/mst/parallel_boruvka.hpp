// Parallel Boruvka baseline ("Boruvka" in Figs. 3-4): the conventional
// bulk-synchronous formulation in the style of GBBS — atomic MWE selection,
// id-symmetry-broken hooking, *synchronized* pointer-jumping rounds, and
// the engine's exact bundle-minimum contraction, which LLP-Boruvka shares.
// Handles forests (MSF).
#pragma once

#include "mst/registry.hpp"

namespace llpmst {

class RunContext;

/// Runs on ctx.executor(), polls ctx.cancel_token() between rounds, and reuses
/// the context's BoruvkaScratch across runs.
[[nodiscard]] MstResult parallel_boruvka(const CsrGraph& g, RunContext& ctx);
/// Registry descriptor (see mst/registry.hpp).
[[nodiscard]] MstAlgorithm parallel_boruvka_algorithm();

}  // namespace llpmst
