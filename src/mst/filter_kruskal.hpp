// Filter-Kruskal (Osipov, Sanders, Singler 2009): quicksort-style recursion
// on the edge set — pick a pivot, recurse on the light half, then *filter*
// the heavy half through the union-find (edges inside one component can
// never be tree edges) before recursing on it.  Avoids sorting most of the
// heavy edges entirely.
//
// Included as an additional modern baseline: it shares Kruskal's sequential
// union-find spine but does asymptotically less sorting, which positions it
// between Kruskal and the Prim family on dense graphs.  The filter step runs
// on the thread pool (find-only traffic on a lock-free union-find is safe to
// parallelize; unions happen only in the quiesced base case).
#pragma once

#include "mst/registry.hpp"

namespace llpmst {

class RunContext;

/// The filter step runs on ctx.executor(); unions stay sequential.
/// ctx.cancel_token() (when set) and the "filter_kruskal/scan" failpoint are
/// polled every 1024 edges of every partition, filter and base-case pass; a
/// stop yields result.stats.outcome != kOk with the PARTIAL forest united so
/// far.
[[nodiscard]] MstResult filter_kruskal(const CsrGraph& g, RunContext& ctx);
/// Registry descriptor (see mst/registry.hpp).
[[nodiscard]] MstAlgorithm filter_kruskal_algorithm();

}  // namespace llpmst
