// Kruskal's algorithm: globally sort edges by priority, add each edge that
// joins two different union-find components.  Handles forests naturally.
// The sort is a stable LSD radix sort over the weight half of the packed
// priorities, which arrive in id order, so it yields (weight, id) order with
// no comparator.  Serves as the oracle implementation in tests (simplest to
// audit), as a sequential baseline, and as mst::auto's fallback.
#pragma once

#include "mst/registry.hpp"

namespace llpmst {

class CancelToken;
class RunContext;

[[nodiscard]] MstResult kruskal(const CsrGraph& g);
/// Kruskal with a cooperative cancellation checkpoint before each radix
/// pass, and one (plus the "kruskal/scan" failpoint) every 1024 scanned
/// edges.  A cancelled run returns the partial forest built so far with the
/// token's reason in stats.outcome — this is the path mst::auto's
/// sequential fallback runs on, so even the fallback honours deadlines and
/// user cancels.
[[nodiscard]] MstResult kruskal_cancellable(const CsrGraph& g,
                                            const CancelToken* cancel);
/// Uniform registry entry point: polls ctx.cancel_token().
[[nodiscard]] MstResult kruskal(const CsrGraph& g, RunContext& ctx);
/// Registry descriptor (see mst/registry.hpp).
[[nodiscard]] MstAlgorithm kruskal_algorithm();

}  // namespace llpmst
