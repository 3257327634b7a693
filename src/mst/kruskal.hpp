// Kruskal's algorithm: order the edges by priority, add each edge that
// joins two different union-find components.  Handles forests naturally.
// One pass counts the edges into buckets keyed by the top digit of the
// weight's offset from the lightest weight.  The lightest whole buckets
// that hold 2n edges become {priority, u, v} records, in id order; each
// bucket in turn is sorted in cache (stable LSD radix passes over the
// offset bits below the digit, so ties stay in id order) and scanned
// straight from its records.  If the forest is not complete then, a filter
// pass keeps only the heavier edges that still join two trees, and those
// are bucketed, sorted and scanned the same way (Filter-Kruskal's filter,
// run once).  Serves as the oracle implementation in tests (simplest to
// audit), as a sequential baseline, and as mst::auto's fallback.
#pragma once

#include "mst/registry.hpp"

namespace llpmst {

class CancelToken;
class Executor;
class RunContext;

[[nodiscard]] MstResult kruskal(const CsrGraph& g);
/// Kruskal with cooperative cancellation checkpoints, one every
/// kScanStride records of every pass: the partition's weight pass, its
/// count and its scatter (each poll also passes the "kruskal/fill"
/// failpoint, per worker range on a team), the filter pass (the
/// "kruskal/filter" failpoint, likewise), each bucket sort's passes, and
/// the scans (each poll also passes the "kruskal/scan" failpoint).  A
/// cancelled run returns the partial forest built so far (empty before the
/// scan) with the token's reason in stats.outcome — this is the path
/// mst::auto's fallback runs on, so even the fallback honours deadlines and
/// user cancels.  The partition and the filter run on `ex` when one is
/// given, inline otherwise; the bucket sorts and the scans run on the
/// calling thread.  The forest does not depend on the worker count.
[[nodiscard]] MstResult kruskal_cancellable(const CsrGraph& g,
                                            const CancelToken* cancel,
                                            Executor* ex = nullptr);
/// Uniform registry entry point: polls ctx.cancel_token() and partitions
/// on ctx.executor().  A stopped run leaves the records it did not scan in
/// ctx.scratch(), so freeing them does not delay its return; they go with
/// the context, or with the next kruskal run on it.
[[nodiscard]] MstResult kruskal(const CsrGraph& g, RunContext& ctx);
/// Registry descriptor (see mst/registry.hpp).
[[nodiscard]] MstAlgorithm kruskal_algorithm();

}  // namespace llpmst
