// Kruskal's algorithm: order the edges by priority, add each edge that
// joins two different union-find components.  Handles forests naturally.
// One pass partitions the edges, in id order, into buckets of {priority, u,
// v} records keyed by the top digit of the weight bits that vary; then each
// bucket in turn is sorted in cache (stable LSD radix passes over the
// weight bits below the digit, so ties stay in id order) and scanned
// straight from its records.  Serves as the oracle implementation in tests
// (simplest to audit), as a sequential baseline, and as mst::auto's
// fallback.
#pragma once

#include "mst/registry.hpp"

namespace llpmst {

class CancelToken;
class Executor;
class RunContext;

[[nodiscard]] MstResult kruskal(const CsrGraph& g);
/// Kruskal with cooperative cancellation checkpoints, one every
/// kScanStride records of every pass: the partition's weight-bit pass, its
/// count and its scatter (each poll also passes the "kruskal/fill"
/// failpoint, per worker range on a team), each bucket sort's passes, and
/// the scan (each poll also passes the "kruskal/scan" failpoint).  A
/// cancelled run returns the partial forest built so far (empty before the
/// scan) with the token's reason in stats.outcome — this is the path
/// mst::auto's fallback runs on, so even the fallback honours deadlines and
/// user cancels.  The partition runs on `ex` when one is given, inline
/// otherwise; the bucket sorts and the scan run on the calling thread.  The
/// forest does not depend on the worker count.
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
