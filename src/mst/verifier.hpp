// MSF verification.
//
// verify_msf checks, for a claimed minimum spanning forest:
//   1. shape   — every edge id valid and distinct; the edge set is acyclic
//                (union-find); |edges| = n - #components of the input graph;
//   2. spanning— the edge set connects exactly the input's components;
//   3. minimal — the cut property, checked exactly: for every *non-tree*
//                edge (u, v), the maximum edge priority on the u..v path in
//                the forest must be smaller than the non-tree edge's
//                priority (cycle property of MSTs — with unique priorities
//                this certifies the forest is THE minimum one).
//
// The cycle-property check is implemented by rooting each tree and walking
// the two endpoint-to-LCA paths with ancestor hops, O(m * depth) worst case
// but fine at test scale; verify_msf_quick skips it for benchmark-scale
// graphs and checks shape/spanning plus weight equality with a reference.
#pragma once

#include <string>

#include "mst/mst_result.hpp"

namespace llpmst {

class RunContext;

struct VerifyResult {
  bool ok = false;
  std::string error;  // human-readable reason when !ok
};

/// Full verification including the exact minimality (cycle property) check.
[[nodiscard]] VerifyResult verify_msf(const CsrGraph& g, const MstResult& r);

/// Shape + spanning only (no minimality); O(n + m).
[[nodiscard]] VerifyResult verify_spanning_forest(const CsrGraph& g,
                                                  const MstResult& r);

/// Shape only, for the partial forest of a run that stopped early: edge ids
/// valid and distinct, the edge set acyclic, and total_weight / num_trees
/// consistent with it.  No spanning or minimality check; O(n + |edges|).
[[nodiscard]] VerifyResult verify_partial_forest(const CsrGraph& g,
                                                 const MstResult& r);

/// Context-aware variants: cross-check the forest's tree count against the
/// RunContext's cached connectivity answer when one exists (an mst::auto run
/// through the same context already computed it — a disagreement fails fast
/// before the edge sweep), and seed the cache from the verifier's own
/// union-find on success so later consumers skip the component sweep
/// entirely.  Verification semantics are otherwise identical.
[[nodiscard]] VerifyResult verify_msf(const CsrGraph& g, const MstResult& r,
                                      RunContext& ctx);
[[nodiscard]] VerifyResult verify_spanning_forest(const CsrGraph& g,
                                                  const MstResult& r,
                                                  RunContext& ctx);

}  // namespace llpmst
