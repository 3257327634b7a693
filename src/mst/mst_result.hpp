// Common result type for every MST/MSF algorithm in the library.
//
// Because all algorithms order edges by the packed priority (weight, id),
// the minimum spanning forest is unique; each algorithm reports its chosen
// undirected edge ids, canonicalized to ascending order, so results are
// directly comparable with operator== in tests.
#pragma once

#include <cstdint>
#include <vector>

#include "ds/binary_heap.hpp"  // HeapStats
#include "graph/csr_graph.hpp"
#include "graph/types.hpp"
#include "support/status.hpp"

namespace llpmst {

/// Instrumentation every algorithm fills in as applicable; the ablation
/// benchmarks report these (Fig. 2's "why is LLP-Prim faster" analysis).
struct MstAlgoStats {
  HeapStats heap;                     // heap traffic (Prim family)
  std::uint64_t fixed_via_heap = 0;   // vertices fixed by a heap pop
  std::uint64_t fixed_via_mwe = 0;    // vertices fixed through the R set
  std::uint64_t staged_in_q = 0;      // deferred heap inserts (LLP-Prim Q)
  std::uint64_t edges_relaxed = 0;    // arc relaxations performed
  std::uint64_t rounds = 0;           // Boruvka rounds / LLP iterations
  std::uint64_t pointer_jumps = 0;    // advance() steps in pointer jumping
  std::uint64_t llp_sweeps = 0;       // worklist/frontier sweeps (LLP family)
  std::uint64_t llp_inline_sweeps = 0;      // sweeps the caller ran alone
  std::uint64_t llp_dispatched_sweeps = 0;  // sweeps a thread team ran
  std::uint64_t llp_advances = 0;     // advance() calls, when llp_solve ran
  /// Per-run verdict: anything other than kOk means the result is PARTIAL —
  /// the edge set covers only the work completed before the run stopped
  /// (cancellation, deadline, injected fault, or sweep-cap non-convergence).
  RunOutcome outcome = RunOutcome::kOk;
  bool llp_converged = true;          // false iff an LLP sweep cap was hit
};

/// Folds an algorithm's per-run stats into the process-wide observability
/// counters under "<algo>/..." (e.g. "llp_prim/heap_inserts").  One bulk add
/// per counter per run — hot loops keep using their local stats.  No-op
/// cost when observability is compiled out.
void record_algo_metrics(const char* algo, const MstAlgoStats& s);

struct MstResult {
  /// Chosen undirected edge ids, sorted ascending.  (A malformed set from
  /// a buggy algorithm keeps its duplicate or out-of-range ids after the
  /// ascending ones, where the verifier rejects them.)
  std::vector<EdgeId> edges;
  /// Sum of weights of the chosen edges.  Meaningless when weight_overflow.
  TotalWeight total_weight = 0;
  /// True if summing the chosen weights overflowed the 64-bit accumulator.
  /// Unreachable with 32-bit weights and < 2^32 edges, but the check keeps
  /// the report honest if Weight ever widens — an overflowed total is
  /// flagged, never silently wrapped.
  bool weight_overflow = false;
  /// Number of trees in the forest (n - |edges| for a valid MSF).
  std::size_t num_trees = 0;
  MstAlgoStats stats;
};

/// Adds `w` into `acc`, detecting unsigned wraparound.  Returns false (and
/// leaves the wrapped value in `acc`) on overflow.  Shared by
/// finalize_result and the verifier so both sides agree on what "overflow"
/// means.
[[nodiscard]] inline bool checked_weight_add(TotalWeight& acc, TotalWeight w) {
#if defined(__GNUC__) || defined(__clang__)
  return !__builtin_add_overflow(acc, w, &acc);
#else
  const TotalWeight before = acc;
  acc += w;
  return acc >= before;
#endif
}

/// Puts edge ids in ascending order through an m-bit bitmap (no sort), sums
/// their weights (overflow-checked), and derives num_trees.  Every
/// algorithm calls this once at the end.  A caller that summed the weights
/// into r.total_weight / r.weight_overflow while choosing the edges passes
/// `weights_summed`, which skips reading g.edge(e).w for every forest edge
/// (a second pass over the edge array for a caller that has the weights).
void finalize_result(const CsrGraph& g, MstResult& r,
                     bool weights_summed = false);

}  // namespace llpmst
