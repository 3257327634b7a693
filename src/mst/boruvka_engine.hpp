// Shared round engine for the two parallel Boruvka variants.
//
// Both the GBBS-style baseline (mst/parallel_boruvka.hpp) and LLP-Boruvka
// (llp/llp_boruvka.hpp, the paper's Algorithm 6) perform the same rounds:
//
//   1. per-component minimum-weight-edge (MWE) selection — round 0 reads the
//      CSR's precomputed per-vertex minima; later rounds fuse the atomic min
//      into the previous round's contraction pass, so each round only runs a
//      cheap read-only "extract" sweep that recovers the partner component
//      of every winning edge;
//   2. hook — each component chooses its parent across its MWE, breaking the
//      2-cycle of a mutually-chosen edge by component id (Algorithm 6's
//      "break symmetry with w" initialization) and emitting the edge into
//      the MSF;
//   3. pointer jumping until every component is a rooted star — THIS is
//      where the two algorithms differ (see PointerJumping below);
//   4. contraction — relabel surviving edges into a *dense* component id
//      space [0, k), drop self-loops in the same pass, keep only the lightest
//      edge per component pair once the pair table over [0, k) fits in the
//      surviving edge list, and compute the next round's per-component
//      minima while the edge data is in cache.
//
// Cache design: after round 0 the engine leaves the original vertex-id space
// entirely — every per-component array (parent, best, partner) is sized to
// the current number of live components, which at least halves per round, so
// later rounds touch geometrically shrinking flat arrays instead of O(n)
// memory.  All round-local buffers live in the RunContext's BoruvkaScratch,
// reused across rounds and runs: steady-state rounds perform no heap
// allocation.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mst/mst_result.hpp"
#include "parallel/parallel_for.hpp"

namespace llpmst {

class RunContext;

/// How step 3 runs.
enum class PointerJumping {
  /// Bulk-synchronous: repeat { next[v] = parent[parent[v]] } with a barrier
  /// between jump rounds until a fixpoint — the conventional parallel
  /// formulation the baseline uses.
  kSynchronized,
  /// Chaotic/asynchronous: one parallel pass in which every vertex chases
  /// its chain to the root with relaxed atomics and writes the root back
  /// into EVERY node it visited (full path compression) — the paper's LLP
  /// formulation (`forbidden(j) = G[j] != G[G[j]]`,
  /// `advance(j) = G[j] := G[G[j]]`) "evaluated in parallel and without
  /// synchronization".
  kAsynchronous,
};

/// Per-round telemetry handed to BoruvkaConfig::round_observer (tests use
/// this to assert the contraction invariants round by round).
struct BoruvkaRoundStats {
  std::uint64_t round = 0;          // 1-based
  std::size_t components = 0;       // live components entering the round
  std::size_t active_edges = 0;     // edge-list length entering the round
  std::size_t msf_edges_emitted = 0;
  std::size_t self_loops_dropped = 0;    // intra-component edges contracted
  std::size_t bundle_edges_dropped = 0;  // heavier parallel edges filtered
  bool pair_table = false;               // one edge kept per component pair
  std::size_t components_after = 0;      // live components after contraction
  std::size_t edges_after = 0;
  /// Original edge ids dropped this round, populated only when
  /// BoruvkaConfig::collect_dropped_edges is set (testing hook; costs a
  /// gather pass).  Self-loop and bundle drops combined.
  const std::vector<EdgeId>* dropped_edge_ids = nullptr;
};

/// An edge of the contracted multigraph: endpoints are CURRENT dense
/// component ids; prio carries the original (weight, edge id) packing, so
/// the chosen MSF edge is always recoverable regardless of how many
/// contractions happened.
struct BoruvkaActiveEdge {
  VertexId u;
  VertexId v;
  EdgePriority prio;
};

/// All round-local buffers, kept in the RunContext's scratch arena so
/// repeated runs (benchmark repetitions, service request loops) reuse
/// capacity instead of reallocating.  The engine grows each vector on first
/// use and never shrinks capacity.  Not thread-safe: one run at a time per
/// scratch.
struct BoruvkaScratch {
  std::vector<VertexId> parent;        // component parent links (atomic_ref)
  std::vector<EdgePriority> best;      // per-component MWE (atomic_ref)
  std::vector<VertexId> partner;       // partner component across the MWE
  std::vector<VertexId> dense;         // live marks, then scanned dense ids
  std::vector<BoruvkaActiveEdge> edges;       // current round's edge list
  std::vector<BoruvkaActiveEdge> next_edges;  // contraction output
  std::vector<VertexId> jump_buf;      // synchronized jumping double buffer
  std::vector<EdgeId> msf_edges;       // emitted MSF edges (atomic cursor)
  std::vector<std::size_t> chunk_count;   // per-chunk survivor counts
  std::vector<EdgePriority> pair_min;     // bundle minimum per component pair
  std::vector<EdgeId> dropped;            // collect_dropped_edges gather
  GrainFeedback extract_grain;  // MWE extract sweep (reads, rare writes)
  GrainFeedback contract_grain;  // contraction sweeps (edges, pair table)
  GrainFeedback vertex_grain;    // per-component sweeps (hook, jumping)
};

struct BoruvkaConfig {
  PointerJumping jumping = PointerJumping::kAsynchronous;
  /// Prefix for observability metrics/phases ("<obs_label>/round/hook", ...)
  /// so the two engine clients stay distinguishable in reports.  Must be a
  /// string literal (borrowed, not owned).
  const char* obs_label = "boruvka";
  /// Called after every round's contraction with that round's stats.
  std::function<void(const BoruvkaRoundStats&)> round_observer;
  /// Populate BoruvkaRoundStats::dropped_edge_ids (testing; extra pass).
  bool collect_dropped_edges = false;
};

/// Runs Boruvka rounds until no edges remain; returns the unique MSF.
/// Sweeps run on ctx.executor(), and round buffers come from the context's
/// BoruvkaScratch, so repeated runs through one context reuse capacity and
/// grain feedback.  Every sweep polls ctx.cancel_token() once per chunk; a
/// triggered token (or the "boruvka/contract" failpoint, once per round)
/// stops the run with stats.outcome != kOk and the forest emitted so far.
/// Hook only ever emits component MWEs, so that partial forest is a subset
/// of the MSF.
[[nodiscard]] MstResult boruvka_engine(const CsrGraph& g, RunContext& ctx,
                                       const BoruvkaConfig& config);

}  // namespace llpmst
