// Portfolio entry point: run the registry entry (mst/registry.hpp) that the
// regime matrix measured fastest for the input's shape and thread budget.
//
// The policy is a fixed table in auto.cpp keyed by thread count, average
// degree (m/n) and connectivity (the RunContext's cached census).  It was
// read off bench/baselines/regime-matrix.json (bench_regime_matrix on packed
// road-20, er-19 and rmat-19 at 1/2/4 threads), and
// tools/check_auto_policy.py fails CI when a cell names an entry more than
// 10% slower than that cell's best.  On the 4-vCPU host it was measured on:
//   * a sparse graph (m < 4n), or a dense connected one below 4 threads
//                          -> sequential Kruskal;
//   * a dense disconnected graph -> llp-prim-parallel at 1 thread, and
//     LLP-Boruvka from 2 threads;
//   * a dense connected graph from 4 threads -> LLP-Boruvka;
//   * >= 8 threads         -> LLP-Boruvka, the paper's Fig. 3 crossover,
//     which 4 vCPUs cannot measure.
// Every entry the table names is forest-capable and returns the unique
// priority-ordered MSF, so the pick changes the time, never the forest.
// Deadline and external cancellation come from the RunContext
// (set_deadline_ms / set_cancel).
#pragma once

#include <string>

#include "mst/registry.hpp"

namespace llpmst {

class RunContext;

struct AutoMstOptions {
  /// When the chosen algorithm fails (deadline, injected fault,
  /// thrown exception, non-convergence), rerun with sequential Kruskal
  /// instead of returning the partial result.  Kruskal radix-sorts the
  /// packed priorities and uses no executor, so it does not depend on the
  /// team that just failed, and on the benchmark graphs it costs less than
  /// the primary solve it replaces (docs/performance.md).
  bool fallback_to_sequential = true;
};

struct AutoMstResult {
  MstResult result;
  /// Canonical registry name of the algorithm that produced `result`
  /// ("kruskal", "llp-boruvka", ..., "kruskal" after a fallback, or
  /// "trivial" for the empty graph).
  std::string algorithm;
  /// True when the chosen algorithm failed and sequential Kruskal
  /// produced the result instead; `fallback_reason` says why (e.g.
  /// "deadline_exceeded", "injected_fault", "exception: ...").
  bool fell_back = false;
  std::string fallback_reason;
};

/// Computes the MSF with the recommended algorithm.  Deadline and external
/// cancellation are read from `ctx`; a user cancel is honoured as a cancel
/// (partial result, no fallback).
[[nodiscard]] AutoMstResult minimum_spanning_forest(
    const CsrGraph& g, RunContext& ctx, const AutoMstOptions& options = {});

}  // namespace llpmst
