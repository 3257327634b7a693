// Generic Lattice Linear Predicate (LLP) detection engine — the paper's
// Algorithm 1.
//
// The combinatorial problem is modelled as finding the least vector G in a
// lattice that satisfies a lattice-linear predicate B.  The caller supplies,
// per index j:
//   forbidden(j) — true if G cannot satisfy B unless G[j] advances;
//   advance(j)   — move G[j] up (must make progress toward not-forbidden).
//
// The engine repeatedly sweeps all indices, advancing every forbidden one,
// until a full sweep finds none ("no element is forbidden, we have our
// solution").  Sweeps run sequentially or data-parallel over a ThreadPool;
// lattice-linearity guarantees that concurrently advancing distinct
// forbidden indices is safe, which is why no locking appears here — the
// caller's advance() must only touch G[j] (plus reads of other entries).
//
// The MST algorithms specialize this loop with bespoke scheduling (worklists
// instead of full sweeps) for efficiency; llp_components and
// llp_shortest_path use this engine directly, demonstrating the framework's
// claim that one harness solves many problems.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "obs/recorder.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/executor.hpp"
#include "support/cancel.hpp"
#include "support/failpoint.hpp"
#include "support/status.hpp"

namespace llpmst {

struct LlpStats {
  std::uint64_t sweeps = 0;    // full passes over the index space
  std::uint64_t advances = 0;  // total advance() calls
  /// Why the loop stopped: kOk (fixpoint reached), kNonConverged (sweep cap),
  /// kCancelled / kDeadlineExceeded (CancelToken), kInjectedFault (failpoint).
  RunOutcome outcome = RunOutcome::kOk;
  bool converged = false;      // mirror of outcome == kOk, kept for callers
};

struct LlpOptions {
  /// Safety cap on sweeps; 0 means "4 * n + 16" (every problem we instantiate
  /// converges well below that — the cap converts a buggy predicate into a
  /// diagnosable non-convergence instead of a hang).
  std::uint64_t max_sweeps = 0;
  /// Optional cooperative cancellation: polled before every sweep and, while
  /// a sweep runs, between parallel_for chunks — a watchdog deadline stops
  /// even a wedged or non-converging run at chunk granularity.
  const CancelToken* cancel = nullptr;
};

/// Runs Algorithm 1 over indices [0, n).  Returns statistics; `converged`
/// is true when a full sweep found no forbidden index, and `outcome` says
/// why the loop stopped otherwise.  A cancelled or faulted run leaves G in
/// a sound intermediate lattice state (below or at the fixpoint) — partial,
/// not corrupt.
template <typename Forbidden, typename Advance>
LlpStats llp_solve(Executor& pool, std::size_t n, Forbidden&& forbidden,
                   Advance&& advance, const LlpOptions& options = {}) {
  LlpStats stats;
  const std::uint64_t cap =
      options.max_sweeps != 0 ? options.max_sweeps : 4 * n + 16;

  obs::PhaseTimer solve_span("llp_solve");
  // Per-sweep round telemetry (schema-v3 "rounds"): label is left empty so
  // record_round() attributes the sweep to the caller's nested phase path.
  const bool rounds_on = obs::kCompiledIn && obs::enabled();
  std::atomic<std::uint64_t> advanced{0};
  for (;;) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      stats.outcome = options.cancel->reason();
      break;
    }
    if (stats.sweeps >= cap) {
      stats.outcome = RunOutcome::kNonConverged;
      break;
    }
    // Chaos hook: one evaluation per sweep.  Sleep/yield stretches the
    // window between sweeps (exposing schedule assumptions); a failure spec
    // stops the solve with a structured outcome.
    if (LLPMST_FAILPOINT("llp/sweep") != fail::Action::kNone) {
      stats.outcome = RunOutcome::kInjectedFault;
      break;
    }
    ++stats.sweeps;
    advanced.store(0, std::memory_order_relaxed);
    const std::uint64_t sweep_t0 = rounds_on ? obs::now_us() : 0;
    {
      // Per-sweep span ("llp_solve/sweep"): one enabled() check when obs is
      // idle, a real span in traces — this is the per-sweep visibility the
      // Algorithm 1 analysis needs.
      obs::PhaseTimer sweep_span("sweep");
      const auto body = [&](std::size_t j) {
        // Re-testing forbidden(j) right before advancing is the whole
        // synchronization story: lattice-linearity makes a stale "forbidden"
        // verdict impossible (forbidden states stay forbidden until
        // advanced) and advancing only G[j] keeps indices independent.
        std::uint64_t local = 0;
        if (forbidden(j)) {
          advance(j);
          ++local;
        }
        if (local != 0) advanced.fetch_add(local, std::memory_order_relaxed);
      };
      if (options.cancel != nullptr) {
        if (!parallel_for_interruptible(pool, 0, n, *options.cancel, body)) {
          stats.advances += advanced.load(std::memory_order_relaxed);
          stats.outcome = options.cancel->reason();
          break;
        }
      } else {
        parallel_for(pool, 0, n, body);
      }
    }
    const std::uint64_t a = advanced.load(std::memory_order_relaxed);
    stats.advances += a;
    if (rounds_on) {
      obs::RoundRecord r;
      r.round = stats.sweeps;
      r.edges = n;  // full-sweep engine: the whole index space is scanned
      r.advances = a;
      r.wall_ms = static_cast<double>(obs::now_us() - sweep_t0) * 1e-3;
      obs::record_round(r);
    }
    if (a == 0) break;  // outcome stays kOk: we have our solution
  }
  stats.converged = (stats.outcome == RunOutcome::kOk);
  if (obs::kCompiledIn) {
    obs::counter("llp_solve/sweeps").add(stats.sweeps);
    obs::counter("llp_solve/advances").add(stats.advances);
    if (stats.outcome == RunOutcome::kNonConverged) {
      obs::counter("llp_solve/cap_hits").increment();
    } else if (stats.outcome == RunOutcome::kCancelled ||
               stats.outcome == RunOutcome::kDeadlineExceeded) {
      obs::counter("llp_solve/cancellations").increment();
    } else if (stats.outcome == RunOutcome::kInjectedFault) {
      obs::counter("llp_solve/injected_faults").increment();
    }
  }
  return stats;
}

}  // namespace llpmst
