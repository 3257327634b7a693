#include "llp/llp_prim_parallel.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <limits>
#include <utility>
#include <vector>

#include "core/run_context.hpp"
#include "ds/binary_heap.hpp"
#include "obs/hw_counters.hpp"
#include "obs/phase_timer.hpp"
#include "obs/recorder.hpp"
#include "parallel/atomic_utils.hpp"
#include "parallel/concurrent_bag.hpp"
#include "parallel/parallel_for.hpp"
#include "support/assert.hpp"
#include "support/failpoint.hpp"

namespace llpmst {

MstResult llp_prim_parallel(const CsrGraph& g, RunContext& ctx,
                            VertexId root) {
  Executor& pool = ctx.executor();
  const CancelToken* cancel = ctx.cancel_token();
  const std::size_t n = g.num_vertices();
  if (n == 0) return {};  // empty graph: the empty forest
  LLPMST_CHECK(root < n);

  obs::PhaseTimer algo_span("llp_prim_parallel");
  obs::ScopedHwCounters hw_scope("llp_prim_parallel");
  MstResult r;
  // dist[k] packs the tentative priority; its low 32 bits are the edge id,
  // so the parent edge rides along with every fetch-min for free.
  std::vector<std::atomic<EdgePriority>> dist(n);
  std::vector<std::atomic<std::uint8_t>> fixed(n);
  // chosen_edge[k] is written once, by the thread whose claim CAS on
  // fixed[k] succeeded; it is read after the team join.
  std::vector<EdgeId> chosen_edge(n, kInvalidEdge);
  parallel_for(pool, 0, n, [&](std::size_t v) {
    dist[v].store(kInfinitePriority, std::memory_order_relaxed);
    fixed[v].store(0, std::memory_order_relaxed);
  });

  const std::size_t workers = pool.num_threads();
  ConcurrentBag<VertexId> bag_r(workers);  // newly fixed, to explore next
  ConcurrentBag<VertexId> bag_q(workers);  // staged heap candidates
  std::vector<VertexId> frontier;
  std::vector<VertexId> staged;  // bag_q drained for one heap flush
  BinaryHeap<EdgePriority> heap(n);

  // Whether a frontier is worth a team dispatch, learned from this run's
  // own measured super-steps.  Most road frontiers hold one or two
  // vertices: those are drained on this thread, unmeasured.
  GrainFeedback step_grain;
  // The per-run summary: super-steps by log2 frontier size, recorded as one
  // round per non-empty class when the run ends.
  struct StepClass {
    std::uint64_t steps = 0;
    std::uint64_t fixed = 0;       // vertices the class's steps fixed
    std::uint64_t dispatched = 0;  // steps the team ran
    std::uint64_t dispatched_ns = 0;
  };
  std::array<StepClass, std::numeric_limits<VertexId>::digits> classes{};

  std::atomic<std::uint64_t> edges_relaxed{0};
  std::size_t num_fixed = 1;
  std::size_t next_root = 0;  // forest-restart scan cursor

  fixed[root].store(1, std::memory_order_relaxed);
  ++r.stats.fixed_via_heap;
  frontier.push_back(root);

  // One super-step's work on frontier[idx]: explore its arcs, early-fixing
  // across MWEs (claim CAS) and lowering tentative distances (fetch-min).
  const auto relax = [&](std::size_t idx, std::size_t w) {
    const VertexId j = frontier[idx];
    const auto nbrs = g.neighbors(j);
    const auto prios = g.arc_priorities(j);
    const auto mwe_flags = g.arc_mwe_flags(j);
    std::uint64_t relaxed = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId k = nbrs[i];
      if (fixed[k].load(std::memory_order_relaxed)) continue;
      ++relaxed;
      const EdgePriority p = prios[i];

      if (mwe_flags[i]) {
        // Early fix: (j, k) is an MST edge and j is fixed.  The CAS claim
        // arbitrates racing fixers; the winner records the tree edge and
        // schedules k.
        if (atomic_claim(fixed[k])) {
          chosen_edge[k] = priority_edge(p);
          bag_r.push(w, k);
        }
        continue;
      }

      // fetch-min on the packed word updates distance AND parent
      // atomically; stage k for the deferred heap flush.  Staging may push
      // k from several workers — the flush deduplicates via
      // insert_or_adjust, which is idempotent.
      if (atomic_fetch_min(dist[k], p)) {
        bag_q.push(w, k);
      }
    }
    if (relaxed != 0) {
      edges_relaxed.fetch_add(relaxed, std::memory_order_relaxed);
    }
  };

  for (;;) {
    // Section V-A early termination: all vertices fixed -> done.
    if (num_fixed == n) break;

    // Cancellation checkpoint, once per super-step: a partial forest is
    // still a forest (every recorded edge was individually claimed), so
    // stopping between super-steps is always safe — just incomplete.
    if (cancel != nullptr && cancel->cancelled()) {
      r.stats.outcome = cancel->reason();
      break;
    }

    // --- Drain R.  Every frontier vertex is already fixed.  Each batch is
    // one worklist sweep in the Algorithm 1 sense (stats.llp_sweeps): the
    // team runs it when step_grain predicts the dispatch pays, this thread
    // otherwise.
    while (!frontier.empty() && num_fixed < n) {
      if (cancel != nullptr && cancel->cancelled()) break;  // rechecked above
      const std::size_t size = frontier.size();
      StepClass& cls = classes[std::bit_width(size) - 1];
      ++cls.steps;
      ++r.stats.llp_sweeps;
      AdaptiveRun run;
      if (step_grain.prefers_serial(size)) {
        for (std::size_t idx = 0; idx < size; ++idx) relax(idx, 0);
      } else {
        run = parallel_for_adaptive(pool, 0, size, step_grain, relax);
      }
      if (run.dispatched) {
        ++cls.dispatched;
        cls.dispatched_ns += run.elapsed_ns;
        ++r.stats.llp_dispatched_sweeps;
      } else {
        ++r.stats.llp_inline_sweeps;
      }

      frontier.clear();
      bag_r.drain_into(frontier);
      num_fixed += frontier.size();
      cls.fixed += frontier.size();
      // The heap must hold only unfixed vertices: erase the entries of the
      // vertices this super-step fixed (sequential, like every heap op).
      for (const VertexId k : frontier) {
        r.edges.push_back(chosen_edge[k]);
        if (heap.contains(k)) heap.erase(k);
      }
    }

    if (num_fixed == n) break;

    // --- R drained: flush staged vertices into the heap (sequential — the
    // paper's acknowledged bottleneck), then pop the next nearest vertex.
    // Chaos hook at the bag→heap handoff: the single-threaded window where
    // a sleep/yield maximally skews the parallel/sequential interleaving,
    // and where an injected failure models the handoff going wrong.
    if (LLPMST_FAILPOINT("llp_prim/handoff") != fail::Action::kNone) {
      r.stats.outcome = RunOutcome::kInjectedFault;
      break;
    }
    staged.clear();
    bag_q.drain_into(staged);
    for (const VertexId k : staged) {
      if (fixed[k].load(std::memory_order_relaxed)) continue;
      heap.insert_or_adjust(k, dist[k].load(std::memory_order_relaxed));
      ++r.stats.staged_in_q;
    }

    // Every heap entry is unfixed, so a pop fixes a vertex whose key
    // carries its parent edge.  An empty heap means this component is
    // spanned: the next tree starts at the next unfixed vertex, its root.
    VertexId next = 0;
    if (!heap.empty()) {
      const auto [j, key] = heap.pop();
      LLPMST_ASSERT(!fixed[j].load(std::memory_order_relaxed));
      r.edges.push_back(priority_edge(key));
      next = j;
    } else {
      while (fixed[next_root].load(std::memory_order_relaxed)) ++next_root;
      next = static_cast<VertexId>(next_root);
    }
    fixed[next].store(1, std::memory_order_relaxed);
    ++num_fixed;
    ++r.stats.fixed_via_heap;
    frontier.push_back(next);
  }

  for (std::size_t k = 0; k < classes.size(); ++k) {
    const StepClass& cls = classes[k];
    if (cls.steps == 0) continue;
    // Every vertex R fixed was claimed across an MWE.
    r.stats.fixed_via_mwe += cls.fixed;
    obs::RoundRecord round;
    round.label = "llp_prim_parallel";
    round.round = k;
    round.edges = cls.steps;
    round.advances = cls.fixed;
    round.components = cls.dispatched;
    round.wall_ms = static_cast<double>(cls.dispatched_ns) * 1e-6;
    obs::record_round(round);
  }

  // On a clean run all vertices are fixed; an aborted run (cancellation /
  // injected fault) legitimately leaves some unfixed.
  LLPMST_ASSERT(r.stats.outcome != RunOutcome::kOk || num_fixed == n);
  r.stats.edges_relaxed = edges_relaxed.load(std::memory_order_relaxed);
  r.stats.heap = heap.stats();
  record_algo_metrics("llp_prim_parallel", r.stats);
  finalize_result(g, r);
  return r;
}

MstAlgorithm llp_prim_parallel_algorithm() {
  return {"llp-prim-parallel", "LLP-Prim",
          "early-fixing Prim, R drained by the team when a super-step pays "
          "for it",
          {.parallel = true},
          [](const CsrGraph& g, RunContext& ctx) {
            return llp_prim_parallel(g, ctx);
          }};
}

}  // namespace llpmst
