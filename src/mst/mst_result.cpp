#include "mst/mst_result.hpp"

#include <bit>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace llpmst {

void finalize_result(const CsrGraph& g, MstResult& r) {
  // One pass marks each id in an m-bit bitmap; a second walks the set bits,
  // which emits the ids in ascending order without a sort.  An id that is
  // out of range or already marked is kept aside and appended after the
  // ascending run, so verify_spanning_forest still sees (and rejects) it.
  const std::size_t m = g.num_edges();
  std::vector<std::uint64_t> seen((m + 63) / 64, 0);
  std::vector<EdgeId> malformed;
  for (const EdgeId e : r.edges) {
    const std::uint64_t bit = std::uint64_t{1} << (e & 63);
    if (e >= m || (seen[e >> 6] & bit) != 0) {
      malformed.push_back(e);
    } else {
      seen[e >> 6] |= bit;
    }
  }

  r.total_weight = 0;
  r.weight_overflow = false;
  const auto add_weight = [&](EdgeId e) {
    if (!checked_weight_add(r.total_weight, g.edge(e).w)) {
      r.weight_overflow = true;
    }
  };
  std::size_t out = 0;
  for (std::size_t word = 0; word < seen.size(); ++word) {
    for (std::uint64_t bits = seen[word]; bits != 0; bits &= bits - 1) {
      const auto e = static_cast<EdgeId>(word * 64 + std::countr_zero(bits));
      r.edges[out++] = e;
      add_weight(e);
    }
  }
  for (const EdgeId e : malformed) {
    r.edges[out++] = e;
    if (e < m) add_weight(e);
  }
  if (r.weight_overflow && obs::kCompiledIn) {
    obs::add_warning("mst total_weight overflowed the 64-bit accumulator");
  }
  r.num_trees = g.num_vertices() - r.edges.size();
}

void record_algo_metrics(const char* algo, const MstAlgoStats& s) {
  if (!obs::kCompiledIn) return;
  const std::string p = std::string(algo) + "/";
  const auto add = [&](const char* name, std::uint64_t v) {
    if (v != 0) obs::counter(p + name).add(v);
  };
  add("heap_inserts", s.heap.pushes);
  add("heap_pops", s.heap.pops);
  add("heap_adjusts", s.heap.adjusts);
  add("heap_erases", s.heap.erases);
  add("heap_sift_steps", s.heap.sift_steps);
  add("fixed_via_heap", s.fixed_via_heap);
  add("mwe_early_fix", s.fixed_via_mwe);
  add("staged_in_q", s.staged_in_q);
  add("edges_relaxed", s.edges_relaxed);
  add("rounds", s.rounds);
  add("pointer_jumps", s.pointer_jumps);
  add("sweeps", s.llp_sweeps);
  add("sweeps_inline", s.llp_inline_sweeps);
  add("sweeps_dispatched", s.llp_dispatched_sweeps);
  add("advances", s.llp_advances);
  switch (s.outcome) {
    case RunOutcome::kOk:
      break;
    case RunOutcome::kNonConverged:
      obs::counter(p + "non_convergence").increment();
      obs::add_warning(p + "llp sweep cap hit without convergence");
      break;
    case RunOutcome::kCancelled:
    case RunOutcome::kDeadlineExceeded:
      obs::counter(p + "cancellations").increment();
      obs::add_warning(p + "run stopped: " +
                       run_outcome_name(s.outcome));
      break;
    case RunOutcome::kInjectedFault:
      obs::counter(p + "injected_faults").increment();
      obs::add_warning(p + "run stopped by an injected fault");
      break;
  }
  // Legacy flag path: cap hits recorded before outcome existed.
  if (!s.llp_converged && s.outcome == RunOutcome::kOk) {
    obs::counter(p + "non_convergence").increment();
    obs::add_warning(p + "llp sweep cap hit without convergence");
  }
}

}  // namespace llpmst
