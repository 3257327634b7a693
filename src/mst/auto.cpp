#include "mst/auto.hpp"

#include <exception>
#include <string>

#include "core/run_context.hpp"
#include "mst/kruskal.hpp"
#include "mst/registry.hpp"
#include "obs/metrics.hpp"
#include "support/failpoint.hpp"

namespace llpmst {

namespace {

/// Runs the chosen algorithm, converting every failure mode —
/// structured outcome, injected FailpointError, bad_alloc, any other
/// exception — into a (ok, reason) verdict the portfolio can act on.
template <typename Run>
bool run_guarded(Run&& run, MstResult& result, std::string& reason) {
  try {
    result = run();
  } catch (const fail::FailpointError& e) {
    reason = std::string("exception: ") + e.what();
    return false;
  } catch (const std::bad_alloc&) {
    reason = "exception: out of memory";
    return false;
  } catch (const std::exception& e) {
    reason = std::string("exception: ") + e.what();
    return false;
  }
  if (result.stats.outcome != RunOutcome::kOk) {
    reason = run_outcome_name(result.stats.outcome);
    return false;
  }
  if (!result.stats.llp_converged) {
    reason = "non_converged";
    return false;
  }
  return true;
}

/// Average degree (m/n) from which a graph counts as dense: road networks
/// sit near 2, the er-19 and rmat-19 rows of the regime matrix at 8 and 15.
constexpr std::size_t kDenseDegree = 4;

/// The policy table: kPolicy[band][dense][connected] names the entry the
/// regime matrix (bench/baselines/regime-matrix.json) measured fastest, or
/// within 10% of it, for that cell.  Bands are 1, 2-3, 4-7 and >= 8
/// threads; the last is the paper's Fig. 3 crossover, not measured here.
constexpr const char* kPolicy[4][2][2] = {
    // sparse: {disconnected, connected}, dense: {disconnected, connected}
    {{"kruskal", "kruskal"}, {"kruskal", "kruskal"}},  // 1
    {{"kruskal", "kruskal"}, {"kruskal", "kruskal"}},  // 2-3
    {{"kruskal", "kruskal"}, {"kruskal", "kruskal"}},  // 4-7
    {{"llp-boruvka", "llp-boruvka"},
     {"llp-boruvka", "llp-boruvka"}},  // >= 8
};

const MstAlgorithm& select_algorithm(const CsrGraph& g, RunContext& ctx) {
  const std::size_t threads = ctx.threads();
  const std::size_t band =
      threads >= 8 ? 3 : threads >= 4 ? 2 : threads >= 2 ? 1 : 0;
  const bool dense = g.num_edges() >= kDenseDegree * g.num_vertices();
  // Cached per (context, graph): downstream verification through the
  // same context reuses the answer instead of recomputing components.
  const bool connected = ctx.connected(g);
  return mst_algorithm(kPolicy[band][dense][connected]);
}

}  // namespace

AutoMstResult minimum_spanning_forest(const CsrGraph& g, RunContext& ctx,
                                      const AutoMstOptions& options) {
  AutoMstResult out;
  if (g.num_vertices() == 0) {
    out.algorithm = "trivial";
    return out;
  }

  const MstAlgorithm& algo = select_algorithm(g, ctx);
  out.algorithm = algo.name;
  std::string reason;
  bool ok =
      run_guarded([&] { return algo.run(g, ctx); }, out.result, reason);

  if (!ok) {
    // A cancel requested by the CALLER is an instruction to stop, not a
    // failure to route around — honour it and return the partial result.
    if (options.fallback_to_sequential && !ctx.user_cancelled()) {
      if (obs::kCompiledIn) {
        obs::counter("auto/fallbacks").increment();
        obs::add_warning("auto: " + out.algorithm + " failed (" + reason +
                         "); falling back to sequential kruskal");
      }
      out.fell_back = true;
      out.fallback_reason = reason;
      out.algorithm = "kruskal";
      // The fallback must complete even when the run's DEADLINE already
      // expired (that expiry is why we are here), so it polls only the
      // caller's own token: a user cancel arriving mid-fallback still
      // stops the scan.  It runs with no executor, so a fallback from a
      // pool fault never touches the pool.
      out.result = kruskal_cancellable(g, ctx.external_cancel());
    } else {
      // No fallback: surface the partial result; the caller inspects
      // result.stats.outcome / fallback_reason.
      out.fallback_reason = reason;
    }
  }
  return out;
}

}  // namespace llpmst
