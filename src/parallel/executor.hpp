// The executor seam: the minimal team-execution surface the data-parallel
// primitives need.
//
// Everything above this layer (parallel_for, reduce, scan, sort, the LLP
// solvers, the Boruvka engine) is written against Executor&, not a concrete
// pool.  Two implementations exist:
//
//   * ThreadPool — N real OS threads, the production substrate;
//   * SimExecutor (src/sim/) — N *virtual* workers serialized under a
//     deterministic scheduler, for replayable schedule exploration.
//
// The surface is deliberately tiny — run_team(f) + num_threads() — because
// the whole library is bulk-synchronous: one region at a time, every worker
// runs f(worker_id), the submitter joins.  Keeping the seam this narrow is
// what makes a deterministic implementation feasible at all.
#pragma once

#include <cstddef>
#include <type_traits>

#include "obs/recorder.hpp"

namespace llpmst {

class Executor {
 public:
  Executor() = default;
  virtual ~Executor() = default;

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Number of workers, including the submitting thread (id 0).
  [[nodiscard]] virtual std::size_t num_threads() const = 0;

  /// Runs f(worker_id) on every worker (ids 0..num_threads-1) and returns
  /// when all have finished.  Exceptions escaping f on any worker are
  /// rethrown here on the submitting thread after the join (first thrower
  /// wins).  NOT reentrant — no nested regions.
  ///
  /// Dispatch is by borrowed reference (a {object pointer, invoke thunk}
  /// pair), NOT by std::function: team regions are the hottest dispatch
  /// path in the library and a capturing lambda must not cost a heap
  /// allocation per region.  `f` only needs to outlive the call, which the
  /// join guarantees.
  ///
  /// While anything observes (obs gates on), every worker's share runs in
  /// the submitter's run scope under its innermost phase, so records and
  /// profiler samples taken on workers belong to the run and phase that
  /// dispatched them; with obs off this costs one relaxed load.
  template <typename F>
  void run_team(F&& f) {
    using Fn = std::remove_reference_t<F>;
    const TeamFn fn{const_cast<void*>(static_cast<const void*>(&f)),
                    [](void* obj, std::size_t worker_id) {
                      (*static_cast<Fn*>(obj))(worker_id);
                    }};
#if LLPMST_OBS
    if (obs::detail::gates() != 0) {
      run_observed(fn);
      return;
    }
#endif
    run_region_impl(fn);
  }

 protected:
  /// Borrowed callable: no ownership, no allocation, trivially copyable.
  struct TeamFn {
    void* obj = nullptr;
    void (*invoke)(void*, std::size_t) = nullptr;
  };

  virtual void run_region_impl(const TeamFn& fn) = 0;

 private:
#if LLPMST_OBS
  void run_observed(const TeamFn& fn) {
    struct Observed {
      TeamFn inner;
      obs::detail::RegionContext ctx;
    };
    Observed region{fn, obs::detail::region_context()};
    run_region_impl(TeamFn{&region, [](void* obj, std::size_t worker_id) {
                             const auto& r = *static_cast<Observed*>(obj);
                             const obs::detail::RegionWorker share(r.ctx);
                             r.inner.invoke(r.inner.obj, worker_id);
                           }});
  }
#endif
};

}  // namespace llpmst
