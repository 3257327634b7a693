// The per-run execution context every MST/MSF entry point receives.
//
// Before this existed, each algorithm grew its own plumbing signature —
// `(g, pool)`, `(g, pool, root, cancel)`, thread_local scratch inside the
// Boruvka engine — and every consumer (mst::auto, mst_tool, the benches,
// the cross-check tests) re-encoded that plumbing per algorithm.  A
// RunContext bundles all of it behind one object:
//
//   * the ThreadPool (borrowed; a lazily created 1-thread pool when the
//     caller never attaches one, so sequential callers write no pool code);
//   * cancellation + deadline: an optional external CancelToken plus an
//     owned deadline token, composed exactly the way mst::auto always did
//     (deadline token preferred; a caller cancel is checked between
//     attempts via user_cancelled());
//   * a ScratchArena of reusable per-run buffers — the explicit, testable
//     replacement for the `thread_local BoruvkaScratch` pattern: repeated
//     runs through one context reuse capacity, two contexts never share;
//   * a connectivity cache so mst::auto's selection check and downstream
//     verification stop recomputing connected components of the same graph
//     within one run;
//   * a failpoint scope (armed specs are disarmed when the context dies),
//     an obs scope bundling the top-level phase span + hw-counter fold, and
//     optionally the run's own obs::RunScope (open_run_scope()).
//
// A RunContext is NOT thread-safe and not reentrant: one algorithm run at a
// time per context, matching the scratch-reuse contract.  It is cheap to
// construct; reuse across runs is an optimization (warm scratch, cached
// connectivity), not a requirement.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <typeindex>
#include <utility>
#include <vector>

#include "obs/hw_counters.hpp"
#include "obs/phase_timer.hpp"
#include "obs/profiler.hpp"
#include "parallel/thread_pool.hpp"
#include "support/cancel.hpp"

namespace llpmst {

class CsrGraph;

/// Type-indexed bag of reusable per-run buffers.  `get<BoruvkaScratch>()`
/// returns the same object every call on the same arena, default-constructed
/// on first use — so algorithm scratch state (grown vectors, grain feedback)
/// survives across runs through one RunContext without any thread_local.
class ScratchArena {
 public:
  template <typename T>
  [[nodiscard]] T& get() {
    const std::type_index key(typeid(T));
    for (const Slot& s : slots_) {
      if (s.key == key) return *static_cast<T*>(s.ptr.get());
    }
    slots_.push_back(Slot{key, std::shared_ptr<void>(new T())});
    return *static_cast<T*>(slots_.back().ptr.get());
  }

  /// Number of distinct scratch types materialized so far (tests).
  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// Drops every buffer (capacity included).  Runs remain correct after a
  /// clear — scratch is a reuse optimization, not state.
  void clear() { slots_.clear(); }

 private:
  struct Slot {
    std::type_index key;
    std::shared_ptr<void> ptr;  // typed deleter captured at construction
  };
  std::vector<Slot> slots_;
};

/// RAII observability bundle for one algorithm run: a top-level phase span
/// plus the hw-counter fold for the same label, and — when a profiling
/// session is live — a per-thread sampler arm, so runs driven from threads
/// the pool never saw (the daemon-to-be's request threads) still produce
/// attributed samples.  Obtain through RunContext::obs_scope(); free when
/// observability is off or compiled out.
class ObsScope {
 public:
  explicit ObsScope(const char* label) : phase_(label), hw_(label) {
    obs::prof_ensure_thread_timer();
  }
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

 private:
  obs::PhaseTimer phase_;
  obs::ScopedHwCounters hw_;
};

class RunContext {
 public:
  /// A context with no pool: pool() lazily creates an owned 1-thread pool,
  /// so sequential use needs no pool plumbing at all.
  RunContext() = default;
  /// A context borrowing `pool` (must outlive the context or be replaced
  /// with attach_pool before the next run).
  explicit RunContext(ThreadPool& pool) : pool_(&pool) {}
  ~RunContext();

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  // -- Threads ------------------------------------------------------------
  /// The pool algorithms run on.  Never null: creates an owned single-thread
  /// pool on first use when none was attached.
  [[nodiscard]] ThreadPool& pool();
  /// Rebinds the context to a different pool (benches sweep thread counts
  /// with one context so scratch stays warm across the sweep).
  void attach_pool(ThreadPool& pool) { pool_ = &pool; }
  [[nodiscard]] bool has_pool() const { return pool_ != nullptr; }

  /// The executor algorithms run their team regions on.  Defaults to the
  /// pool; attach_executor() overrides it — this is the seam the
  /// deterministic simulator (src/sim/SimExecutor) plugs into without the
  /// algorithms knowing.  The executor takes precedence over any attached
  /// pool until detached (attach_executor(nullptr)).
  [[nodiscard]] Executor& executor() {
    return executor_ != nullptr ? *executor_ : static_cast<Executor&>(pool());
  }
  void attach_executor(Executor* exec) { executor_ = exec; }
  [[nodiscard]] bool has_executor() const { return executor_ != nullptr; }

  /// Thread budget without forcing pool creation.
  [[nodiscard]] std::size_t threads() const {
    if (executor_ != nullptr) return executor_->num_threads();
    return pool_ != nullptr ? pool_->num_threads() : 1;
  }

  // -- Cancellation & deadline --------------------------------------------
  /// Observes caller-owned cancellation.  Pass nullptr to detach.
  void set_cancel(const CancelToken* cancel) {
    external_cancel_ = cancel;
    if (deadline_armed_) deadline_token_.observe(cancel);
  }
  /// Arms a wall-clock budget for subsequent runs (<= 0 disarms nothing but
  /// is ignored, matching AutoMstOptions' old `deadline_ms = 0` meaning).
  void set_deadline_ms(double ms);
  /// The token algorithms should poll: the deadline token when a deadline is
  /// armed, else the external token, else nullptr.  When both are set the
  /// deadline token observes the external one, so a mid-run caller cancel
  /// stops a budgeted run too (reason preserved) — this is what lets a
  /// served query honour both its budget and a client disconnect; mst::auto
  /// additionally distinguishes the two via user_cancelled() between
  /// attempts.
  [[nodiscard]] const CancelToken* cancel_token() const;
  [[nodiscard]] const CancelToken* external_cancel() const {
    return external_cancel_;
  }
  /// True when the CALLER requested cancellation (not a deadline expiry) —
  /// an instruction to stop, not a failure to route around.
  [[nodiscard]] bool user_cancelled() const;

  // -- Scratch ------------------------------------------------------------
  [[nodiscard]] ScratchArena& scratch() { return scratch_; }

  // -- Connectivity cache -------------------------------------------------
  /// Connected components of `g`, computed once per (context, graph) with a
  /// union-find sweep over the CSR edge list and cached by graph identity.
  /// Isolated vertices count as components; an empty graph has 0.
  ///
  /// Identity is the graph's STORAGE address, not the CsrGraph handle:
  /// handles are cheap copies since the storage refactor, so two copies of
  /// one snapshot (e.g. the catalog's and a query's) share the cache entry.
  [[nodiscard]] std::size_t num_components(const CsrGraph& g);
  [[nodiscard]] bool connected(const CsrGraph& g) {
    return num_components(g) == 1;
  }
  /// True when num_components(g) is already cached for this graph (tests,
  /// and consumers that only want to cross-check, never compute).
  [[nodiscard]] bool components_cached(const CsrGraph& g) const;
  /// Seeds the cache from a caller that computed (or was told) the count —
  /// e.g. the verifier's union-find already knows it as a byproduct.
  void seed_components(const CsrGraph& g, std::size_t count);

  // -- Failpoints ---------------------------------------------------------
  /// Arms a "name=spec;..." failpoint list through fail::configure().
  /// Returns the number of points armed (0 + *error set on a malformed
  /// spec).  Whatever this context armed is disarmed in the destructor.
  std::size_t arm_failpoints(std::string_view spec, std::string* error);

  // -- Observability ------------------------------------------------------
  /// Top-level phase span + hw-counter fold for one run.  Usage:
  ///   auto scope = ctx.obs_scope("mst_tool/solve");
  [[nodiscard]] ObsScope obs_scope(const char* label) const {
    return ObsScope(label);
  }
  /// Gives this run its own obs::RunScope on the calling thread until the
  /// context dies: everything recorded for the run — by this thread and by
  /// the team regions it dispatches — is kept apart from other runs, and a
  /// report built on this thread meanwhile holds this run alone.  Destroy
  /// the context on the thread that opened the scope.
  void open_run_scope() { run_scope_.emplace(); }

 private:
  ThreadPool* pool_ = nullptr;
  Executor* executor_ = nullptr;  // borrowed; overrides pool_ when set
  std::unique_ptr<ThreadPool> owned_pool_;
  CancelToken deadline_token_;
  bool deadline_armed_ = false;
  const CancelToken* external_cancel_ = nullptr;
  ScratchArena scratch_;
  const void* components_key_ = nullptr;  // GraphStorage address
  std::size_t components_ = 0;
  bool components_valid_ = false;  // distinguishes "empty graph cached"
  bool armed_failpoints_ = false;
  std::optional<obs::RunScope> run_scope_;
};

}  // namespace llpmst
