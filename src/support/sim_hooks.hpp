// Thread-local scheduler hooks for deterministic simulation.
//
// The deterministic simulator (src/sim/) needs the runtime to hand control
// back at *preemption points*: the spots where a real OS scheduler could
// interleave workers differently between runs — dynamic chunk grabs,
// static block starts, failpoint sleep/yield actions.  Rather than
// teach every primitive about the simulator, the simulator installs a small
// hook table into each worker thread's TLS; the primitives call the free
// functions below, which are no-ops (one relaxed TLS read) when no hooks are
// installed.
//
// Contract for hook placement (enforced by audit, asserted by design):
// a preemption point must NEVER sit inside a lock scope.  The simulator
// serializes workers — if worker A parked inside a critical section, the
// worker granted the next step could block on that mutex and deadlock the
// simulation.  All current sites (chunk-grab loops, static block starts,
// failpoint sites) run lock-free.
#pragma once

#include <cstdint>

namespace llpmst::simhook {

/// The hook table a simulated worker carries.  Function pointers rather than
/// virtuals: the table lives in the simulator, workers only borrow it.
struct WorkerHooks {
  void* ctx = nullptr;
  /// Yield to the scheduler; returns when this worker is granted again.
  void (*preempt)(void*) = nullptr;
  /// Sleep `ns` of *virtual* time (advances the clock, yields).
  void (*sleep_ns)(void*, std::uint64_t) = nullptr;
  /// A failpoint site named `name` was hit (armed or not) — drives
  /// scripted "on hit k" timeline triggers.
  void (*on_failpoint)(void*, const char* name) = nullptr;
};

namespace detail {
// Function-local TLS instead of a namespace-scope `extern thread_local`:
// the latter goes through a weak cross-TU wrapper that UBSan can resolve to
// null under -fsanitize=null, turning the first install() into a diagnosed
// null store.  A local static inside an inline function gets a per-TU
// guard-free wrapper (trivially-initialized pointer) and is sanitizer-clean.
inline const WorkerHooks*& tls_slot() noexcept {
  thread_local const WorkerHooks* p = nullptr;
  return p;
}
}  // namespace detail

/// True when the calling thread is a simulated worker.
[[nodiscard]] inline bool active() { return detail::tls_slot() != nullptr; }

/// Installs hooks for the calling thread; returns the previous table so
/// scopes can nest (the simulator restores on exit).
inline const WorkerHooks* install(const WorkerHooks* hooks) {
  const WorkerHooks*& slot = detail::tls_slot();
  const WorkerHooks* prev = slot;
  slot = hooks;
  return prev;
}

/// Preemption point: under simulation, parks this worker and lets the
/// scheduler pick the next runnable one.  Free (one TLS read) otherwise.
inline void preempt() {
  const WorkerHooks* h = detail::tls_slot();
  if (h != nullptr && h->preempt != nullptr) h->preempt(h->ctx);
}

/// Virtual sleep: returns true when handled by the simulator (caller must
/// NOT also sleep in real time), false when the caller should sleep for
/// real.
inline bool virtual_sleep_ns(std::uint64_t ns) {
  const WorkerHooks* h = detail::tls_slot();
  if (h == nullptr || h->sleep_ns == nullptr) return false;
  h->sleep_ns(h->ctx, ns);
  return true;
}

/// Reports a failpoint hit to the simulator's timeline (no-op otherwise).
inline void notify_failpoint(const char* name) {
  const WorkerHooks* h = detail::tls_slot();
  if (h != nullptr && h->on_failpoint != nullptr) h->on_failpoint(h->ctx, name);
}

/// RAII install/restore for a simulated worker's scope.
class ScopedHooks {
 public:
  explicit ScopedHooks(const WorkerHooks* hooks) : prev_(install(hooks)) {}
  ~ScopedHooks() { install(prev_); }
  ScopedHooks(const ScopedHooks&) = delete;
  ScopedHooks& operator=(const ScopedHooks&) = delete;

 private:
  const WorkerHooks* prev_;
};

}  // namespace llpmst::simhook
