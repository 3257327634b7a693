// Work-stealing worklist execution — the Galois-style runtime idiom the
// paper's LLP-Prim implementation sits on: workers process items from their
// own deque, *push new items discovered during processing*, and steal from
// victims when empty; the region ends when every produced item has been
// consumed.
//
//   work_stealing_run<VertexId>(pool, {root}, [&](VertexId v, Ctx& ctx) {
//     ...;
//     ctx.push(discovered);   // feeds the same region
//   });
//
// Design notes:
//   * per-worker deques guarded by small mutexes (owner pops back, thieves
//     pop front under try_lock).  A lock-free Chase-Lev deque would shave
//     constants but not change any benchmark's verdict at this scale, and
//     CP.100 ("don't use lock-free unless you must") argues for the simple
//     correct thing;
//   * termination: a relaxed atomic counter of unconsumed items.  It is
//     incremented before an item becomes visible and decremented after its
//     body returns, so counter==0 really means "nothing pending anywhere";
//   * items must be trivially copyable values (vertex ids, edge ids).
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/recorder.hpp"
#include "parallel/executor.hpp"
#include "support/assert.hpp"
#include "support/sim_hooks.hpp"

namespace llpmst {

template <typename T>
class WorkStealingContext;

namespace detail {

template <typename T>
struct StealableDeque {
  std::mutex mutex;
  std::deque<T> items;
};

template <typename T>
struct WorkStealingState {
  explicit WorkStealingState(std::size_t workers) : deques(workers) {}
  std::vector<StealableDeque<T>> deques;
  std::atomic<std::size_t> pending{0};
};

}  // namespace detail

/// Handle passed to the body for pushing follow-on work.
template <typename T>
class WorkStealingContext {
 public:
  WorkStealingContext(detail::WorkStealingState<T>& state, std::size_t worker)
      : state_(state), worker_(worker) {}

  /// Schedules an item into the calling worker's deque.
  void push(const T& item) {
    state_.pending.fetch_add(1, std::memory_order_relaxed);
    auto& dq = state_.deques[worker_];
    std::lock_guard lock(dq.mutex);
    dq.items.push_back(item);
  }

  [[nodiscard]] std::size_t worker() const { return worker_; }

 private:
  detail::WorkStealingState<T>& state_;
  std::size_t worker_;
};

/// Processes `initial` and everything pushed during processing; returns when
/// all work is consumed.  `body(item, ctx)` runs concurrently on the team.
/// Exactly-once consumption of every pushed item; NO ordering guarantees
/// (the LLP property is what makes that acceptable for MST).
template <typename T, typename Body>
void work_stealing_run(Executor& pool, const std::vector<T>& initial,
                       Body&& body) {
  const std::size_t workers = pool.num_threads();
  detail::WorkStealingState<T> state(workers);

  // Seed round-robin so the team starts balanced.
  state.pending.store(initial.size(), std::memory_order_relaxed);
  for (std::size_t i = 0; i < initial.size(); ++i) {
    state.deques[i % workers].items.push_back(initial[i]);
  }
  if (initial.empty()) return;

  pool.run_team([&](std::size_t w) {
    WorkStealingContext<T> ctx(state, w);
    std::size_t next_victim = (w + 1) % workers;
    // Scheduler events are batched per idle episode, not per probe: one
    // kIdle span plus one kStealAttempt (value = failed probes) when work
    // is found again, and one kStealSuccess per actual steal — bounded
    // event volume no matter how hot the steal loop spins.
    const bool sched = obs::sched_collecting();
    std::uint64_t idle_start = 0;  // 0 = not in an idle episode
    std::uint64_t failed_probes = 0;
    const auto flush_idle = [&] {
      if (idle_start == 0 && failed_probes == 0) return;
      const std::uint64_t now = obs::now_us();
      if (idle_start != 0) {
        obs::sched_record(obs::SchedEventKind::kIdle, idle_start,
                          now - idle_start);
      }
      if (failed_probes != 0) {
        obs::sched_record(obs::SchedEventKind::kStealAttempt, now,
                          failed_probes);
      }
      idle_start = 0;
      failed_probes = 0;
    };
    for (;;) {
      // Preemption point: between items is where a real scheduler would
      // reorder the race for work — and where the deterministic simulator
      // decides instead.  Must stay OUTSIDE the deque lock scopes below.
      simhook::preempt();
      bool have = false;
      bool stolen = false;
      T item{};

      // Own deque first (LIFO for locality).
      {
        auto& dq = state.deques[w];
        std::lock_guard lock(dq.mutex);
        if (!dq.items.empty()) {
          item = dq.items.back();
          dq.items.pop_back();
          have = true;
        }
      }
      // Steal (FIFO from the victim's front).
      if (!have) {
        for (std::size_t probe = 0; probe < workers && !have; ++probe) {
          auto& dq = state.deques[next_victim];
          next_victim = (next_victim + 1) % workers;
          if (&dq == &state.deques[w]) continue;
          std::unique_lock lock(dq.mutex, std::try_to_lock);
          if (lock.owns_lock() && !dq.items.empty()) {
            item = dq.items.front();
            dq.items.pop_front();
            have = true;
            stolen = true;
          } else if (sched) {
            ++failed_probes;
          }
        }
      }

      if (have) {
        if (sched) {
          flush_idle();
          if (stolen) {
            obs::sched_record(obs::SchedEventKind::kStealSuccess,
                              obs::now_us(), 1);
          }
        }
        body(item, ctx);
        state.pending.fetch_sub(1, std::memory_order_acq_rel);
        continue;
      }
      if (sched && idle_start == 0) idle_start = obs::now_us();
      // Nothing found anywhere: done only if no item is pending (being
      // processed items may still push).
      if (state.pending.load(std::memory_order_acquire) == 0) {
        if (sched) flush_idle();
        return;
      }
      // Someone is still working; back off briefly and retry.  Under
      // simulation the yield must hand the baton back to the scheduler —
      // a real yield would spin forever, since only one virtual worker
      // runs at a time.
      if (simhook::active()) {
        simhook::preempt();
      } else {
        std::this_thread::yield();
      }
    }
  });

  LLPMST_ASSERT(state.pending.load() == 0);
}

}  // namespace llpmst
