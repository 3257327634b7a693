// SimExecutor: the deterministic schedule simulator.
//
// Runs the library's team-region surface with N *virtual* workers whose
// interleaving is decided by a seeded PRNG instead of the OS scheduler.
// Workers are real threads, but a baton protocol serializes them: exactly
// one executes user code at any instant, and at every preemption point
// (chunk grabs, block starts, failpoint yields — see support/sim_hooks.hpp)
// the running worker parks and the scheduler picks the next runnable one.
// Real threads + a mutex/condvar baton were chosen over fibers because the
// CI matrix runs this under ASan and TSan, which understand threads
// natively and break on raw context switching.
//
// Determinism comes from three pieces working together:
//   * all scheduling decisions flow through one seeded Xoshiro256;
//   * a virtual clock (installed process-wide for the executor's lifetime)
//     advances a fixed quantum per decision, so CancelToken deadlines and
//     GrainFeedback measurements see simulated, replayable time;
//   * scripted fault timelines trigger on decision ordinals or failpoint
//     hit counts — never on wall time.
//
// Every decision is recorded into a ScheduleTrace; constructing with
// Options::replay re-enacts a recorded trace pick-for-pick (divergence —
// a recorded pick that is not runnable, e.g. because the code under test
// changed — is flagged, and scheduling continues with a deterministic
// round-robin fill, which is also the policy past the end of a minimized
// prefix).
//
// Scope and caveats:
//   * one SimExecutor at a time per process (it owns the installed virtual
//     clock), constructed and driven from one thread;
//   * probabilistic failpoint specs ("25%yield") draw from the registry's
//     per-OS-thread RNG and are NOT reproducible across executors — use
//     count specs ("1*return") or timelines in simulation;
//   * workers must never park inside a lock scope (audited invariant of
//     the preemption-point placement), or granting another worker could
//     deadlock the baton.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "parallel/executor.hpp"
#include "sim/schedule_trace.hpp"
#include "sim/timeline.hpp"
#include "support/cancel.hpp"
#include "support/random.hpp"
#include "support/sim_hooks.hpp"
#include "support/virtual_time.hpp"

namespace llpmst::sim {

class SimExecutor : public Executor {
 public:
  struct Options {
    std::uint64_t seed = 0;
    std::size_t workers = 4;
    /// Virtual nanoseconds the clock advances per scheduling decision.
    std::uint64_t step_ns = 1000;
    /// Scripted fault timeline (sim/timeline.hpp grammar); empty = none.
    /// A malformed spec is reported through timeline_error().
    std::string timeline;
    /// When non-null, replay this trace instead of drawing from the PRNG.
    /// seed/workers are taken from the trace.
    const ScheduleTrace* replay = nullptr;
  };

  explicit SimExecutor(const Options& options);
  ~SimExecutor() override;

  [[nodiscard]] std::size_t num_threads() const override { return workers_; }

  /// The schedule executed so far (picks accumulate across regions — one
  /// algorithm run through one executor yields one trace).
  [[nodiscard]] ScheduleTrace trace() const;

  /// Scheduling decisions taken so far.
  [[nodiscard]] std::uint64_t decisions() const { return decisions_; }

  /// True when a replayed trace asked for a worker that was not runnable
  /// (the schedule no longer matches the code under test).
  [[nodiscard]] bool replay_diverged() const { return replay_diverged_; }

  /// Non-empty when Options::timeline failed to parse.
  [[nodiscard]] const std::string& timeline_error() const {
    return timeline_error_;
  }

  /// The virtual clock this executor installed (advance it directly to
  /// expire deadlines from a test).
  [[nodiscard]] vtime::VirtualClock& clock() { return clock_; }

  /// Binds the CancelToken that timeline `cancel` actions trigger.
  void bind_cancel(CancelToken* token) { timeline_.bind(token, &clock_); }

 protected:
  void run_region_impl(const TeamFn& fn) override;

 private:
  enum class WorkerState : std::uint8_t { kIdle, kReady, kRunning, kDone };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Per-worker hook context: worker id + back pointer for the C-style
  /// simhook table.
  struct HookCtx {
    SimExecutor* exec = nullptr;
    std::size_t worker = 0;
  };

  void worker_thread(std::size_t id);
  void run_worker(std::size_t id, const TeamFn& fn);
  /// Takes one scheduling decision under mutex_: advances the virtual
  /// clock, fires due timeline steps, picks the next runnable worker
  /// (replay > PRNG), records the pick, and grants the baton.
  void schedule_next_locked();
  void worker_preempt(std::size_t id);
  void worker_sleep(std::size_t id, std::uint64_t ns);

  std::size_t workers_;
  std::uint64_t seed_;
  std::uint64_t step_ns_;
  Xoshiro256 rng_;
  vtime::VirtualClock clock_;
  vtime::VirtualClock* prev_clock_ = nullptr;
  Timeline timeline_;
  std::string timeline_error_;

  // Trace / replay.
  std::vector<std::uint8_t> picks_;
  const ScheduleTrace* replay_ = nullptr;
  std::size_t replay_pos_ = 0;
  bool replay_diverged_ = false;
  std::uint64_t decisions_ = 0;
  std::size_t last_pick_ = 0;  // round-robin cursor for the fill policy

  // Baton state (guarded by mutex_).
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<WorkerState> state_;
  std::size_t granted_ = kNone;
  std::size_t unfinished_ = 0;
  bool region_active_ = false;
  std::uint64_t epoch_ = 0;
  bool shutdown_ = false;
  TeamFn job_;
  std::exception_ptr first_exception_;

  std::vector<std::thread> threads_;
  std::vector<HookCtx> hook_ctx_;
  std::vector<simhook::WorkerHooks> hook_tables_;
  const simhook::WorkerHooks* main_prev_hooks_ = nullptr;
};

}  // namespace llpmst::sim
