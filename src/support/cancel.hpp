// Cooperative cancellation with deadline support.
//
// A CancelToken is a shared flag the coordinator loops poll at natural
// checkpoints (per sweep, per parallel_for chunk, per kScanStride steps) —
// the hot per-element paths never see it.  Cancellation is *cooperative*: a run
// stops at the next checkpoint, hands back whatever partial state is sound,
// and records why in its RunOutcome.
//
// Deadlines piggyback on the same token: set_deadline_after_ms() arms a
// steady-clock deadline that cancelled() starts reporting once passed.  The
// first observed trigger latches the reason, so a run that was cancelled
// explicitly keeps reporting kCancelled even after the deadline also passes.
//
// A token can additionally observe() a parent token: cancelled() then also
// reports (and latches the reason of) the parent's cancellation.  This is
// how RunContext composes a per-run deadline with a caller-owned cancel —
// a served query polls ONE token yet stops on whichever of "client went
// away" / "budget expired" fires first, with the true reason preserved.
//
// Watchdog is the thread-backed variant for code that should be stopped even
// when nobody is around to call cancel(): it cancels the token after a
// timeout unless disarmed first.  Deadline checks cost a clock read, which
// is why tokens are polled at chunk granularity, not per element.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>

#include "support/status.hpp"
#include "support/virtual_time.hpp"

namespace llpmst {

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation.  Idempotent; safe from any thread.
  void cancel() { latch(RunOutcome::kCancelled); }

  /// Arms (or re-arms) a deadline `ms` from now on the steady clock — the
  /// virtual clock when the deterministic simulator has one installed (the
  /// virtual epoch starts at 1s, so even a 0 ms deadline never lands on
  /// the 0 == "no deadline" encoding below).
  void set_deadline_after_ms(double ms) {
    const double delta_ns = (ms < 0 ? 0 : ms) * 1e6;
    deadline_ns_.store(
        vtime::steady_now_ns() + static_cast<std::uint64_t>(delta_ns),
        std::memory_order_relaxed);
  }

  /// Forwards cancellation from `parent`: once parent->cancelled() is true,
  /// this token reports cancelled with the parent's reason.  Pass nullptr to
  /// detach.  The parent is borrowed and must outlive this token (or be
  /// detached first); observation is one-way and adds one relaxed load plus
  /// a forwarded poll per cancelled() call.
  void observe(const CancelToken* parent) {
    parent_.store(parent, std::memory_order_release);
  }

  /// True once cancelled explicitly, past the deadline, or via an observed
  /// parent token.  The reason is latched on first observation.
  [[nodiscard]] bool cancelled() const {
    if (reason_.load(std::memory_order_acquire) != RunOutcome::kOk) {
      return true;
    }
    if (const CancelToken* p = parent_.load(std::memory_order_acquire);
        p != nullptr && p->cancelled()) {
      latch(p->reason());
      return true;
    }
    const std::uint64_t dl = deadline_ns_.load(std::memory_order_relaxed);
    if (dl != 0) {
      if (vtime::steady_now_ns() >= dl) {
        latch(RunOutcome::kDeadlineExceeded);
        return true;
      }
    }
    return false;
  }

  /// kOk while live; kCancelled / kDeadlineExceeded once triggered.
  [[nodiscard]] RunOutcome reason() const {
    (void)cancelled();  // fold a passed deadline into the latched reason
    return reason_.load(std::memory_order_acquire);
  }

  [[nodiscard]] Status status() const { return outcome_status(reason()); }

 private:
  void latch(RunOutcome why) const {
    RunOutcome expected = RunOutcome::kOk;
    reason_.compare_exchange_strong(expected, why, std::memory_order_acq_rel,
                                    std::memory_order_acquire);
  }

  mutable std::atomic<RunOutcome> reason_{RunOutcome::kOk};
  std::atomic<std::uint64_t> deadline_ns_{0};  // steady epoch ns; 0 = none
  std::atomic<const CancelToken*> parent_{nullptr};  // borrowed; may be null
};

/// How many steps (edges scanned, vertices fixed) a sequential loop runs
/// between two polls of its token: cheap next to the work, fine-grained
/// enough that a deadline lands mid-run rather than at the end.
inline constexpr std::size_t kScanStride = 1024;

/// The stride poll: true when `step` is a multiple of kScanStride and
/// `cancel` (null means "never") has triggered.  Step 0 polls, so an
/// already-cancelled token stops a run before its first step.
[[nodiscard]] inline bool cancelled_at_stride(const CancelToken* cancel,
                                              std::size_t step) {
  return step % kScanStride == 0 && cancel != nullptr && cancel->cancelled();
}

/// Cancels a token after `timeout_ms` unless disarmed first.  The watchdog
/// thread sleeps on a condition variable, so disarming (or destruction) is
/// immediate — no busy wait, no stray cancel after disarm.
///
/// The watchdog waits in REAL time even under the deterministic simulator:
/// it exists to stop runs that stopped making progress, and a wedged
/// simulation would never advance a virtual clock.  Deterministic deadline
/// tests use CancelToken::set_deadline_after_ms instead, which the
/// simulator's virtual clock drives.
class Watchdog {
 public:
  Watchdog(CancelToken& token, double timeout_ms)
      : thread_([this, &token, timeout_ms] {
          std::unique_lock lock(mutex_);
          const auto deadline =
              std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(
                      timeout_ms < 0 ? 0 : timeout_ms));
          cv_.wait_until(lock, deadline, [this] { return disarmed_; });
          if (!disarmed_) token.cancel();
        }) {}

  ~Watchdog() { disarm(); }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Stops the watchdog without cancelling.  Idempotent; joins the thread.
  void disarm() {
    {
      std::lock_guard lock(mutex_);
      disarmed_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::thread thread_;
};

}  // namespace llpmst
