// Sampling CPU profiler: per-thread POSIX CPU-time timers deliver SIGPROF
// at a configurable rate; an async-signal-safe handler captures the live
// PhaseTimer path (the interned id of the innermost frame), the worker id,
// and a bounded frame-pointer stack walk into a per-thread lock-free sample
// ring.  Snapshotting symbolizes the unique PCs (dladdr + demangle) and
// folds the samples into flamegraph-ready stacks ("phase;subphase;func
// 123") plus the per-phase histogram of the run report's "profile" section.
//
// Design contract (docs/observability.md has the degradation matrix):
//   * Signal safety.  The handler touches only the owning thread's
//     pre-registered ProfThread, its PhaseStack (release-published by
//     PhaseTimer), the ucontext registers, and a frame-pointer walk
//     bounds-checked against the thread's stack extent — it cannot fault,
//     allocates nothing, takes no lock, and saves/restores errno.
//   * SPSC rings: the handler is the only writer of its thread's ring;
//     slots are relaxed atomics behind a release head store.  Full rings
//     drop-oldest and the snapshot reports how many.
//   * prof_start() never fails the run: on an unsupported platform or a
//     timer failure it returns false with a reason and prof_snapshot()
//     returns {available:false, reason}.  Under LLPMST_OBS=0 everything
//     here is an inline no-op.
//   * Threads arm lazily: prof_start() arms the calling thread, pool
//     workers arm on their next region via prof_ensure_thread_timer().
//     Each timer counts its own thread's CPU time.
//
// Lifecycle: prof_start(hz) ... parallel work ... prof_stop();
// prof_snapshot() after stop.  prof_start resets buffered samples.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace llpmst::obs {

/// Default sampling rate.  Prime, so the sampler cannot phase-lock with
/// millisecond-periodic work; ~100 Hz keeps the measured overhead well
/// under the 3% acceptance bound (each sample is ~1-2 us of handler work).
inline constexpr unsigned kDefaultProfileHz = 97;

/// Highest accepted sampling rate (10 us period).  Beyond this the timer
/// interval rounds toward 0 ns, which timer_settime treats as "disarm" —
/// prof_start rejects anything above instead of silently collecting
/// nothing.  CLI layers validate against the same bound so a negative
/// --profile-hz can't wrap through the unsigned cast.
inline constexpr unsigned kMaxProfileHz = 100000;

/// One folded stack: phase path components and code frames joined by ';'
/// (outermost first, leaf last), with the number of samples attributed.
struct ProfStack {
  std::string stack;
  std::uint64_t samples = 0;
};

/// Per-phase-path sample counts ('/'-joined paths, matching
/// snapshot_phases() naming so the report's phases/profile sections join).
struct ProfPhaseCount {
  std::string name;
  std::uint64_t samples = 0;
};

struct ProfSnapshot {
  bool available = false;
  std::string unavailable_reason;  // non-empty iff !available

  unsigned hz = 0;
  std::uint64_t samples = 0;  // total captured (sum over stacks)
  std::uint64_t dropped = 0;  // overwritten by drop-oldest across rings
  std::vector<ProfPhaseCount> phases;  // sorted by name
  std::vector<ProfStack> stacks;       // sorted by samples desc, then name
};

#if LLPMST_OBS

/// Samples retained per thread.  At the default 97 Hz one ring holds ~21 s
/// of one thread's CPU time; beyond that drop-oldest keeps the newest.
inline constexpr std::size_t kProfRingCapacity = 2048;

/// True when this build/platform can profile at all (Linux on x86-64 or
/// AArch64 with POSIX per-thread timers).
[[nodiscard]] bool prof_supported();

/// Arms the profiler at `hz` samples/second of per-thread CPU time and
/// arms the calling thread's timer.  Returns true when sampling; on
/// failure returns false with a reason in *why (may be null) and leaves
/// the subsystem in the explicit-unavailable state.  Restarting resets
/// buffered samples.  Never fails the run.
bool prof_start(unsigned hz, std::string* why);

/// Disarms every registered thread's timer and stops collection.  Buffered
/// samples stay readable until the next prof_start().
void prof_stop();

/// One relaxed load; true between a successful prof_start() and prof_stop().
[[nodiscard]] bool prof_collecting();

/// Arms a per-thread timer for the calling thread if profiling is on and
/// it has none yet.  One relaxed load when profiling is off — cheap enough
/// for ThreadPool::run_region to call unconditionally.
void prof_ensure_thread_timer();

/// Symbolizes and folds all buffered samples (call after prof_stop()).
/// When the profiler never started (or could not), returns the
/// unavailable shape with the failure reason.
[[nodiscard]] ProfSnapshot prof_snapshot();

/// Renders a snapshot as folded-stack text, one "stack count" line each —
/// the input format of tools/prof2flame.py and Brendan Gregg's
/// flamegraph.pl.  Empty string for an unavailable snapshot.
[[nodiscard]] std::string prof_render_folded(const ProfSnapshot& snap);

#else  // !LLPMST_OBS — the whole subsystem folds away.

inline constexpr std::size_t kProfRingCapacity = 0;
[[nodiscard]] inline bool prof_supported() { return false; }
inline bool prof_start(unsigned, std::string* why) {
  if (why != nullptr) *why = "observability compiled out (LLPMST_OBS=0)";
  return false;
}
inline void prof_stop() {}
[[nodiscard]] inline bool prof_collecting() { return false; }
inline void prof_ensure_thread_timer() {}
[[nodiscard]] inline ProfSnapshot prof_snapshot() {
  ProfSnapshot s;
  s.unavailable_reason = "observability compiled out (LLPMST_OBS=0)";
  return s;
}
[[nodiscard]] inline std::string prof_render_folded(const ProfSnapshot&) {
  return {};
}

#endif  // LLPMST_OBS

}  // namespace llpmst::obs
