// RAII nested phase timing.
//
//   {
//     obs::PhaseTimer t("kruskal");
//     { obs::PhaseTimer s("sort"); sort(); }   // -> "kruskal/sort"
//   }
//
// The recorded name is the '/'-joined path of the PhaseTimers live on the
// thread; team regions carry the submitter's innermost phase into every
// worker (Executor::run_team), so a timer in a region body nests under the
// phase that dispatched it.
//
// Cost: with both gates off (the default), one relaxed load and a branch.
// Otherwise each scope looks its path's interned id up without a lock;
// when obs::enabled() it also reads the clock twice and folds the elapsed
// time into the thread's log for the current run scope (plus a trace span
// while a trace is collecting).  With only obs::phase_stack_enabled() (the
// profiler's attribution mode) it maintains the phase stack and records
// nothing else.  Place timers at round/phase granularity.
#pragma once

#include "obs/recorder.hpp"

namespace llpmst::obs {

#if LLPMST_OBS

class PhaseTimer {
 public:
  explicit PhaseTimer(const char* name) {
    const std::uint32_t g = detail::gates();
    if ((g & (detail::kGatePhases | detail::kGateStack)) == 0) return;
    node_ = detail::phase_push(name);
    mode_ = kStackOnly;
    if ((g & detail::kGatePhases) != 0) {
      mode_ = kFull;
      start_us_ = now_us();
    }
  }
  ~PhaseTimer() {
    if (mode_ == kFull) {
      detail::phase_pop(node_, start_us_);
    } else if (mode_ == kStackOnly) {
      detail::phase_pop_fast();
    }
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  enum Mode : unsigned char { kOff, kStackOnly, kFull };
  Mode mode_ = kOff;
  std::uint32_t node_ = 0;
  std::uint64_t start_us_ = 0;
};

#else

class PhaseTimer {
 public:
  explicit PhaseTimer(const char*) {}
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
};

#endif  // LLPMST_OBS

}  // namespace llpmst::obs
