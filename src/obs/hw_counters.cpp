#include "obs/hw_counters.hpp"

#include "obs/recorder.hpp"

#if LLPMST_OBS

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

#if defined(__linux__)
#define LLPMST_HW_PERF 1
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#else
#define LLPMST_HW_PERF 0
#endif

namespace llpmst::obs {

namespace {

// Event table.  Index order matches detail::HwRaw::v and the HwSample
// fields.  The five hardware events form one group (leader = cycles) so
// the kernel co-schedules them and miss *rates* stay consistent;
// task-clock is software and opened ungrouped (always schedulable).
enum EventIndex {
  kCycles = 0,
  kInstructions,
  kCacheReferences,
  kCacheMisses,
  kBranchMisses,
  kTaskClock,
  kNumEvents,
};

struct HwState {
  std::mutex mu;
  bool active = false;
  bool forced_unavailable = false;
  std::string begin_error;   // reason of the last failed hw_begin
  int fds[kNumEvents] = {-1, -1, -1, -1, -1, -1};

  std::mutex phase_mu;
  struct PhaseAgg {
    std::uint64_t count = 0;
    std::uint64_t v[kNumEvents] = {0, 0, 0, 0, 0, 0};
    std::uint32_t mask = 0;
  };
  std::map<std::string, PhaseAgg> phases;
};

HwState& state() {
  static HwState* s = new HwState;  // leaked: outlives all threads
  return *s;
}

#if LLPMST_HW_PERF

long perf_open(std::uint32_t type, std::uint64_t config, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.size = sizeof attr;
  attr.type = type;
  attr.config = config;
  attr.disabled = 1;
  // Count this process and every thread it spawns after the open (the
  // ThreadPool workers).  inherit forbids PERF_FORMAT_GROUP reads, so
  // each fd is read individually below.
  attr.inherit = 1;
  attr.exclude_kernel = 1;  // user-space only: works at perf_event_paranoid<=2
  attr.exclude_hv = 1;
  attr.read_format =
      PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  return syscall(SYS_perf_event_open, &attr, 0, -1, group_fd, 0);
}

std::string describe_open_error(int err) {
  std::string why = "perf_event_open(cycles): ";
  why += std::strerror(err);
  if (err == EACCES || err == EPERM) {
    why += " (perf_event_paranoid too high or seccomp-filtered?)";
  } else if (err == ENOENT || err == EOPNOTSUPP || err == ENODEV) {
    why += " (no PMU exposed on this machine/VM)";
  }
  return why;
}

#endif  // LLPMST_HW_PERF

void close_all_locked(HwState& s) {
#if LLPMST_HW_PERF
  for (int& fd : s.fds) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
#else
  (void)s;
#endif
}

}  // namespace

bool hw_begin(std::string* why) {
  HwState& s = state();
  std::lock_guard lock(s.mu);
  if (s.active) return true;

  const char* env = std::getenv("LLPMST_HW_DISABLE");
  if (s.forced_unavailable || (env != nullptr && env[0] == '1')) {
    s.begin_error = "hardware counters disabled (LLPMST_HW_DISABLE)";
    if (why != nullptr) *why = s.begin_error;
    return false;
  }

#if LLPMST_HW_PERF
  static constexpr struct {
    std::uint32_t type;
    std::uint64_t config;
  } kEvents[kNumEvents] = {
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
      {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK},
  };

  // The cycles leader is mandatory: if it cannot open, the PMU is absent
  // or forbidden and the whole section degrades to "unavailable".
  const long leader = perf_open(kEvents[kCycles].type,
                                kEvents[kCycles].config, -1);
  if (leader < 0) {
    s.begin_error = describe_open_error(errno);
    if (why != nullptr) *why = s.begin_error;
    return false;
  }
  s.fds[kCycles] = static_cast<int>(leader);

  // Siblings are best-effort: a PMU without (say) branch-miss support
  // yields a null field, not a failed run.
  for (int i = kInstructions; i <= kBranchMisses; ++i) {
    const long fd = perf_open(kEvents[i].type, kEvents[i].config,
                              static_cast<int>(leader));
    s.fds[i] = fd < 0 ? -1 : static_cast<int>(fd);
  }
  const long tc = perf_open(kEvents[kTaskClock].type,
                            kEvents[kTaskClock].config, -1);
  s.fds[kTaskClock] = tc < 0 ? -1 : static_cast<int>(tc);

  ioctl(s.fds[kCycles], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(s.fds[kCycles], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  if (s.fds[kTaskClock] >= 0) {
    ioctl(s.fds[kTaskClock], PERF_EVENT_IOC_RESET, 0);
    ioctl(s.fds[kTaskClock], PERF_EVENT_IOC_ENABLE, 0);
  }
  s.active = true;
  s.begin_error.clear();
  return true;
#else
  s.begin_error = "perf_event_open is Linux-only";
  if (why != nullptr) *why = s.begin_error;
  return false;
#endif
}

void hw_end() {
  HwState& s = state();
  std::lock_guard lock(s.mu);
  if (!s.active) return;
#if LLPMST_HW_PERF
  ioctl(s.fds[kCycles], PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
  if (s.fds[kTaskClock] >= 0) {
    ioctl(s.fds[kTaskClock], PERF_EVENT_IOC_DISABLE, 0);
  }
#endif
  close_all_locked(s);
  s.active = false;
}

bool hw_active() {
  HwState& s = state();
  std::lock_guard lock(s.mu);
  return s.active;
}

void hw_force_unavailable(bool forced) {
  HwState& s = state();
  std::lock_guard lock(s.mu);
  s.forced_unavailable = forced;
}

namespace detail {

HwRaw hw_read_raw() {
  HwRaw raw;
  HwState& s = state();
  std::lock_guard lock(s.mu);
  if (!s.active) return raw;
#if LLPMST_HW_PERF
  for (int i = 0; i < kNumEvents; ++i) {
    if (s.fds[i] < 0) continue;
    // {value, time_enabled, time_running} per the read_format above.
    std::uint64_t buf[3] = {0, 0, 0};
    if (read(s.fds[i], buf, sizeof buf) != sizeof buf) continue;
    std::uint64_t v = buf[0];
    if (buf[2] > 0 && buf[2] < buf[1]) {
      // PMU was multiplexed: extrapolate to the full enabled window.
      v = static_cast<std::uint64_t>(
          static_cast<double>(v) * static_cast<double>(buf[1]) /
          static_cast<double>(buf[2]));
    }
    raw.v[i] = v;
    raw.mask |= 1u << i;
  }
#endif
  return raw;
}

void hw_fold_phase(const char* label, const HwRaw& start, const HwRaw& end) {
  const std::uint32_t mask = start.mask & end.mask;
  if (mask == 0) return;
  // Attribute to the live PhaseTimer path; the label is the fallback for
  // scopes opened outside any phase (or with phase timing runtime-off).
  std::string path = phase_path();
  if (path.empty()) path = label;

  HwState& s = state();
  std::lock_guard lock(s.phase_mu);
  HwState::PhaseAgg& agg = s.phases[path];
  ++agg.count;
  agg.mask |= mask;
  for (int i = 0; i < kNumEvents; ++i) {
    if ((mask & (1u << i)) == 0) continue;
    // Readings are cumulative and monotone; clamp against scaled jitter.
    if (end.v[i] > start.v[i]) agg.v[i] += end.v[i] - start.v[i];
  }
}

}  // namespace detail

namespace {

// Shared shaping of raw per-event values into the public sample struct.
void fill_sample(HwSample& out, const std::uint64_t v[], std::uint32_t mask) {
  const auto take = [&](int i) {
    return (mask & (1u << i)) != 0 ? v[i] : kHwAbsent;
  };
  out.cycles = take(kCycles);
  out.instructions = take(kInstructions);
  out.cache_references = take(kCacheReferences);
  out.cache_misses = take(kCacheMisses);
  out.branch_misses = take(kBranchMisses);
  if ((mask & (1u << kTaskClock)) != 0) {
    // task-clock counts nanoseconds.
    out.task_clock_ms = static_cast<double>(v[kTaskClock]) / 1e6;
  }
}

}  // namespace

HwSample hw_read() {
  HwSample out;
  {
    HwState& s = state();
    std::lock_guard lock(s.mu);
    if (!s.active) {
      out.unavailable_reason = s.begin_error.empty()
                                   ? "hardware counters not started"
                                   : s.begin_error;
      return out;
    }
  }
#if LLPMST_HW_PERF
  double min_ratio = 1.0;
  std::uint64_t v[kNumEvents] = {0, 0, 0, 0, 0, 0};
  std::uint32_t mask = 0;
  {
    HwState& s = state();
    std::lock_guard lock(s.mu);
    for (int i = 0; i < kNumEvents; ++i) {
      if (s.fds[i] < 0) continue;
      std::uint64_t buf[3] = {0, 0, 0};
      if (read(s.fds[i], buf, sizeof buf) != sizeof buf) continue;
      std::uint64_t value = buf[0];
      if (buf[1] > 0) {
        const double ratio = static_cast<double>(buf[2]) /
                             static_cast<double>(buf[1]);
        min_ratio = std::min(min_ratio, ratio);
        if (buf[2] > 0 && buf[2] < buf[1]) {
          value = static_cast<std::uint64_t>(
              static_cast<double>(value) * static_cast<double>(buf[1]) /
              static_cast<double>(buf[2]));
        }
      }
      v[i] = value;
      mask |= 1u << i;
    }
  }
  out.available = true;
  out.multiplex_ratio = min_ratio;
  fill_sample(out, v, mask);
#endif
  return out;
}

std::vector<HwPhaseSample> snapshot_hw_phases() {
  HwState& s = state();
  std::vector<HwPhaseSample> out;
  std::lock_guard lock(s.phase_mu);
  out.reserve(s.phases.size());
  for (const auto& [name, agg] : s.phases) {  // std::map: already sorted
    HwPhaseSample p;
    p.name = name;
    p.count = agg.count;
    p.totals.available = true;
    fill_sample(p.totals, agg.v, agg.mask);
    out.push_back(std::move(p));
  }
  return out;
}

void hw_reset_phases() {
  HwState& s = state();
  std::lock_guard lock(s.phase_mu);
  s.phases.clear();
}

}  // namespace llpmst::obs

#endif  // LLPMST_OBS
