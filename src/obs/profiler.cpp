#include "obs/profiler.hpp"

#include "obs/recorder.hpp"

#if LLPMST_OBS

#if defined(__linux__) && (defined(__x86_64__) || defined(__aarch64__))
#define LLPMST_PROF_PLATFORM 1
#else
#define LLPMST_PROF_PLATFORM 0
#endif

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#if LLPMST_PROF_PLATFORM
#include <cxxabi.h>
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdlib>

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#endif  // LLPMST_PROF_PLATFORM

namespace llpmst::obs {

namespace {

/// Code frames stored per sample: the leaf PC plus up to 15 return
/// addresses from the frame-pointer walk.
constexpr std::size_t kMaxSampleCode = 16;

#if LLPMST_PROF_PLATFORM

// One captured sample.  Every word is a relaxed atomic so the SIGPROF
// handler (the owning thread, asynchronously) and a snapshot (another
// thread) never tear memory; the ring head's release store publishes the
// slot.
struct ProfSlot {
  std::atomic<std::uint64_t> meta{0};  // phase node << 8 | ncode
  std::atomic<std::uint64_t> code[kMaxSampleCode];  // program counters
};

// Per-thread profiler state.  Registered once under the cold mutex and
// leaked with the global state, so a straggling timer signal after thread
// registration can never touch freed memory.
struct ProfThread {
  explicit ProfThread(std::uint32_t w)
      : worker(w), slots(new ProfSlot[kProfRingCapacity]) {}
  const std::uint32_t worker;
  std::atomic<std::uint64_t> head{0};  // total samples ever written
  std::unique_ptr<ProfSlot[]> slots;

  detail::PhaseStack* phase_stack = nullptr;  // the owning thread's stack
  std::uintptr_t stack_lo = 0;  // thread stack extent for the bounded walk
  std::uintptr_t stack_hi = 0;
  pid_t tid = 0;
  timer_t timer{};
  bool timer_created = false;
  bool timer_running = false;
  std::atomic<std::uint64_t> armed_gen{0};  // prof_start generation armed for
};

struct ProfState {
  std::atomic<bool> collecting{false};
  std::atomic<std::uint64_t> generation{0};  // bumped by every prof_start
  std::atomic<unsigned> hz{kDefaultProfileHz};

  std::mutex mu;
  std::vector<std::unique_ptr<ProfThread>> threads;  // stable addresses
  bool handler_installed = false;
  bool session_ok = false;     // a prof_start() succeeded (samples readable)
  std::string fail_reason = "profiler not started";
};

ProfState& state() {
  static ProfState* s = new ProfState;  // leaked: outlives all threads
  return *s;
}

// The handler finds its thread's state through this pointer.  Its first
// (TLS-allocating) access happens at registration on the owning thread,
// never inside the handler.
thread_local ProfThread* tls_prof_thread = nullptr;

// -- the signal handler ----------------------------------------------------

// The handler reads raw stack memory (bounds-checked, but pointing at saved
// frame slots the sanitizers may consider poisoned or unsequenced), so
// instrumentation is disabled for it and its helpers.
#if defined(__clang__) || defined(__GNUC__)
#define LLPMST_NO_SANITIZE \
  __attribute__((no_sanitize("address", "thread", "undefined")))
#else
#define LLPMST_NO_SANITIZE
#endif

/// Extracts pc / frame pointer / stack pointer from the interrupted
/// context.
LLPMST_NO_SANITIZE inline void context_registers(void* uctx,
                                                 std::uintptr_t* pc,
                                                 std::uintptr_t* fp,
                                                 std::uintptr_t* sp) {
  const ucontext_t* uc = static_cast<const ucontext_t*>(uctx);
#if defined(__x86_64__)
  *pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  *fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  *sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  *pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  *fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
  *sp = static_cast<std::uintptr_t>(uc->uc_mcontext.sp);
#endif
}

LLPMST_NO_SANITIZE void prof_signal_handler(int, siginfo_t*, void* uctx) {
  ProfThread* t = tls_prof_thread;
  if (t == nullptr) return;  // recycled tid or unregistered thread
  ProfState& s = state();
  if (!s.collecting.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;

  std::uintptr_t pc = 0, fp = 0, sp = 0;
  context_registers(uctx, &pc, &fp, &sp);

  const std::uint64_t h = t->head.load(std::memory_order_relaxed);
  ProfSlot& slot = t->slots[h & (kProfRingCapacity - 1)];

  // Phase path: depth first (acquire pairs with phase_push's release), then
  // the top frame it publishes — an interned node naming the whole path.
  std::uint64_t node = 0;
  if (t->phase_stack != nullptr) {
    const std::uint32_t depth = std::min<std::uint32_t>(
        t->phase_stack->depth.load(std::memory_order_acquire),
        static_cast<std::uint32_t>(detail::kMaxPhaseDepth));
    if (depth > 0) node = t->phase_stack->frames[depth - 1];
  }

  // Leaf PC, then a bounded frame-pointer walk.  Every dereference is
  // checked against [sp, stack_hi): aligned, in-extent, and monotonically
  // ascending, so the loop cannot fault and cannot spin — in a build
  // without frame pointers the first check fails and we keep just the leaf.
  std::uint64_t ncode = 0;
  slot.code[ncode++].store(pc, std::memory_order_relaxed);
  std::uintptr_t lo = sp > t->stack_lo ? sp : t->stack_lo;
  const std::uintptr_t hi = t->stack_hi;
  while (ncode < kMaxSampleCode) {
    // Overflow-safe: `hi - fp` only after `fp >= hi` is excluded, never
    // `fp + 16` (which wraps for the small negative scratch values an
    // FP-less library frame can leave in the register).
    if (fp < lo || fp >= hi || hi - fp < 2 * sizeof(void*) ||
        (fp & (sizeof(void*) - 1)) != 0) {
      break;
    }
    const std::uintptr_t next_fp = *reinterpret_cast<std::uintptr_t*>(fp);
    const std::uintptr_t ret =
        *reinterpret_cast<std::uintptr_t*>(fp + sizeof(void*));
    if (ret < 4096) break;  // null / near-null: not a return address
    slot.code[ncode++].store(ret, std::memory_order_relaxed);
    if (next_fp <= fp) break;  // must ascend, or we could loop forever
    fp = next_fp;
  }

  slot.meta.store((node << 8) | ncode, std::memory_order_relaxed);
  // Release: a snapshot that sees this head sees the slot words above.
  t->head.store(h + 1, std::memory_order_release);
  errno = saved_errno;
}

#undef LLPMST_NO_SANITIZE

// -- arming ----------------------------------------------------------------

/// Thread-exit hygiene: delete the timer so a recycled tid can never
/// receive a stray SIGPROF meant for this thread.  The ProfThread itself
/// (ring included) stays registered — buffered samples remain readable.
/// Initialized (and so registered with __cxa_thread_atexit) by the odr-use
/// in arm_current_thread.
struct ProfTlsCleanup {
  ~ProfTlsCleanup() {
    ProfThread* t = tls_prof_thread;
    if (t == nullptr) return;
    tls_prof_thread = nullptr;
    ProfState& s = state();
    std::lock_guard lock(s.mu);
    if (t->timer_created) {
      timer_delete(t->timer);
      t->timer_created = false;
      t->timer_running = false;
    }
  }
};
thread_local ProfTlsCleanup tls_prof_cleanup;

/// Creates/starts the calling thread's timer for the current generation.
/// Cold path (mutex): runs once per thread per prof_start().  Returns false
/// with a reason on syscall failure.
bool arm_current_thread(std::string* why) {
  ProfState& s = state();
  std::lock_guard lock(s.mu);
  // Re-checked under the mutex: a worker that passed the prof_collecting()
  // fast check can reach here after prof_stop()'s disarm loop ran, and
  // arming now would leave a no-op timer firing until the next session.
  if (!s.collecting.load(std::memory_order_relaxed)) {
    if (why != nullptr) *why = "profiler stopped before this thread armed";
    return false;
  }
  ProfThread* t = tls_prof_thread;
  if (t == nullptr) {
    s.threads.push_back(std::make_unique<ProfThread>(
        static_cast<std::uint32_t>(shard_id())));
    t = s.threads.back().get();
    t->phase_stack = &detail::phase_stack();
    t->tid = static_cast<pid_t>(::syscall(SYS_gettid));
    // Stack extent for the handler's bounded walk.  pthread_getattr_np
    // allocates (fine here, never in the handler); on failure the walk
    // degrades to leaf-only samples.
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
      void* addr = nullptr;
      std::size_t size = 0;
      if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
        t->stack_lo = reinterpret_cast<std::uintptr_t>(addr);
        t->stack_hi = t->stack_lo + size;
      }
      pthread_attr_destroy(&attr);
    }
    tls_prof_thread = t;
    // Odr-use forces the thread_local's lazy initialization here, which is
    // what registers ~ProfTlsCleanup via __cxa_thread_atexit; without it
    // the destructor never runs and the timer outlives the thread.
    (void)&tls_prof_cleanup;
  }

  const std::uint64_t gen = s.generation.load(std::memory_order_relaxed);
  if (t->armed_gen.load(std::memory_order_relaxed) == gen &&
      t->timer_running) {
    return true;
  }
  if (!t->timer_created) {
    struct sigevent sev;
    std::memset(&sev, 0, sizeof(sev));
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev.sigev_notify_thread_id = t->tid;
    if (timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &t->timer) != 0) {
      if (why != nullptr) {
        *why = std::string("timer_create failed: ") + std::strerror(errno);
      }
      return false;
    }
    t->timer_created = true;
  }
  const unsigned hz = s.hz.load(std::memory_order_relaxed);
  const long interval_ns = static_cast<long>(1000000000ull / (hz ? hz : 1));
  struct itimerspec its;
  its.it_interval.tv_sec = 0;
  its.it_interval.tv_nsec = interval_ns;
  its.it_value = its.it_interval;
  if (timer_settime(t->timer, 0, &its, nullptr) != 0) {
    if (why != nullptr) {
      *why = std::string("timer_settime failed: ") + std::strerror(errno);
    }
    return false;
  }
  t->timer_running = true;
  t->armed_gen.store(gen, std::memory_order_relaxed);
  return true;
}

// -- symbolization (snapshot time, normal context) -------------------------

/// Makes a symbol safe inside a folded stack: ';' separates frames and the
/// trailing " count" is split on the last space, so both become '_'/':'.
void sanitize_frame(std::string* sym) {
  for (char& c : *sym) {
    if (c == ';') c = ':';
    if (c == ' ' || c == '\n' || c == '\t') c = '_';
  }
}

std::string symbolize(std::uintptr_t pc,
                      std::map<std::uintptr_t, std::string>* cache) {
  auto it = cache->find(pc);
  if (it != cache->end()) return it->second;
  std::string name;
  Dl_info info;
  if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      name = demangled;
    } else {
      name = info.dli_sname;
    }
    std::free(demangled);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%" PRIxPTR, pc);
    name = buf;
  }
  sanitize_frame(&name);
  cache->emplace(pc, name);
  return name;
}

#endif  // LLPMST_PROF_PLATFORM

}  // namespace

// -- public API ------------------------------------------------------------

#if LLPMST_PROF_PLATFORM

bool prof_supported() { return true; }

bool prof_start(unsigned hz, std::string* why) {
  ProfState& s = state();
  if (hz > kMaxProfileHz) {
    // Also catches a negative CLI value wrapped through the unsigned cast;
    // accepting it would compute a 0 ns interval and timer_settime would
    // silently disarm (empty profile reported as success).
    std::lock_guard lock(s.mu);
    s.session_ok = false;
    s.fail_reason = "profile rate " + std::to_string(hz) +
                    " Hz out of range [1, " + std::to_string(kMaxProfileHz) +
                    "]";
    if (why != nullptr) *why = s.fail_reason;
    return false;
  }
  {
    std::lock_guard lock(s.mu);
    if (!s.handler_installed) {
      struct sigaction sa;
      std::memset(&sa, 0, sizeof(sa));
      sa.sa_sigaction = prof_signal_handler;
      sa.sa_flags = SA_SIGINFO | SA_RESTART;
      sigemptyset(&sa.sa_mask);
      if (sigaction(SIGPROF, &sa, nullptr) != 0) {
        s.session_ok = false;
        s.fail_reason =
            std::string("sigaction(SIGPROF) failed: ") + std::strerror(errno);
        if (why != nullptr) *why = s.fail_reason;
        return false;
      }
      s.handler_installed = true;
    }
    // Fresh session: drop buffered samples and invalidate old arms.
    for (auto& t : s.threads) t->head.store(0, std::memory_order_relaxed);
    s.hz.store(hz == 0 ? kDefaultProfileHz : hz, std::memory_order_relaxed);
    s.generation.fetch_add(1, std::memory_order_relaxed);
  }
  s.collecting.store(true, std::memory_order_release);

  std::string arm_why;
  if (!arm_current_thread(&arm_why)) {
    s.collecting.store(false, std::memory_order_release);
    std::lock_guard lock(s.mu);
    s.session_ok = false;
    s.fail_reason = arm_why;
    if (why != nullptr) *why = arm_why;
    return false;
  }
  std::lock_guard lock(s.mu);
  s.session_ok = true;
  s.fail_reason.clear();
  return true;
}

void prof_stop() {
  ProfState& s = state();
  s.collecting.store(false, std::memory_order_release);
  std::lock_guard lock(s.mu);
  struct itimerspec zero;
  std::memset(&zero, 0, sizeof(zero));
  for (auto& t : s.threads) {
    if (t->timer_running) {
      timer_settime(t->timer, 0, &zero, nullptr);
      t->timer_running = false;
    }
  }
}

bool prof_collecting() {
  return state().collecting.load(std::memory_order_relaxed);
}

void prof_ensure_thread_timer() {
  if (!prof_collecting()) return;  // the one-relaxed-load fast path
  ProfState& s = state();
  ProfThread* t = tls_prof_thread;
  if (t != nullptr &&
      t->armed_gen.load(std::memory_order_relaxed) ==
          s.generation.load(std::memory_order_acquire) &&
      t->timer_running) {
    return;
  }
  // Worker arm failures are silent by design: profiling a run with one
  // unarmed worker is degraded attribution, not a failed run.
  (void)arm_current_thread(nullptr);
}

ProfSnapshot prof_snapshot() {
  ProfSnapshot snap;
  ProfState& s = state();
  std::lock_guard lock(s.mu);
  if (!s.session_ok) {
    snap.unavailable_reason = s.fail_reason;
    return snap;
  }
  snap.available = true;
  snap.hz = s.hz.load(std::memory_order_relaxed);

  std::map<std::uintptr_t, std::string> symcache;
  std::map<std::string, std::uint64_t> folded;
  std::map<std::string, std::uint64_t> by_phase;

  for (auto& t : s.threads) {
    const std::uint64_t h = t->head.load(std::memory_order_acquire);
    const std::uint64_t count = std::min<std::uint64_t>(h, kProfRingCapacity);
    snap.dropped += h - count;
    for (std::uint64_t i = h - count; i < h; ++i) {
      const ProfSlot& slot = t->slots[i & (kProfRingCapacity - 1)];
      const std::uint64_t meta = slot.meta.load(std::memory_order_relaxed);
      const auto node = static_cast<std::uint32_t>(meta >> 8);
      const std::uint64_t ncode = meta & 0xff;

      // ';'-joined for the stack key, '/'-joined to match snapshot_phases().
      std::string phase_fold = detail::node_path(node, ';');
      std::string phase_slash = detail::node_path(node);
      if (phase_fold.empty()) {
        phase_fold = "(no_phase)";
        phase_slash = "(no_phase)";
      }

      std::string key = phase_fold;
      // Code frames were captured leaf-first; folded stacks read
      // outermost-first.
      for (std::uint64_t c = std::min<std::uint64_t>(ncode, kMaxSampleCode);
           c > 0; --c) {
        const std::uintptr_t pc = static_cast<std::uintptr_t>(
            slot.code[c - 1].load(std::memory_order_relaxed));
        key.push_back(';');
        key += symbolize(pc, &symcache);
      }
      ++folded[key];
      ++by_phase[phase_slash];
      ++snap.samples;
    }
  }

  snap.phases.reserve(by_phase.size());
  for (const auto& [name, n] : by_phase) snap.phases.push_back({name, n});
  snap.stacks.reserve(folded.size());
  for (const auto& [stack, n] : folded) snap.stacks.push_back({stack, n});
  std::sort(snap.stacks.begin(), snap.stacks.end(),
            [](const ProfStack& a, const ProfStack& b) {
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.stack < b.stack;
            });
  return snap;
}

#else  // OBS on, platform unsupported: explicit-unavailable everywhere.

bool prof_supported() { return false; }

bool prof_start(unsigned, std::string* why) {
  if (why != nullptr) {
    *why = "sampling profiler unsupported on this platform "
           "(requires Linux on x86-64 or AArch64)";
  }
  return false;
}

void prof_stop() {}
bool prof_collecting() { return false; }
void prof_ensure_thread_timer() {}

ProfSnapshot prof_snapshot() {
  ProfSnapshot snap;
  snap.unavailable_reason =
      "sampling profiler unsupported on this platform "
      "(requires Linux on x86-64 or AArch64)";
  return snap;
}

#endif  // LLPMST_PROF_PLATFORM

std::string prof_render_folded(const ProfSnapshot& snap) {
  std::string out;
  if (!snap.available) return out;
  out.reserve(snap.stacks.size() * 64);
  for (const ProfStack& st : snap.stacks) {
    out += st.stack;
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", st.samples);
    out += buf;
  }
  return out;
}

}  // namespace llpmst::obs

#endif  // LLPMST_OBS
