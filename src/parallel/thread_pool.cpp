#include "parallel/thread_pool.hpp"

#include <new>
#include <utility>

#include "obs/profiler.hpp"
#include "support/assert.hpp"
#include "support/failpoint.hpp"

namespace llpmst {

namespace {

/// Runs one worker's share of a team region.  (The observed wrapper from
/// Executor::run_team, when obs is on, sits inside `f`: it carries the
/// run scope and records the share's span and scheduler event.)
template <typename Fn>
inline void run_region(const Fn& f, std::size_t worker_id) {
  // Chaos hook: "pool/task" fires once per worker per region.  Yield/sleep
  // specs perturb worker start order; failure specs throw and exercise the
  // pool's exception propagation end to end.
  switch (LLPMST_FAILPOINT("pool/task")) {
    case fail::Action::kError:
      throw fail::FailpointError("pool/task");
    case fail::Action::kAlloc:
      throw std::bad_alloc();
    case fail::Action::kNone:
      break;
  }
  // Workers arm their per-thread profiler timers lazily, here: one relaxed
  // load when profiling is off, a one-time cold arm per thread per profile
  // session otherwise.  (The coordinator thread is armed by prof_start().)
  obs::prof_ensure_thread_timer();
  f.invoke(f.obj, worker_id);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads)
    : num_threads_(num_threads == 0 ? 1 : num_threads) {
  threads_.reserve(num_threads_ - 1);
  for (std::size_t id = 1; id < num_threads_; ++id) {
    threads_.emplace_back([this, id] { worker_loop(id); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::run_region_impl(const TeamFn& fn) {
  if (num_threads_ == 1) {
    run_region(fn, 0);  // exceptions propagate naturally on the inline path
    return;
  }
  {
    std::lock_guard lock(mutex_);
    LLPMST_CHECK_MSG(job_.obj == nullptr, "run_team is not reentrant");
    job_ = fn;
    active_workers_ = num_threads_ - 1;
    ++epoch_;
  }
  work_ready_.notify_all();

  // The caller participates as worker 0.  Its exception must not skip the
  // join — the workers still reference fn's target and the caller's stack.
  std::exception_ptr caller_exception;
  try {
    run_region(fn, 0);
  } catch (...) {
    caller_exception = std::current_exception();
  }

  std::exception_ptr worker_exception;
  {
    std::unique_lock lock(mutex_);
    work_done_.wait(lock, [this] { return active_workers_ == 0; });
    job_ = TeamFn{};
    worker_exception = std::exchange(worker_exception_, nullptr);
  }
  if (caller_exception != nullptr) std::rethrow_exception(caller_exception);
  if (worker_exception != nullptr) std::rethrow_exception(worker_exception);
}

void ThreadPool::worker_loop(std::size_t worker_id) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    TeamFn job;
    {
      std::unique_lock lock(mutex_);
      work_ready_.wait(lock, [&] {
        return shutdown_ || epoch_ != seen_epoch;
      });
      if (shutdown_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    std::exception_ptr thrown;
    try {
      run_region(job, worker_id);
    } catch (...) {
      thrown = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      if (thrown != nullptr && worker_exception_ == nullptr) {
        worker_exception_ = std::move(thrown);  // first thrower wins
      }
      if (--active_workers_ == 0) work_done_.notify_one();
    }
  }
}

ThreadPool& ThreadPool::default_pool() {
  static ThreadPool pool(std::thread::hardware_concurrency());
  return pool;
}

}  // namespace llpmst
