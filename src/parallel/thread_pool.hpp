// A persistent fork-join thread pool.
//
// This is the runtime substrate the paper gets from Galois/GBBS: a fixed team
// of workers that repeatedly execute data-parallel regions.  The design is a
// *team* pool rather than a task-queue pool: `run_team(f)` wakes every worker
// and runs `f(worker_id)` on each (plus the caller as worker 0), then joins.
// Data-parallel primitives (parallel_for, reduce, scan) are built on top.
//
// Why a team pool: MST rounds are bulk-synchronous data-parallel loops; a
// team dispatch is two atomics per region instead of per-task queue traffic,
// and gives every primitive a stable worker id for per-thread buffers.
//
// Thread-safety: run_team is NOT reentrant (no nested parallel regions) and
// must be called from one thread at a time.  All library entry points take
// the pool by Executor reference, so the caller decides both the
// parallelism degree and the execution substrate (real threads here, the
// deterministic simulator in src/sim/).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "parallel/executor.hpp"

namespace llpmst {

class ThreadPool : public Executor {
 public:
  /// Creates a pool that executes team regions with `num_threads` workers in
  /// total (including the calling thread).  `num_threads == 1` spawns no
  /// threads at all: run_team simply invokes f(0) inline, so sequential runs
  /// have zero runtime overhead.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool() override;

  /// Number of workers, including the caller.
  [[nodiscard]] std::size_t num_threads() const override {
    return num_threads_;
  }

  /// A process-wide default pool sized to the hardware concurrency; created
  /// on first use.  Benchmarks construct their own pools per thread-count.
  static ThreadPool& default_pool();

 protected:
  /// Exceptions a worker throws are captured and rethrown on the submitting
  /// thread after the join — the caller's own exception wins, then the
  /// first captured worker exception; the rest are dropped.  Other workers
  /// are not interrupted, so side effects of the region may be partially
  /// applied — treat a throwing region as poisoned state, not a
  /// transaction.
  void run_region_impl(const TeamFn& fn) override;

 private:
  void worker_loop(std::size_t worker_id);

  std::size_t num_threads_;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  TeamFn job_;  // valid while a region is in flight (obj != nullptr)
  std::uint64_t epoch_ = 0;        // incremented per region; wakes workers
  std::size_t active_workers_ = 0; // workers still inside the current region
  bool shutdown_ = false;
  // First exception a worker threw in the current region (guarded by
  // mutex_); rethrown by run_team on the submitting thread after the join.
  std::exception_ptr worker_exception_;
};

}  // namespace llpmst
