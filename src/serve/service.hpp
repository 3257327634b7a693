// The query service: admission control, the bounded request queue, and the
// serve-side worker pool that executes queries against catalog snapshots.
//
// Request flow (docs/serving.md has the wire-level view):
//
//   handle(line) ── parse ──> admission ── enqueue ──> worker ──> respond
//
// Admission happens on the CALLER's thread and is synchronous: a request
// that cannot run (unknown graph/algo, bad budget, queue full) is rejected
// with a structured serve-response envelope before it ever costs a queue
// slot.  The two contracts worth naming:
//
//   * every query runs in its OWN RunContext: own deadline token (armed
//     from the request's budget_ms and observing the per-query cancel
//     token, so "budget expired" and "client went away" both stop it with
//     the true reason), own scratch, connectivity seeded from the
//     snapshot's load-time component count.  Workers keep a persistent
//     ThreadPool across queries — the pool is the expensive part — but
//     context state never leaks between requests;
//   * faults degrade one request, never the process: an armed failpoint or
//     a thrown exception inside an algorithm becomes a structured error in
//     THAT query's response (the existing Status taxonomy), and the worker
//     moves on.  The CI chaos job asserts exactly this.
//
// Batching: when a worker pops a query it also claims up to batch_max-1
// queued queries against the SAME snapshot and runs them back-to-back —
// one graph resident in cache per worker dispatch instead of round-robin
// thrash across snapshots.  Responses still stream per query; the report's
// request.batch field records the dispatch size so the effect is visible.
//
// Overload: the queue is bounded (queue_depth).  A full queue rejects with
// RESOURCE_EXHAUSTED / "overloaded" — loudly, synchronously — instead of
// buffering unboundedly; clients are expected to back off and retry.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/catalog.hpp"
#include "serve/json.hpp"
#include "support/cancel.hpp"

namespace llpmst {
class ThreadPool;
}

namespace llpmst::serve {

struct ServiceOptions {
  /// Serve-side worker threads executing queries.
  std::size_t workers = 2;
  /// ThreadPool size each worker runs its queries on.
  std::size_t threads_per_query = 1;
  /// Bounded queue depth; admission rejects RESOURCE_EXHAUSTED beyond it.
  std::size_t queue_depth = 64;
  /// Max same-snapshot queries one worker dispatch claims (>= 1).
  std::size_t batch_max = 4;
  /// Tests set false to exercise the queue/batching machinery without
  /// worker threads racing them; drain_one() then runs dispatches inline.
  bool start_workers = true;
};

/// Delivery callback for one response line (no trailing newline).  Called
/// synchronously from handle() for admission results and control ops, and
/// from a worker thread for executed queries — implementations serialize
/// their own writes.
using ResponseFn = std::function<void(const std::string&)>;

class QueryService {
 public:
  QueryService(GraphCatalog& catalog, ServiceOptions options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Parses and executes one request line.  Exactly one response line is
  /// (eventually) delivered through `respond` per call: synchronously for
  /// control ops and rejections, from a worker for admitted queries.
  /// `client` tags the requesting connection so disconnect_client() can
  /// cancel its in-flight queries; 0 = untracked.
  void handle(const std::string& line, std::uint64_t client,
              ResponseFn respond);

  /// Cancels every queued/running query admitted with this client tag —
  /// the "client went away" path.  Queued queries still produce their
  /// (cancelled) response through the stored ResponseFn; the server side
  /// discards writes to a closed connection.
  void disconnect_client(std::uint64_t client);

  /// Stops workers: in-flight queries are cancelled (kCancelled), queued
  /// queries respond cancelled without running, workers join.  Idempotent;
  /// the destructor calls it.
  void shutdown();

  /// Runs one worker dispatch (one batch) inline on the calling thread,
  /// optionally on `pool` (nullptr = each query's own 1-thread context).
  /// Returns the number of queries executed (0 = queue empty).  This is
  /// the worker loop's body, exposed for start_workers=false tests.
  std::size_t drain_one(ThreadPool* pool = nullptr);

  struct Stats {
    std::size_t queued = 0;        // waiting in the queue right now
    std::size_t active = 0;        // executing right now
    std::uint64_t admitted = 0;    // queries accepted into the queue, ever
    std::uint64_t served = 0;      // responses delivered for executed queries
    std::uint64_t rejected = 0;    // admission rejections (all codes)
    std::uint64_t overloaded = 0;  // the RESOURCE_EXHAUSTED subset
    std::uint64_t cancelled = 0;   // queries stopped by cancel/disconnect
    std::uint64_t batched = 0;     // queries that rode a multi-query dispatch
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct QueryJob;
  using JobPtr = std::shared_ptr<QueryJob>;

  void worker_loop();
  /// Claims the next batch (front job + same-snapshot followers) under the
  /// queue lock.  Empty when the queue is empty.
  std::vector<JobPtr> claim_batch();
  void execute(const JobPtr& job, std::size_t batch_size, ThreadPool* pool);
  void respond_envelope(const ResponseFn& respond, const std::string& id,
                        const char* op, const Status& status,
                        const std::string& data_json);
  void submit_query(const Json& request, std::uint64_t client,
                    ResponseFn respond);
  void handle_load(const Json& request, const ResponseFn& respond);
  void handle_unload(const Json& request, const ResponseFn& respond);
  void handle_list(const Json& request, const ResponseFn& respond);
  void handle_cancel(const Json& request, const ResponseFn& respond);
  void handle_healthz(const Json& request, const ResponseFn& respond);

  GraphCatalog& catalog_;
  const ServiceOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<JobPtr> queue_;
  bool stopping_ = false;
  /// Live queries by id (queued + running) for cancel / disconnect.
  std::map<std::string, JobPtr> live_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> next_id_{1};

  std::atomic<std::size_t> active_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> overloaded_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> batched_{0};
};

}  // namespace llpmst::serve
