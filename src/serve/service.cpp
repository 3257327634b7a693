#include "serve/service.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <thread>
#include <utility>

#include "core/run_context.hpp"
#include "mst/auto.hpp"
#include "mst/registry.hpp"
#include "mst/verifier.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "support/failpoint.hpp"

namespace llpmst::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string fmt_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms < 0 ? 0.0 : ms);
  return buf;
}

std::string error_json(const Status& status) {
  if (status.ok()) return "null";
  std::string out = "{\"code\":";
  out += obs::json_quote(status_code_name(status.code()));
  out += ",\"message\":";
  out += obs::json_quote(status.message());
  out += "}";
  return out;
}

/// Caps pause_ms so a typo cannot park a worker for an hour.
constexpr double kMaxPauseMs = 60'000.0;

}  // namespace

/// Everything one admitted query carries from admission to response.
struct QueryService::QueryJob {
  std::string id;
  std::uint64_t client = 0;
  ResponseFn respond;
  SnapshotPtr snapshot;
  std::string algo;            // requested name; "auto" = portfolio
  const MstAlgorithm* entry = nullptr;  // resolved; null for auto
  double budget_ms = -1;       // < 0 = no budget
  double pause_ms = 0;         // cancellable delay before running (tests/CI)
  bool verify = false;
  std::shared_ptr<CancelToken> token = std::make_shared<CancelToken>();
  Clock::time_point enqueued = Clock::now();
};

QueryService::QueryService(GraphCatalog& catalog, ServiceOptions options)
    : catalog_(catalog), options_(std::move(options)) {
  if (options_.start_workers) {
    const std::size_t n = options_.workers == 0 ? 1 : options_.workers;
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
}

QueryService::~QueryService() { shutdown(); }

void QueryService::respond_envelope(const ResponseFn& respond,
                                    const std::string& id, const char* op,
                                    const Status& status,
                                    const std::string& data_json) {
  std::string out = "{\"schema\":\"llpmst-serve-response\",\"schema_version\":1";
  out += ",\"id\":";
  out += id.empty() ? "null" : obs::json_quote(id);
  out += ",\"op\":";
  out += obs::json_quote(op);
  out += ",\"status\":";
  out += status.ok() ? "\"ok\"" : "\"error\"";
  out += ",\"error\":";
  out += error_json(status);
  out += ",\"data\":";
  out += data_json.empty() ? "null" : data_json;
  out += "}";
  respond(out);
}

void QueryService::handle(const std::string& line, std::uint64_t client,
                          ResponseFn respond) {
  Json request;
  std::string parse_error;
  if (!parse_json(line, &request, &parse_error)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    respond_envelope(respond, "", "",
                     Status(StatusCode::kInvalidArgument,
                            "malformed request: " + parse_error),
                     "");
    return;
  }
  if (!request.is_object()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    respond_envelope(respond, "", "",
                     Status(StatusCode::kInvalidArgument,
                            "request must be a JSON object"),
                     "");
    return;
  }
  const std::string id = request.get_string("id", "");
  const std::string op = request.get_string("op", "");
  if (obs::kCompiledIn) obs::counter("serve/requests").increment();
  if (op == "query") {
    submit_query(request, client, std::move(respond));
  } else if (op == "load") {
    handle_load(request, respond);
  } else if (op == "unload") {
    handle_unload(request, respond);
  } else if (op == "list") {
    handle_list(request, respond);
  } else if (op == "cancel") {
    handle_cancel(request, respond);
  } else if (op == "healthz") {
    handle_healthz(request, respond);
  } else {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    respond_envelope(
        respond, id, op.c_str(),
        Status(StatusCode::kInvalidArgument,
               "unknown op '" + op +
                   "' (load | unload | list | query | cancel | healthz)"),
        "");
  }
}

void QueryService::handle_load(const Json& request,
                               const ResponseFn& respond) {
  const std::string id = request.get_string("id", "");
  const std::string name = request.get_string("name", "");
  const std::string source = request.get_string("source", "");
  if (name.empty() || source.empty()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    respond_envelope(respond, id, "load",
                     Status(StatusCode::kInvalidArgument,
                            "load needs string fields 'name' and 'source'"),
                     "");
    return;
  }
  const auto seed =
      static_cast<std::uint64_t>(request.get_number("seed", 1));
  Expected<SnapshotPtr> loaded = catalog_.load(name, source, seed);
  if (!loaded.ok()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    respond_envelope(respond, id, "load", loaded.status(), "");
    return;
  }
  const GraphSnapshot& s = **loaded;
  std::string data = "{\"name\":" + obs::json_quote(s.name) +
                     ",\"vertices\":" + std::to_string(s.graph.num_vertices()) +
                     ",\"edges\":" + std::to_string(s.graph.num_edges()) +
                     ",\"components\":" + std::to_string(s.components) +
                     ",\"backend\":" + obs::json_quote(s.backend) +
                     ",\"bytes_mapped\":" + std::to_string(s.bytes_mapped) +
                     ",\"load_ms\":" + fmt_ms(s.load_ms) + "}";
  respond_envelope(respond, id, "load", Status::Ok(), data);
}

void QueryService::handle_unload(const Json& request,
                                 const ResponseFn& respond) {
  const std::string id = request.get_string("id", "");
  const std::string name = request.get_string("name", "");
  Expected<std::size_t> pinned = catalog_.unload(name);
  if (!pinned.ok()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    respond_envelope(respond, id, "unload", pinned.status(), "");
    return;
  }
  respond_envelope(respond, id, "unload", Status::Ok(),
                   "{\"pinned\":" + std::to_string(*pinned) + "}");
}

void QueryService::handle_list(const Json& request,
                               const ResponseFn& respond) {
  const std::string id = request.get_string("id", "");
  std::string data = "{\"graphs\":[";
  bool first = true;
  for (const GraphCatalog::Entry& e : catalog_.list()) {
    if (!first) data += ",";
    first = false;
    data += "{\"name\":" + obs::json_quote(e.name) +
            ",\"source\":" + obs::json_quote(e.source) +
            ",\"seed\":" + std::to_string(e.seed) +
            ",\"vertices\":" + std::to_string(e.vertices) +
            ",\"edges\":" + std::to_string(e.edges) +
            ",\"components\":" + std::to_string(e.components) +
            ",\"pinned\":" + std::to_string(e.pinned) +
            ",\"backend\":" + obs::json_quote(e.backend) +
            ",\"bytes_mapped\":" + std::to_string(e.bytes_mapped) +
            ",\"load_ms\":" + fmt_ms(e.load_ms) +
            ",\"resident_bytes\":" + std::to_string(e.resident_bytes) + "}";
  }
  data += "]}";
  respond_envelope(respond, id, "list", Status::Ok(), data);
}

void QueryService::handle_cancel(const Json& request,
                                 const ResponseFn& respond) {
  const std::string id = request.get_string("id", "");
  const std::string target = request.get_string("target", "");
  bool found = false;
  {
    std::lock_guard lock(mutex_);
    const auto it = live_.find(target);
    if (it != live_.end()) {
      it->second->token->cancel();
      found = true;
    }
  }
  // Unknown target is OK, not an error: the query may have just completed —
  // cancel is inherently racy and idempotent from the client's view.
  respond_envelope(respond, id, "cancel", Status::Ok(),
                   std::string("{\"found\":") + (found ? "true" : "false") +
                       "}");
}

void QueryService::handle_healthz(const Json& request,
                                  const ResponseFn& respond) {
  const std::string id = request.get_string("id", "");
  const Stats s = stats();
  std::string data =
      "{\"ok\":true,\"graphs\":" + std::to_string(catalog_.size()) +
      ",\"queued\":" + std::to_string(s.queued) +
      ",\"active\":" + std::to_string(s.active) +
      ",\"admitted\":" + std::to_string(s.admitted) +
      ",\"served\":" + std::to_string(s.served) +
      ",\"rejected\":" + std::to_string(s.rejected) +
      ",\"overloaded\":" + std::to_string(s.overloaded) +
      ",\"cancelled\":" + std::to_string(s.cancelled) +
      ",\"batched\":" + std::to_string(s.batched) + "}";
  respond_envelope(respond, id, "healthz", Status::Ok(), data);
}

void QueryService::submit_query(const Json& request, std::uint64_t client,
                                ResponseFn respond) {
  std::string id = request.get_string("id", "");
  const auto reject = [&](StatusCode code, const std::string& message) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    if (code == StatusCode::kResourceExhausted) {
      overloaded_.fetch_add(1, std::memory_order_relaxed);
    }
    if (obs::kCompiledIn) obs::counter("serve/rejected").increment();
    respond_envelope(respond, id, "query", Status(code, message), "");
  };

  // Field shape checks first: a present-but-mistyped field must reject, not
  // silently fall back to a default.
  if (request.has_wrong_type("graph", Json::Type::kString) ||
      request.has_wrong_type("algo", Json::Type::kString) ||
      request.has_wrong_type("id", Json::Type::kString) ||
      request.has_wrong_type("budget_ms", Json::Type::kNumber) ||
      request.has_wrong_type("pause_ms", Json::Type::kNumber) ||
      request.has_wrong_type("verify", Json::Type::kBool)) {
    reject(StatusCode::kInvalidArgument,
           "mistyped field (graph/algo/id: string, budget_ms/pause_ms: "
           "number, verify: bool)");
    return;
  }

  const std::string graph = request.get_string("graph", "");
  if (graph.empty()) {
    reject(StatusCode::kInvalidArgument,
           "query needs a 'graph' field naming a loaded snapshot");
    return;
  }
  SnapshotPtr snapshot = catalog_.get(graph);
  if (snapshot == nullptr) {
    reject(StatusCode::kInvalidArgument,
           "graph '" + graph + "' is not loaded (op:load first)");
    return;
  }

  const std::string algo = request.get_string("algo", "auto");
  const MstAlgorithm* entry = nullptr;
  if (algo != "auto") {
    entry = find_mst_algorithm(algo);
    if (entry == nullptr) {
      reject(StatusCode::kInvalidArgument,
             "unknown algorithm '" + algo + "' (auto | " +
                 mst_algorithm_names() + ")");
      return;
    }
  }

  double budget_ms = -1;
  if (const Json* b = request.find("budget_ms"); b != nullptr && !b->is_null()) {
    budget_ms = b->as_number();
    // 0 is rejected rather than interpreted: historically "--deadline-ms 0"
    // meant "no deadline", and a budget of zero is also a nonsensical ask.
    // Omit the field (or send null) for "no budget".
    if (budget_ms <= 0) {
      reject(StatusCode::kInvalidArgument,
             "budget_ms must be > 0; omit the field for no budget");
      return;
    }
  }
  double pause_ms = request.get_number("pause_ms", 0);
  if (pause_ms < 0 || pause_ms > kMaxPauseMs) {
    reject(StatusCode::kInvalidArgument, "pause_ms must be in [0, 60000]");
    return;
  }

  auto job = std::make_shared<QueryJob>();
  if (id.empty()) {
    id = "q" + std::to_string(next_id_.fetch_add(1, std::memory_order_relaxed));
  }
  job->id = id;
  job->client = client;
  job->respond = std::move(respond);
  job->snapshot = std::move(snapshot);
  job->algo = algo;
  job->entry = entry;
  job->budget_ms = budget_ms;
  job->pause_ms = pause_ms;
  job->verify = request.get_bool("verify", false);

  {
    std::lock_guard lock(mutex_);
    if (stopping_) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      respond_envelope(job->respond, id, "query",
                       Status(StatusCode::kCancelled, "service shutting down"),
                       "");
      return;
    }
    if (queue_.size() >= options_.queue_depth) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      overloaded_.fetch_add(1, std::memory_order_relaxed);
      if (obs::kCompiledIn) obs::counter("serve/overloaded").increment();
      respond_envelope(
          job->respond, id, "query",
          Status(StatusCode::kResourceExhausted,
                 "overloaded: queue depth " +
                     std::to_string(options_.queue_depth) +
                     " reached; retry with backoff"),
          "");
      return;
    }
    if (live_.count(id) != 0) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      respond_envelope(job->respond, id, "query",
                       Status(StatusCode::kInvalidArgument,
                              "query id '" + id + "' is already in flight"),
                       "");
      return;
    }
    queue_.push_back(job);
    live_[id] = job;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  if (obs::kCompiledIn) obs::counter("serve/admitted").increment();
  cv_.notify_one();
}

void QueryService::disconnect_client(std::uint64_t client) {
  if (client == 0) return;
  std::lock_guard lock(mutex_);
  for (auto& [id, job] : live_) {
    if (job->client == client) job->token->cancel();
  }
}

std::vector<QueryService::JobPtr> QueryService::claim_batch() {
  std::lock_guard lock(mutex_);
  std::vector<JobPtr> batch;
  if (queue_.empty()) return batch;
  batch.push_back(queue_.front());
  queue_.pop_front();
  // Claim same-snapshot followers (in queue order, skipping others) up to
  // batch_max: one graph per dispatch keeps that snapshot hot in cache.
  const std::size_t cap = options_.batch_max == 0 ? 1 : options_.batch_max;
  for (auto it = queue_.begin(); it != queue_.end() && batch.size() < cap;) {
    if ((*it)->snapshot == batch.front()->snapshot) {
      batch.push_back(*it);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return batch;
}

std::size_t QueryService::drain_one(ThreadPool* pool) {
  const std::vector<JobPtr> batch = claim_batch();
  if (batch.empty()) return 0;
  if (batch.size() > 1) {
    batched_.fetch_add(batch.size(), std::memory_order_relaxed);
    if (obs::kCompiledIn) {
      obs::counter("serve/batched_queries").add(batch.size());
    }
  }
  for (const JobPtr& job : batch) {
    active_.fetch_add(1, std::memory_order_relaxed);
    execute(job, batch.size(), pool);
    active_.fetch_sub(1, std::memory_order_relaxed);
    {
      std::lock_guard lock(mutex_);
      const auto it = live_.find(job->id);
      if (it != live_.end() && it->second == job) live_.erase(it);
    }
  }
  return batch.size();
}

void QueryService::worker_loop() {
  // One persistent pool per worker: queries are cheap to contextualize, the
  // pool's threads are not.  Each query still gets a fresh RunContext
  // attached to this pool.
  ThreadPool pool(options_.threads_per_query == 0 ? 1
                                                  : options_.threads_per_query);
  while (true) {
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
    }
    // claim_batch() may lose the race to a sibling and run nothing; the
    // wait predicate re-arms either way.
    drain_one(&pool);
  }
}

void QueryService::execute(const JobPtr& job, std::size_t batch_size,
                           ThreadPool* pool) {
  const double queue_ms = ms_since(job->enqueued);
  const CsrGraph& g = job->snapshot->graph;

  RunContext ctx;
  if (pool != nullptr) ctx.attach_pool(*pool);
  ctx.set_cancel(job->token.get());
  if (job->budget_ms > 0) ctx.set_deadline_ms(job->budget_ms);
  ctx.seed_components(g, job->snapshot->components);

  Status status = Status::Ok();
  obs::RunInfo info;
  info.tool = "llpmstd";
  info.algorithm = job->algo;
  info.threads = ctx.threads();
  info.vertices = g.num_vertices();
  info.edges = g.num_edges();

  MstResult result;
  bool have_result = false;
  std::string verified = "null";
  const Clock::time_point start = Clock::now();

  // The serve-side failpoint: a chaos spec can fault the dispatch itself
  // (distinct from faults inside the algorithms), exercising the
  // "one request degrades, the process survives" contract end to end.
  if (LLPMST_FAILPOINT("serve/execute") != fail::Action::kNone) {
    status = Status(StatusCode::kInjectedFault,
                    "injected fault at serve/execute");
    info.outcome = run_outcome_name(RunOutcome::kInjectedFault);
  } else {
    // Cancellable pre-run pause (tests/CI drive deterministic mid-flight
    // cancellation with it).  Polls the composed token, so a budget expiry
    // or client cancel ends the pause early with the right reason.
    const CancelToken* tok = ctx.cancel_token();
    if (job->pause_ms > 0) {
      const Clock::time_point pause_end =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(job->pause_ms));
      while (Clock::now() < pause_end) {
        if (tok != nullptr && tok->cancelled()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    if (job->token->cancelled()) {
      // The CLIENT cancelled before the algorithm started (while queued or
      // mid-pause) — a tiny graph would otherwise finish before the first
      // checkpoint poll and mask the cancellation with an "ok".  Only the
      // external token short-circuits here: an already-expired budget still
      // flows into the run so the portfolio's Kruskal fallback can answer.
      status = job->token->status();
      info.outcome = run_outcome_name(job->token->reason());
    } else {
      try {
        if (job->entry == nullptr) {
          AutoMstResult auto_result = minimum_spanning_forest(g, ctx);
          result = std::move(auto_result.result);
          have_result = true;
          info.algorithm = auto_result.algorithm;
          info.fallback_reason = auto_result.fallback_reason;
          info.outcome = run_outcome_name(result.stats.outcome);
          if (result.stats.outcome != RunOutcome::kOk) {
            status = outcome_status(result.stats.outcome);
          }
        } else {
          auto scope = ctx.obs_scope("serve/query");
          result = job->entry->run(g, ctx);
          have_result = true;
          info.algorithm = job->entry->name;
          info.outcome = run_outcome_name(result.stats.outcome);
          if (result.stats.outcome != RunOutcome::kOk) {
            status = outcome_status(result.stats.outcome);
          }
        }
      } catch (const std::exception& e) {
        status = Status(StatusCode::kInternal,
                        std::string("algorithm threw: ") + e.what());
        info.outcome = "internal_error";
      } catch (...) {
        status =
            Status(StatusCode::kInternal, "algorithm threw a non-exception");
        info.outcome = "internal_error";
      }
    }
  }
  info.wall_ms = ms_since(start);

  if (status.ok() && have_result && job->verify) {
    // O(n+m) shape/spanning check (not full minimality — that is a test-
    // suite tool, too slow to run per query at service scale).
    const VerifyResult v = verify_spanning_forest(g, result, ctx);
    verified = v.ok ? "true" : "false";
    if (!v.ok) {
      status = Status(StatusCode::kInternal, "verification failed: " + v.error);
    }
  }

  if (status.code() == StatusCode::kCancelled) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    if (obs::kCompiledIn) obs::counter("serve/cancelled").increment();
  }

  // Response: always a full run report (even for faulted/cancelled runs —
  // partial stats are exactly what an operator wants to see), with the
  // request section spliced in as the last object member.
  std::string report =
      obs::build_run_report(info, have_result ? &result.stats : nullptr);
  report.pop_back();  // trailing '}' — reopened to append "request"
  report += ",\"request\":{\"id\":" + obs::json_quote(job->id);
  report += ",\"graph\":" + obs::json_quote(job->snapshot->name);
  report += ",\"algo\":" + obs::json_quote(job->algo);
  report += ",\"status\":";
  report += status.ok() ? "\"ok\"" : "\"error\"";
  report += ",\"error\":" + error_json(status);
  report += ",\"queue_ms\":" + fmt_ms(queue_ms);
  report += ",\"batch\":" + std::to_string(batch_size);
  report += ",\"verified\":" + verified;
  report += "}}";

  served_.fetch_add(1, std::memory_order_relaxed);
  if (obs::kCompiledIn) obs::counter("serve/served").increment();
  job->respond(report);
}

void QueryService::shutdown() {
  std::vector<JobPtr> orphaned;
  {
    std::lock_guard lock(mutex_);
    if (stopping_ && workers_.empty() && queue_.empty()) return;
    stopping_ = true;
    orphaned.assign(queue_.begin(), queue_.end());
    queue_.clear();
    for (auto& [id, job] : live_) job->token->cancel();
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  for (const JobPtr& job : orphaned) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    respond_envelope(job->respond, job->id, "query",
                     Status(StatusCode::kCancelled,
                            "service shut down before the query ran"),
                     "");
    std::lock_guard lock(mutex_);
    const auto it = live_.find(job->id);
    if (it != live_.end() && it->second == job) live_.erase(it);
  }
}

QueryService::Stats QueryService::stats() const {
  Stats s;
  {
    std::lock_guard lock(mutex_);
    s.queued = queue_.size();
  }
  s.active = active_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.overloaded = overloaded_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.batched = batched_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace llpmst::serve
