// Tests for the serving layer (src/serve/): the JSON wire parser, the
// snapshot catalog's refcount lifetime, and the query service's admission,
// queueing, batching, deadline, cancellation, and fault-degradation
// contracts, and the per-query reports' isolation.  Everything here drives
// QueryService directly (no sockets) —
// the socket framing is exercised end to end by the CI service job through
// tools/llpmstd_client.py.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/run_context.hpp"
#include "graph/io/binary_csr.hpp"
#include "graph/storage.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/catalog.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "support/cancel.hpp"
#include "support/failpoint.hpp"

namespace llpmst::serve {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(ServeJson, ParsesScalarsObjectsAndArrays) {
  Json doc;
  std::string error;
  ASSERT_TRUE(parse_json(
      R"({"op":"query","budget_ms":1.5,"verify":true,"tags":[1,-2,3e2],)"
      R"("note":null,"nested":{"k":"v"}})",
      &doc, &error))
      << error;
  EXPECT_EQ(doc.get_string("op", ""), "query");
  EXPECT_DOUBLE_EQ(doc.get_number("budget_ms", 0), 1.5);
  EXPECT_TRUE(doc.get_bool("verify", false));
  ASSERT_NE(doc.find("tags"), nullptr);
  ASSERT_EQ(doc.find("tags")->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(doc.find("tags")->as_array()[2].as_number(), 300.0);
  EXPECT_TRUE(doc.find("note")->is_null());
  EXPECT_EQ(doc.find("nested")->get_string("k", ""), "v");
}

TEST(ServeJson, DecodesEscapesAndSurrogatePairs) {
  Json doc;
  std::string error;
  ASSERT_TRUE(parse_json(R"({"s":"a\"b\\c\n\u0041\ud83d\ude00"})", &doc,
                         &error))
      << error;
  EXPECT_EQ(doc.get_string("s", ""), "a\"b\\c\nA\xF0\x9F\x98\x80");
}

TEST(ServeJson, RejectsMalformedInput) {
  Json doc;
  std::string error;
  for (const char* bad :
       {"", "{", "{\"a\":}", "[1,]", "{\"a\":1}trailing", "nul",
        "\"unterminated", "{\"a\" 1}", "01", "1.", "--1", "\"\\u12\"",
        "\"\\ud800\"", "\"raw\ncontrol\""}) {
    error.clear();
    EXPECT_FALSE(parse_json(bad, &doc, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ServeJson, RejectsOverDeepNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  Json doc;
  std::string error;
  EXPECT_FALSE(parse_json(deep, &doc, &error));
  EXPECT_NE(error.find("deep"), std::string::npos);
}

TEST(ServeJson, WrongTypeDetectionDrivesAdmission) {
  Json doc;
  std::string error;
  ASSERT_TRUE(parse_json(R"({"graph":7,"algo":"auto","absent":null})", &doc,
                         &error));
  EXPECT_TRUE(doc.has_wrong_type("graph", Json::Type::kString));
  EXPECT_FALSE(doc.has_wrong_type("algo", Json::Type::kString));
  EXPECT_FALSE(doc.has_wrong_type("absent", Json::Type::kString));  // null ok
  EXPECT_FALSE(doc.has_wrong_type("missing", Json::Type::kString));
}

// ----------------------------------------------------------- CancelToken --

TEST(CancelToken, ObserveForwardsParentCancellationWithReason) {
  CancelToken parent;
  CancelToken child;
  child.set_deadline_after_ms(60'000);  // far future: not the trigger
  child.observe(&parent);
  EXPECT_FALSE(child.cancelled());
  parent.cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_EQ(child.reason(), RunOutcome::kCancelled);
  // Latched: detaching the parent afterwards does not un-cancel.
  child.observe(nullptr);
  EXPECT_TRUE(child.cancelled());
}

TEST(CancelToken, RunContextComposesDeadlineAndExternalCancel) {
  RunContext ctx;
  CancelToken external;
  ctx.set_cancel(&external);
  ctx.set_deadline_ms(60'000);
  const CancelToken* polled = ctx.cancel_token();
  ASSERT_NE(polled, nullptr);
  EXPECT_FALSE(polled->cancelled());
  // A mid-run external cancel must surface through the polled (deadline)
  // token — this is what lets a served query stop when its client leaves.
  external.cancel();
  EXPECT_TRUE(polled->cancelled());
  EXPECT_EQ(polled->reason(), RunOutcome::kCancelled);
  EXPECT_TRUE(ctx.user_cancelled());
}

// ---------------------------------------------------------------- Catalog --

TEST(GraphCatalog, LoadsListsAndRejectsDuplicatesAndJunk) {
  GraphCatalog catalog;
  Expected<SnapshotPtr> road = catalog.load("road", "road:16", 1);
  ASSERT_TRUE(road.ok()) << road.status().to_string();
  EXPECT_EQ((*road)->graph.num_vertices(), 256u);
  EXPECT_EQ((*road)->components, 1u);

  EXPECT_FALSE(catalog.load("road", "road:16", 1).ok());  // duplicate
  EXPECT_FALSE(catalog.load("bad name!", "road:16", 1).ok());
  EXPECT_FALSE(catalog.load("x", "scenario:no-such-scenario", 1).ok());
  EXPECT_FALSE(catalog.load("x", "rmat:16x", 1).ok());  // trailing junk
  EXPECT_FALSE(catalog.load("x", "/no/such/file.gr", 1).ok());

  ASSERT_TRUE(catalog.load("forest", "scenario:forest-many-components", 7).ok());
  const auto entries = catalog.list();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "road");
  EXPECT_EQ(entries[1].name, "forest");
  EXPECT_GT(entries[1].components, 1u);
}

TEST(GraphCatalog, BinfileSourceMountsSnapshotWithLoadStats) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("llpmst_serve_binfile_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string file = (dir / "road.llpmstb").string();

  GraphCatalog catalog;
  ASSERT_TRUE(catalog.load("built", "road:16", 1).ok());
  ASSERT_TRUE(write_binary_csr(file, catalog.get("built")->graph).ok());

  Expected<SnapshotPtr> mounted = catalog.load("mounted", "binfile:" + file, 1);
  ASSERT_TRUE(mounted.ok()) << mounted.status().to_string();
  EXPECT_STREQ((*mounted)->backend, "mmap");
  EXPECT_GT((*mounted)->bytes_mapped, 0u);
  // Same graph either way: the mount is the built snapshot, bit for bit.
  EXPECT_EQ((*mounted)->graph.num_edges(),
            catalog.get("built")->graph.num_edges());
  EXPECT_EQ((*mounted)->components, catalog.get("built")->components);

  const auto entries = catalog.list();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_STREQ(entries[0].backend, "heap");
  EXPECT_EQ(entries[0].bytes_mapped, 0u);
  EXPECT_STREQ(entries[1].backend, "mmap");
  EXPECT_GT(entries[1].bytes_mapped, 0u);
  EXPECT_LE(entries[1].resident_bytes, entries[1].bytes_mapped);
  EXPECT_GE(entries[1].load_ms, 0.0);

  // A bad snapshot path is an admission error, not an abort.
  EXPECT_FALSE(catalog.load("x", "binfile:/no/such.llpmstb", 1).ok());
  std::filesystem::remove_all(dir);
}

TEST(GraphCatalog, UnloadKeepsSnapshotAliveForHolders) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.load("g", "er:256", 3).ok());
  SnapshotPtr held = catalog.get("g");
  ASSERT_NE(held, nullptr);
  const std::size_t vertices = held->graph.num_vertices();

  Expected<std::size_t> pinned = catalog.unload("g");
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(*pinned, 1u);  // our `held` reference
  EXPECT_EQ(catalog.get("g"), nullptr);
  EXPECT_EQ(catalog.size(), 0u);

  // The held snapshot is still fully usable after the unload — queries in
  // flight when an operator unloads a graph finish against the old data.
  EXPECT_EQ(held->graph.num_vertices(), vertices);
  EXPECT_FALSE(catalog.unload("g").ok());  // double unload: unknown name

  // The name is reusable immediately, even while the ghost lives on.
  ASSERT_TRUE(catalog.load("g", "er:128", 3).ok());
  EXPECT_NE(catalog.get("g")->graph.num_vertices(), vertices);
}

// ---------------------------------------------------------------- Service --

/// Collects responses from QueryService (thread-safe; handle() may respond
/// from a worker).
struct Sink {
  std::mutex mutex;
  std::vector<std::string> lines;
  ResponseFn fn() {
    return [this](const std::string& line) {
      std::lock_guard lock(mutex);
      lines.push_back(line);
    };
  }
  std::size_t count() {
    std::lock_guard lock(mutex);
    return lines.size();
  }
  /// Waits until `n` responses arrived (worker-delivered ones are async).
  bool wait_for(std::size_t n, int timeout_ms = 10'000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (count() < n) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }
  Json parsed(std::size_t i) {
    std::lock_guard lock(mutex);
    Json doc;
    std::string error;
    EXPECT_TRUE(parse_json(lines.at(i), &doc, &error)) << error;
    return doc;
  }
};

std::string request_status(const Json& report) {
  const Json* req = report.find("request");
  return req == nullptr ? "<no-request>" : req->get_string("status", "");
}

std::string error_code(const Json& doc) {
  const Json* err = doc.find("error");
  if (err == nullptr && doc.find("request") != nullptr) {
    err = doc.find("request")->find("error");
  }
  return err == nullptr || err->is_null() ? "<none>"
                                          : err->get_string("code", "");
}

TEST(QueryService, AdmissionRejectsStructuredErrors) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.load("road", "road:16", 1).ok());
  ASSERT_TRUE(
      catalog.load("forest", "scenario:forest-many-components", 1).ok());
  ServiceOptions options;
  options.start_workers = false;
  QueryService service(catalog, options);
  Sink sink;

  service.handle("this is not json", 0, sink.fn());
  service.handle(R"({"op":"frobnicate"})", 0, sink.fn());
  service.handle(R"({"op":"query","graph":"nope"})", 0, sink.fn());
  service.handle(R"({"op":"query","graph":"road","algo":"nope"})", 0,
                 sink.fn());
  service.handle(R"({"op":"query","graph":"road","budget_ms":0})", 0,
                 sink.fn());
  service.handle(R"({"op":"query","graph":"road","budget_ms":-3})", 0,
                 sink.fn());
  service.handle(R"({"op":"query","graph":7})", 0, sink.fn());

  ASSERT_EQ(sink.count(), 7u);  // all rejected synchronously
  for (std::size_t i = 0; i < 7; ++i) {
    const Json doc = sink.parsed(i);
    EXPECT_EQ(doc.get_string("status", ""), "error") << i;
    EXPECT_EQ(error_code(doc), "INVALID_ARGUMENT") << i;
  }
  EXPECT_EQ(service.stats().rejected, 7u);
  EXPECT_EQ(service.stats().admitted, 0u);

  // Every entry returns the forest, so "prim" on a many-component graph is
  // admitted and answers with the forest.
  service.handle(R"({"op":"query","graph":"forest","algo":"prim"})", 0,
                 sink.fn());
  EXPECT_EQ(service.drain_one(), 1u);
  ASSERT_EQ(sink.count(), 8u);
  EXPECT_EQ(request_status(sink.parsed(7)), "ok");
}

TEST(QueryService, QueueFullRejectsOverloaded) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.load("g", "road:8", 1).ok());
  ServiceOptions options;
  options.start_workers = false;  // nothing drains: fill deterministically
  options.queue_depth = 2;
  QueryService service(catalog, options);
  Sink sink;

  service.handle(R"({"op":"query","graph":"g","id":"a"})", 0, sink.fn());
  service.handle(R"({"op":"query","graph":"g","id":"b"})", 0, sink.fn());
  EXPECT_EQ(sink.count(), 0u);  // both queued, no responses yet
  service.handle(R"({"op":"query","graph":"g","id":"c"})", 0, sink.fn());
  ASSERT_EQ(sink.count(), 1u);
  const Json doc = sink.parsed(0);
  EXPECT_EQ(doc.get_string("status", ""), "error");
  EXPECT_EQ(error_code(doc), "RESOURCE_EXHAUSTED");
  EXPECT_NE(doc.find("error")->get_string("message", "").find("overloaded"),
            std::string::npos);
  EXPECT_EQ(service.stats().overloaded, 1u);
  EXPECT_EQ(service.stats().queued, 2u);

  // Draining frees capacity; the same query is admitted afterwards.
  EXPECT_EQ(service.drain_one(), 2u);  // same-snapshot pair batches
  service.handle(R"({"op":"query","graph":"g","id":"c"})", 0, sink.fn());
  EXPECT_EQ(service.stats().queued, 1u);
  service.shutdown();
}

TEST(QueryService, SameSnapshotQueriesBatchUpToCap) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.load("a", "road:8", 1).ok());
  ASSERT_TRUE(catalog.load("b", "er:64", 1).ok());
  ServiceOptions options;
  options.start_workers = false;
  options.batch_max = 3;
  QueryService service(catalog, options);
  Sink sink;

  // Interleaved arrivals: a a b a a.  First dispatch must claim three a's
  // (cap), skipping the b parked between them.
  for (const char* line :
       {R"({"op":"query","graph":"a","id":"a1"})",
        R"({"op":"query","graph":"a","id":"a2"})",
        R"({"op":"query","graph":"b","id":"b1"})",
        R"({"op":"query","graph":"a","id":"a3"})",
        R"({"op":"query","graph":"a","id":"a4"})"}) {
    service.handle(line, 0, sink.fn());
  }
  EXPECT_EQ(service.drain_one(), 3u);
  ASSERT_EQ(sink.count(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const Json doc = sink.parsed(i);
    EXPECT_EQ(doc.find("request")->get_string("id", "").front(), 'a');
    EXPECT_DOUBLE_EQ(doc.find("request")->get_number("batch", 0), 3);
  }
  EXPECT_EQ(service.stats().batched, 3u);
  // Next dispatch: b1 leads, a4 does not share its snapshot.
  EXPECT_EQ(service.drain_one(), 1u);
  EXPECT_EQ(sink.parsed(3).find("request")->get_string("id", ""), "b1");
  EXPECT_EQ(service.drain_one(), 1u);
  EXPECT_EQ(service.drain_one(), 0u);  // drained dry
  service.shutdown();
}

TEST(QueryService, BudgetExpiryFallsBackToKruskalInReport) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.load("g", "rmat:10", 1).ok());
  ServiceOptions options;
  options.start_workers = false;
  QueryService service(catalog, options);
  Sink sink;

  // A microscopic budget: the portfolio's parallel attempt expires and the
  // sequential Kruskal fallback produces the result — the report must say
  // both (fallback_reason) and still be an "ok" response.  A dense,
  // disconnected graph on a 2-thread pool steers auto to llp-boruvka.
  ThreadPool pool(2);
  service.handle(
      R"({"op":"query","graph":"g","algo":"auto","budget_ms":0.01})", 0,
      sink.fn());
  ASSERT_EQ(service.drain_one(&pool), 1u);
  const Json doc = sink.parsed(0);
  EXPECT_EQ(request_status(doc), "ok");
  const Json* run = doc.find("run");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->get_string("algorithm", ""), "kruskal");
  EXPECT_EQ(run->get_string("fallback_reason", ""), "deadline_exceeded");
  service.shutdown();
}

TEST(QueryService, MidFlightCancelStopsAPausedQuery) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.load("g", "road:8", 1).ok());
  ServiceOptions options;
  options.workers = 1;
  QueryService service(catalog, options);
  Sink sink;

  service.handle(R"({"op":"query","graph":"g","id":"slow","pause_ms":8000})",
                 0, sink.fn());
  // Let the worker pick it up, then cancel mid-pause.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Sink control;
  service.handle(R"({"op":"cancel","target":"slow"})", 0, control.fn());
  ASSERT_TRUE(control.wait_for(1));
  EXPECT_EQ(control.parsed(0).get_string("status", ""), "ok");

  ASSERT_TRUE(sink.wait_for(1));  // long before the 8 s pause would end
  const Json doc = sink.parsed(0);
  EXPECT_EQ(request_status(doc), "error");
  EXPECT_EQ(error_code(doc), "CANCELLED");
  EXPECT_GE(service.stats().cancelled, 1u);
  service.shutdown();
}

TEST(QueryService, DisconnectCancelsThatClientsQueriesOnly) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.load("g", "road:8", 1).ok());
  ServiceOptions options;
  options.workers = 2;
  QueryService service(catalog, options);
  Sink gone, stays;

  service.handle(R"({"op":"query","graph":"g","id":"x","pause_ms":8000})",
                 /*client=*/7, gone.fn());
  service.handle(R"({"op":"query","graph":"g","id":"y","pause_ms":300})",
                 /*client=*/8, stays.fn());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.disconnect_client(7);

  ASSERT_TRUE(gone.wait_for(1));
  EXPECT_EQ(error_code(gone.parsed(0)), "CANCELLED");
  ASSERT_TRUE(stays.wait_for(1));
  EXPECT_EQ(request_status(stays.parsed(0)), "ok");
  service.shutdown();
}

TEST(QueryService, ShutdownRespondsToQueuedQueries) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.load("g", "road:8", 1).ok());
  ServiceOptions options;
  options.start_workers = false;
  QueryService service(catalog, options);
  Sink sink;
  service.handle(R"({"op":"query","graph":"g","id":"q"})", 0, sink.fn());
  service.shutdown();
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_EQ(error_code(sink.parsed(0)), "CANCELLED");
  // Post-shutdown queries are turned away, never silently dropped.
  service.handle(R"({"op":"query","graph":"g","id":"late"})", 0, sink.fn());
  ASSERT_EQ(sink.count(), 2u);
  EXPECT_EQ(error_code(sink.parsed(1)), "CANCELLED");
}

TEST(QueryService, InjectedFaultDegradesOneRequestNotTheService) {
  if (!fail::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out (LLPMST_FAILPOINTS=0)";
  }
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.load("g", "road:8", 1).ok());
  ServiceOptions options;
  options.start_workers = false;
  QueryService service(catalog, options);
  Sink sink;

  std::string fp_error;
  ASSERT_EQ(fail::configure("serve/execute=1*return", &fp_error), 1u)
      << fp_error;
  service.handle(R"({"op":"query","graph":"g","id":"f1"})", 0, sink.fn());
  service.handle(R"({"op":"query","graph":"g","id":"f2"})", 0, sink.fn());
  EXPECT_EQ(service.drain_one(), 2u);
  fail::disarm_all();

  ASSERT_EQ(sink.count(), 2u);
  const Json faulted = sink.parsed(0);
  EXPECT_EQ(request_status(faulted), "error");
  EXPECT_EQ(error_code(faulted), "INJECTED_FAULT");
  EXPECT_EQ(faulted.find("run")->get_string("outcome", ""), "injected_fault");
  // The very next query on the same snapshot succeeds: the fault degraded
  // one request, not the snapshot, the worker, or the process.
  EXPECT_EQ(request_status(sink.parsed(1)), "ok");
  service.shutdown();
}

TEST(QueryService, ControlOpsRoundTrip) {
  GraphCatalog catalog;
  ServiceOptions options;
  options.start_workers = false;
  QueryService service(catalog, options);
  Sink sink;

  service.handle(R"({"op":"load","name":"g","source":"er:128","seed":5})", 0,
                 sink.fn());
  service.handle(R"({"op":"list"})", 0, sink.fn());
  service.handle(R"({"op":"healthz"})", 0, sink.fn());
  service.handle(R"({"op":"unload","name":"g"})", 0, sink.fn());
  service.handle(R"({"op":"unload","name":"g"})", 0, sink.fn());
  ASSERT_EQ(sink.count(), 5u);
  EXPECT_EQ(sink.parsed(0).get_string("status", ""), "ok");
  const Json list = sink.parsed(1);
  ASSERT_NE(list.find("data"), nullptr);
  EXPECT_EQ(list.find("data")->find("graphs")->as_array().size(), 1u);
  EXPECT_TRUE(sink.parsed(2).find("data")->get_bool("ok", false));
  EXPECT_EQ(sink.parsed(3).get_string("status", ""), "ok");
  EXPECT_EQ(sink.parsed(4).get_string("status", ""), "error");  // gone
}

// ------------------------------------------------- Per-query reports --

/// The labels of a report's rounds and the (name, count) of its phases.
struct ReportRecords {
  std::vector<std::string> round_labels;
  std::vector<std::pair<std::string, double>> phases;
};

ReportRecords records_of(const Json& report) {
  ReportRecords r;
  for (const Json& round : report.find("rounds")->as_array()) {
    r.round_labels.push_back(round.get_string("label", ""));
  }
  for (const Json& phase : report.find("phases")->as_array()) {
    r.phases.emplace_back(phase.get_string("name", ""),
                          phase.get_number("count", 0));
  }
  return r;
}

/// Turns phase/round recording on for one test (llpmstd always runs so).
struct ObsOn {
  ObsOn() { obs::set_enabled(true); }
  ~ObsOn() { obs::set_enabled(false); }
};

TEST(QueryService, SequentialQueriesReportOnlyThemselves) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const ObsOn obs_on;
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.load("road", "road:32", 1).ok());
  ServiceOptions options;
  options.start_workers = false;
  QueryService service(catalog, options);
  Sink sink;
  for (int i = 0; i < 3; ++i) {
    service.handle(R"({"op":"query","graph":"road","algo":"llp-boruvka"})",
                   0, sink.fn());
    ASSERT_EQ(service.drain_one(), 1u);
  }
  ASSERT_EQ(sink.count(), 3u);
  const ReportRecords first = records_of(sink.parsed(0));
  ASSERT_FALSE(first.round_labels.empty());
  ASSERT_FALSE(first.phases.empty());
  for (std::size_t i = 1; i < 3; ++i) {
    const ReportRecords later = records_of(sink.parsed(i));
    EXPECT_EQ(later.round_labels.size(), first.round_labels.size()) << i;
    EXPECT_EQ(later.phases, first.phases) << "report " << i
                                          << " is cumulative";
  }
  service.shutdown();
}

TEST(QueryService, ConcurrentQueriesReportDisjointRecords) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const ObsOn obs_on;
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.load("road", "road:64", 1).ok());
  ASSERT_TRUE(catalog.load("web", "rmat:11", 1).ok());
  ServiceOptions options;
  options.workers = 2;
  options.threads_per_query = 2;  // team workers record for the query too
  QueryService service(catalog, options);
  Sink boruvka, prim;
  // The pause lets both workers claim their query before either solves.
  service.handle(
      R"({"op":"query","graph":"road","algo":"llp-boruvka","pause_ms":30})",
      0, boruvka.fn());
  service.handle(
      R"({"op":"query","graph":"web","algo":"llp-prim-parallel","pause_ms":30})",
      0, prim.fn());
  ASSERT_TRUE(boruvka.wait_for(1));
  ASSERT_TRUE(prim.wait_for(1));
  const auto check = [](const Json& report, const std::string& own,
                        const std::string& other) {
    EXPECT_EQ(request_status(report), "ok");
    const ReportRecords r = records_of(report);
    EXPECT_FALSE(r.round_labels.empty()) << own;
    for (const std::string& label : r.round_labels) {
      EXPECT_EQ(label, own);
    }
    bool saw_own = false;
    for (const auto& [name, count] : r.phases) {
      EXPECT_EQ(name.find(other), std::string::npos) << name;
      saw_own = saw_own || name.find(own) != std::string::npos;
    }
    EXPECT_TRUE(saw_own) << own;
  };
  check(boruvka.parsed(0), "llp_boruvka", "llp_prim_parallel");
  check(prim.parsed(0), "llp_prim_parallel", "llp_boruvka");
  service.shutdown();
}

TEST(QueryService, QueryAfterARoundHeavyQueryCarriesNoRounds) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const ObsOn obs_on;
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.load("road", "road:32", 1).ok());
  ASSERT_TRUE(catalog.load("web", "rmat:12", 1).ok());
  ServiceOptions options;
  options.start_workers = false;
  QueryService service(catalog, options);
  Sink sink;
  service.handle(R"({"op":"query","graph":"web","algo":"llp-prim-parallel"})",
                 0, sink.fn());
  ASSERT_EQ(service.drain_one(), 1u);
  service.handle(R"({"op":"query","graph":"road","algo":"kruskal"})", 0,
                 sink.fn());
  ASSERT_EQ(service.drain_one(), 1u);
  ASSERT_EQ(sink.count(), 2u);
  EXPECT_FALSE(sink.parsed(0).find("rounds")->as_array().empty());
  const Json road = sink.parsed(1);
  EXPECT_EQ(request_status(road), "ok");
  EXPECT_TRUE(road.find("rounds")->as_array().empty());
  EXPECT_TRUE(road.find("warnings")->as_array().empty());
  service.shutdown();
}

}  // namespace
}  // namespace llpmst::serve
