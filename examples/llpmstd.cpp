// llpmstd: the persistent MST/MSF query service.
//
//   llpmstd --socket /tmp/llpmst.sock --workers 2 --threads 2
//           --preload "road=scenario:road-baseline,big=rmat:16"
//
// A long-lived daemon over the library's serving layer (src/serve/):
// immutable graph snapshots in a catalog, admission-controlled queries on a
// bounded queue, per-query RunContexts with budgets and cancellation, and
// newline-delimited JSON on a unix or TCP socket ("GET /stats" and
// "GET /healthz" work too — same port, plain HTTP).  docs/serving.md is
// the protocol reference; tools/llpmstd_client.py is the reference client.
//
// Shutdown: SIGTERM/SIGINT stop the accept loop, cancel in-flight queries,
// flush cancelled responses, join everything, and exit 0 — CI asserts the
// clean exit.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/catalog.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "support/cli.hpp"
#include "support/failpoint.hpp"

namespace {

using namespace llpmst;

volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int) { g_stop = 1; }

/// "name=source[,name=source...]" — the --preload grammar.  Returns false
/// (with a message on stderr) on a malformed entry or a failed load.
bool preload(serve::GraphCatalog& catalog, const std::string& spec,
             std::uint64_t seed) {
  std::size_t start = 0;
  while (start < spec.size()) {
    auto end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == entry.size()) {
      std::fprintf(stderr, "bad --preload entry '%s' (want name=source)\n",
                   entry.c_str());
      return false;
    }
    const std::string name = entry.substr(0, eq);
    const std::string source = entry.substr(eq + 1);
    Expected<serve::SnapshotPtr> loaded = catalog.load(name, source, seed);
    if (!loaded.ok()) {
      std::fprintf(stderr, "preload '%s' failed: %s\n", entry.c_str(),
                   loaded.status().to_string().c_str());
      return false;
    }
    const serve::GraphSnapshot& s = **loaded;
    std::printf("loaded %-12s %-28s %zu vertices, %zu edges, %zu components\n",
                s.name.c_str(), s.source.c_str(), s.graph.num_vertices(),
                s.graph.num_edges(), s.components);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("llpmstd",
                "persistent MST/MSF query daemon (NDJSON over a unix/TCP "
                "socket; see docs/serving.md)");
  auto& socket_path = cli.add_string(
      "socket", "", "unix-domain socket path to listen on (preferred)");
  auto& host = cli.add_string("host", "127.0.0.1",
                              "TCP listen address (when --socket is unset)");
  auto& port =
      cli.add_int("port", 0, "TCP port (0 = ephemeral, printed at startup)");
  auto& preload_spec = cli.add_string(
      "preload", "",
      "graphs to load before serving: 'name=source,...' where source is "
      "scenario:NAME | road:SIDE | rmat:SCALE | er:VERTICES | file:PATH");
  auto& workers = cli.add_int("workers", 2, "serve-side query worker threads");
  auto& threads = cli.add_int(
      "threads", 1, "ThreadPool size each worker runs its queries on");
  auto& queue_depth = cli.add_int(
      "queue-depth", 64,
      "bounded request queue; beyond it queries are rejected 'overloaded'");
  auto& batch_max = cli.add_int(
      "batch-max", 4, "max same-graph queries one worker dispatch claims");
  auto& seed =
      cli.add_int("seed", 1, "seed for --preload generator/scenario sources");
  cli.parse(argc, argv);

  if (workers < 1 || threads < 1 || queue_depth < 1 || batch_max < 1) {
    std::fprintf(stderr,
                 "--workers/--threads/--queue-depth/--batch-max must be >= 1\n");
    return 2;
  }

  // The daemon is an observability citizen from the start: every query
  // records into its own run scope and answers with a report of that query
  // alone, while the daemon-wide serve/* counters surface on /stats.  In an
  // LLPMST_OBS=0 build this is a no-op and /stats still renders the
  // minimal valid document.
  obs::set_enabled(true);
  // Chaos comes from the environment only ($LLPMST_FAILPOINTS): a daemon
  // has no per-run CLI, and the per-request path must never arm global
  // failpoint state.
  const std::size_t armed = fail::configure_from_env();
  if (armed > 0) {
    std::printf("failpoints: %zu armed from LLPMST_FAILPOINTS\n", armed);
  }

  serve::GraphCatalog catalog;
  if (!preload_spec.empty() &&
      !preload(catalog, preload_spec, static_cast<std::uint64_t>(seed))) {
    return 2;
  }

  serve::ServiceOptions service_options;
  service_options.workers = static_cast<std::size_t>(workers);
  service_options.threads_per_query = static_cast<std::size_t>(threads);
  service_options.queue_depth = static_cast<std::size_t>(queue_depth);
  service_options.batch_max = static_cast<std::size_t>(batch_max);
  serve::QueryService service(catalog, service_options);

  serve::ServerOptions server_options;
  server_options.unix_path = socket_path;
  server_options.host = host;
  server_options.port = static_cast<int>(port);
  server_options.stop_flag = &g_stop;
  serve::SocketServer server(service, server_options);

  const Status listening = server.listen();
  if (!listening.ok()) {
    std::fprintf(stderr, "cannot listen: %s\n", listening.to_string().c_str());
    return 1;
  }
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGPIPE, SIG_IGN);

  if (!socket_path.empty()) {
    std::printf("llpmstd listening on %s (%d workers x %d threads, queue %d)\n",
                socket_path.c_str(), static_cast<int>(workers),
                static_cast<int>(threads), static_cast<int>(queue_depth));
  } else {
    std::printf("llpmstd listening on %s:%d (%d workers x %d threads, "
                "queue %d)\n",
                host.c_str(), server.bound_port(), static_cast<int>(workers),
                static_cast<int>(threads), static_cast<int>(queue_depth));
  }
  std::fflush(stdout);

  server.run();  // returns after SIGTERM/SIGINT (or stop()), fully drained

  const serve::QueryService::Stats s = service.stats();
  std::printf("llpmstd shut down cleanly: %llu admitted, %llu served, "
              "%llu rejected (%llu overloaded), %llu cancelled, %llu batched\n",
              static_cast<unsigned long long>(s.admitted),
              static_cast<unsigned long long>(s.served),
              static_cast<unsigned long long>(s.rejected),
              static_cast<unsigned long long>(s.overloaded),
              static_cast<unsigned long long>(s.cancelled),
              static_cast<unsigned long long>(s.batched));
  return 0;
}
