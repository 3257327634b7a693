// In-process runner for the benchmark's pipeline workloads.
//
//   pipeline --workload road-mounted|rmat-generated --seed N --seconds S
//            --work DIR [--trace 1] [--threads 2,1]
//            [--road-side 1024] [--rmat-scale 19]
//   pipeline --probe          (host-speed probe only)
//
// Each iteration is one pass of the pipeline: set-up (road-mounted mounts the
// snapshot packed beforehand; rmat-generated generates a fresh graph from
// the seed and builds its CSR), the census, auto + spanning verify at each
// --threads count, then auto with an expired budget (the fallback).
// Iterations repeat until --seconds of timed work (set-ups, forests and
// fallbacks) are done.  Every call into the library is timed from the
// outside: generators, CsrGraph::build and read_binary_csr
// (graph), the RunContext census (core), minimum_spanning_forest, registry
// entries and verify_spanning_forest (mst), with the stats each solve
// returns (llp) and process CPU time and context switches around each solve
// (parallel).  Every forest is checked against a sequential Filter-Kruskal
// oracle computed outside the timed parts; the expired-budget runs fall back
// to plain Kruskal, so the two Kruskal variants check each other on every
// graph.  Output is one JSON object per line ("kind" says which record);
// perfbench/run.py turns the records into metrics.  With --trace 1 every
// layer call is also recorded as a span (name, start, end, parent, rep),
// kept in memory and printed as "span" records when the run ends.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/run_context.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/generators/road.hpp"
#include "graph/io/binary_csr.hpp"
#include "mst/auto.hpp"
#include "mst/registry.hpp"
#include "mst/verifier.hpp"
#include "parallel/thread_pool.hpp"
#include "support/cli.hpp"

using namespace llpmst;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

// Iterations run even when --seconds is shorter, so every sample exists and
// set-up and the fallback have a median of at least three.
constexpr int kMinIterations = 3;

double now_ms() {
  return std::chrono::duration<double, std::milli>(Clock::now() - kEpoch)
      .count();
}

// ---------------------------------------------------------------- spans

struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int parent = -1;
  int rep = -1;
};

class Tracer {
 public:
  bool enabled = false;
  int rep = -1;

  int open(std::string name) {
    if (!enabled) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now_ms(), 0, parent, rep});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ms = now_ms();
    stack_.pop_back();
  }
  void print() const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::printf("{\"kind\":\"span\",\"id\":%zu,\"name\":\"%s\","
                  "\"start_ms\":%.6f,\"end_ms\":%.6f,\"parent\":%d,"
                  "\"rep\":%d}\n",
                  i, s.name.c_str(), s.start_ms, s.end_ms, s.parent, s.rep);
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer g_tracer;

class SpanScope {
 public:
  explicit SpanScope(std::string name)
      : id_(g_tracer.open(std::move(name))) {}
  ~SpanScope() { g_tracer.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int id_;
};

// ---------------------------------------------------------------- process

struct Usage {
  double cpu_ms = 0;
  long minflt = 0;
  long csw = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
              (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3,
          ru.ru_minflt, ru.ru_nvcsw + ru.ru_nivcsw};
}

long peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

// Resets VmHWM, so the peak reported leaves out the oracle and the snapshot
// packing, which are not part of the measured pipeline.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

// Two threads spin for `ms`; CPU time obtained over wall time tells a VM
// with two effective cores apart from one that time-slices them.
double spin_probe(double ms) {
  std::atomic<bool> stop{false};
  double cpu[2] = {0, 0};
  std::vector<std::thread> team;
  const double t0 = now_ms();
  for (int i = 0; i < 2; ++i) {
    team.emplace_back([&stop, &cpu, i] {
      timespec a{}, b{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &a);
      while (!stop.load(std::memory_order_relaxed)) {
      }
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &b);
      cpu[i] = (b.tv_sec - a.tv_sec) * 1e3 + (b.tv_nsec - a.tv_nsec) / 1e6;
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  stop = true;
  for (auto& t : team) t.join();
  return (cpu[0] + cpu[1]) / (now_ms() - t0);
}

// Single-threaded fixed work: the best of three sorts of the same 2^20
// pseudo-random keys.  Timed at the start and the end of a run, it shows
// whether the host's speed moved while the run measured.
double calibration_ms() {
  std::vector<std::uint64_t> keys(std::size_t{1} << 20);
  double best = 0;
  for (int round = 0; round < 3; ++round) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (auto& k : keys) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = x;
    }
    const double t0 = now_ms();
    std::sort(keys.begin(), keys.end());
    const double ms = now_ms() - t0;
    if (round == 0 || ms < best) best = ms;
  }
  return best;
}

// ---------------------------------------------------------------- checks

struct Oracle {
  std::vector<EdgeId> edges;
  TotalWeight weight = 0;
};

// Sequential Filter-Kruskal: the same forest as Kruskal (ties broken by edge
// id) at a fraction of its sort cost, which matters because rmat-generated
// needs a new oracle for every generated graph.
Oracle kruskal_oracle(const CsrGraph& g) {
  SpanScope s("mst.oracle_filter_kruskal");
  RunContext ctx;
  MstResult r = mst_algorithm("filter-kruskal").run(g, ctx);
  return {std::move(r.edges), r.total_weight};
}

bool matches(const MstResult& r, const Oracle& o) {
  return !r.weight_overflow && r.total_weight == o.weight && r.edges == o.edges;
}

// Swaps one forest edge for an edge outside the forest.  --tamper exists so
// the self-test can show that a wrong forest is counted as a failure.
void tamper(const CsrGraph& g, MstResult& r) {
  if (r.edges.empty() || g.num_edges() <= r.edges.size()) {
    r.total_weight += 1;
    return;
  }
  EdgeId e = 0;
  while (std::binary_search(r.edges.begin(), r.edges.end(), e)) ++e;
  r.edges[0] = e;
  std::sort(r.edges.begin(), r.edges.end());
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("pipeline", "benchmark runner for the pipeline workloads");
  auto& workload = cli.add_string("workload", "", "road-mounted | rmat-generated");
  auto& seed = cli.add_int("seed", 1, "generator seed");
  auto& seconds = cli.add_double("seconds", 10, "pipeline time to measure");
  auto& trace = cli.add_int("trace", 0, "1 = record spans and run layer probes");
  auto& work = cli.add_string("work", ".", "directory for the packed snapshot");
  auto& thread_list = cli.add_string("threads", "2,1",
                                     "thread counts each iteration solves at");
  auto& road_side = cli.add_int("road-side", 1024, "road grid side");
  auto& rmat_scale = cli.add_int("rmat-scale", 19, "rmat scale");
  auto& tamper_rep = cli.add_int("tamper", -1, "corrupt the forest of this rep");
  auto& tamper_fallback = cli.add_int(
      "tamper-fallback", -1, "run this iteration's fallback with no deadline");
  auto& probe = cli.add_bool("probe", false, "print the host-speed probe and exit");
  cli.parse(argc, argv);

  if (probe) {
    const double calib = calibration_ms();
    std::printf("{\"kind\":\"probe\",\"spin_2t_cores\":%.4f,"
                "\"calibration_ms\":%.4f}\n",
                spin_probe(200), calib);
    return 0;
  }
  const bool road = workload == "road-mounted";
  if (!road && workload != "rmat-generated") {
    std::fprintf(stderr, "unknown --workload '%s'\n", workload.c_str());
    return 2;
  }
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (int t : CliParser::parse_int_list(thread_list)) {
    if (t < 1) {
      std::fprintf(stderr, "--threads entries must be >= 1\n");
      return 2;
    }
    pools.push_back(std::make_unique<ThreadPool>(static_cast<std::size_t>(t)));
  }
  ThreadPool pool2(2);  // fallbacks and registry entries run at 2 threads
  g_tracer.enabled = trace != 0;

  // --- preparation, outside every timed part: road-mounted generates,
  // builds and packs its snapshot, and takes the oracle from that graph.
  const std::string snap = work + "/road-" + std::to_string(road_side) + "-" +
                           std::to_string(seed) + ".llpmstb";
  Oracle oracle;
  if (road) {
    SpanScope prepare("bench.prepare");
    RoadParams p;
    p.width = p.height = static_cast<std::uint32_t>(road_side);
    p.seed = static_cast<std::uint64_t>(seed);
    EdgeList list;
    {
      SpanScope s("graph.generate_road_network");
      list = generate_road_network(p);
    }
    CsrGraph heap;
    {
      SpanScope s("graph.CsrGraph::build");
      heap = CsrGraph::build(list);
    }
    const Status st = write_binary_csr(snap, heap);
    if (!st.ok()) {
      std::fprintf(stderr, "pack failed: %s\n", st.to_string().c_str());
      return 1;
    }
    oracle = kruskal_oracle(heap);
  }
  reset_peak_rss();
  long peak_kb = 0;  // over set-ups and solves; oracles excluded

  CsrGraph g;
  std::size_t census = 0;
  double measured_ms = 0;  // set-ups and forests: what ops_per_s divides by
  double timed_ms = 0;     // the same plus the fallbacks: the run's budget
  int rep = 0;
  for (int iter = 0; iter < kMinIterations || timed_ms < seconds * 1e3;
       ++iter) {
    g_tracer.enabled = trace != 0;
    g_tracer.rep = -1;

    // --- set-up: acquire to solve-ready, census included.
    g = CsrGraph();
    const Usage u0 = usage_now();
    const double t0 = now_ms();
    {
      SpanScope setup("bench.setup");
      if (road) {
        SpanScope s("graph.read_binary_csr");
        Expected<CsrGraph> mounted = read_binary_csr(snap);
        if (!mounted.ok()) {
          std::fprintf(stderr, "mount failed: %s\n",
                       mounted.status().to_string().c_str());
          return 1;
        }
        g = std::move(*mounted);
      } else {
        RmatParams p;
        p.scale = static_cast<int>(rmat_scale);
        p.seed = static_cast<std::uint64_t>(seed) * 1000 + iter;
        EdgeList list;
        {
          SpanScope s("graph.generate_rmat");
          list = generate_rmat(p);
        }
        SpanScope s("graph.CsrGraph::build");
        g = CsrGraph::build(list);
      }
      SpanScope s("core.num_components");
      RunContext ctx;
      census = ctx.num_components(g);
    }
    const double setup_ms = now_ms() - t0;
    measured_ms += setup_ms;
    timed_ms += setup_ms;
    std::printf("{\"kind\":\"setup\",\"iteration\":%d,\"total_ms\":%.6f,"
                "\"minflt\":%ld,\"vertices\":%zu,\"edges\":%zu,"
                "\"components\":%zu}\n",
                iter, setup_ms, usage_now().minflt - u0.minflt,
                g.num_vertices(), g.num_edges(), census);
    if (!road) {
      // Each generated graph gets its own oracle, outside the timed parts
      // and outside the reported peak.
      peak_kb = std::max(peak_kb, peak_rss_kb());
      SpanScope prepare("bench.prepare");
      oracle = kruskal_oracle(g);
      reset_peak_rss();
    }

    // --- auto + spanning verify at each thread count, on persistent pools,
    // with a fresh RunContext seeded with the census each time.  Under
    // --trace 1 every other solve runs with spans off; the traced/untraced
    // ratio of forest times is the tracing overhead.
    for (const auto& pool : pools) {
      const bool traced = trace != 0 && rep % 2 == 0;
      g_tracer.enabled = traced;
      g_tracer.rep = rep;
      SpanScope forest("bench.forest");
      RunContext ctx(*pool);
      ctx.seed_components(g, census);
      const Usage s0 = usage_now();
      double f0 = now_ms();
      AutoMstResult r;
      {
        SpanScope s("mst.minimum_spanning_forest");
        r = minimum_spanning_forest(g, ctx);
      }
      const double solve_ms = now_ms() - f0;
      const Usage s1 = usage_now();
      if (rep == tamper_rep) tamper(g, r.result);
      f0 = now_ms();
      bool verified = false;
      {
        SpanScope s("mst.verify_spanning_forest");
        verified = verify_spanning_forest(g, r.result, ctx).ok;
      }
      const double verify_ms = now_ms() - f0;
      measured_ms += solve_ms + verify_ms;
      timed_ms += solve_ms + verify_ms;
      const MstAlgoStats& st = r.result.stats;
      std::printf(
          "{\"kind\":\"rep\",\"rep\":%d,\"iteration\":%d,\"threads\":%zu,"
          "\"algorithm\":\"%s\",\"solve_ms\":%.6f,\"verify_ms\":%.6f,"
          "\"verified\":%s,\"oracle\":%s,\"traced\":%s,\"cpu_ms\":%.3f,"
          "\"csw\":%ld,\"llp_sweeps\":%llu,\"rounds\":%llu,"
          "\"edges_relaxed\":%llu,\"fixed_via_mwe\":%llu,"
          "\"fixed_via_heap\":%llu,\"heap_ops\":%llu}\n",
          rep, iter, pool->num_threads(), r.algorithm.c_str(), solve_ms,
          verify_ms, verified ? "true" : "false",
          matches(r.result, oracle) ? "true" : "false",
          traced ? "true" : "false", s1.cpu_ms - s0.cpu_ms, s1.csw - s0.csw,
          static_cast<unsigned long long>(st.llp_sweeps),
          static_cast<unsigned long long>(st.rounds),
          static_cast<unsigned long long>(st.edges_relaxed),
          static_cast<unsigned long long>(st.fixed_via_mwe),
          static_cast<unsigned long long>(st.fixed_via_heap),
          static_cast<unsigned long long>(st.heap.pushes + st.heap.pops +
                                          st.heap.adjusts));
      ++rep;
    }
    g_tracer.enabled = trace != 0;
    g_tracer.rep = -1;

    // --- auto with an already expired budget: the deadline fallback path,
    // on every iteration.  --tamper-fallback exists so the self-test can
    // show that a run which did not fall back is counted as a failure.
    {
      SpanScope fallback("bench.fallback");
      RunContext ctx(pool2);
      ctx.seed_components(g, census);
      if (iter != tamper_fallback) ctx.set_deadline_ms(1e-6);
      const double b0 = now_ms();
      AutoMstResult r;
      {
        SpanScope s("mst.minimum_spanning_forest");
        r = minimum_spanning_forest(g, ctx);
      }
      const double fallback_ms = now_ms() - b0;
      timed_ms += fallback_ms;
      std::printf("{\"kind\":\"fallback\",\"iteration\":%d,\"ms\":%.6f,"
                  "\"algorithm\":\"%s\",\"fell_back\":%s,\"oracle\":%s}\n",
                  iter, fallback_ms, r.algorithm.c_str(),
                  r.fell_back ? "true" : "false",
                  matches(r.result, oracle) ? "true" : "false");
    }
  }
  peak_kb = std::max(peak_kb, peak_rss_kb());

  // --- traced run only: each registry entry auto chooses among, once at
  // 2 threads on the last graph.  Tree-only entries abort on a disconnected
  // graph by contract, so they are skipped there.
  if (trace != 0) {
    for (const char* name : {"llp-prim", "llp-prim-parallel", "llp-boruvka",
                             "parallel-boruvka", "filter-kruskal", "kruskal"}) {
      const MstAlgorithm& a = mst_algorithm(name);
      if (census != 1 && !a.caps.msf_capable) continue;
      SpanScope entry("bench.entry");
      RunContext ctx(pool2);
      ctx.seed_components(g, census);
      const double e0 = now_ms();
      MstResult r;
      {
        SpanScope s(std::string("mst.entry.") + name);
        r = a.run(g, ctx);
      }
      std::printf("{\"kind\":\"entry\",\"name\":\"%s\",\"ms\":%.6f,"
                  "\"oracle\":%s}\n",
                  name, now_ms() - e0, matches(r, oracle) ? "true" : "false");
    }
  }

  if (road) std::remove(snap.c_str());
  g_tracer.print();
  std::printf("{\"kind\":\"end\",\"measured_ms\":%.6f,\"peak_rss_kb\":%ld}\n",
              measured_ms, peak_kb);
  return 0;
}
