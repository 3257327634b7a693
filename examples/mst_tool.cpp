// mst_tool: end-to-end command-line utility over the public API — the kind
// of binary a downstream user actually runs.
//
//   mst_tool --input graph.gr --algorithm auto --threads 8
//            --output tree.txt --verify
//
// Reads a graph (format detected from leading bytes — magics first, text
// heuristics next, extension as the tie-break; override with
// --graph-format), generates one (--generate road|rmat|er --scale N), or
// runs a named adversarial workload (--scenario NAME, catalog via
// --list-scenarios); runs the chosen MSF algorithm — optionally under the
// deterministic schedule simulator (--sim) — verifies the result, prints a
// report, and can write the chosen edges out.
//
// An `llpmstb` CSR snapshot input is MOUNTED via mmap (zero parse, no CSR
// rebuild); any other source can be converted to one with
// --pack-graph OUT, which writes the snapshot and exits.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/run_context.hpp"
#include "graph/algorithms/degree_stats.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators/by_kind.hpp"
#include "graph/io/binary_csr.hpp"
#include "graph/io/edge_list_io.hpp"
#include "graph/io/read_graph.hpp"
#include "mst/auto.hpp"
#include "mst/registry.hpp"
#include "mst/verifier.hpp"
#include "obs/critical_path.hpp"
#include "obs/exposition.hpp"
#include "obs/hw_counters.hpp"
#include "obs/mem_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/sched_events.hpp"
#include "obs/trace.hpp"
#include "scenario/repro.hpp"
#include "scenario/scenario.hpp"
#include "sim/sim_executor.hpp"
#include "support/cancel.hpp"
#include "support/cli.hpp"
#include "support/failpoint.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"

namespace {

using namespace llpmst;

/// ", N allocations (M bytes)" suffix for the Memory report line.
std::string strf_allocs(const obs::MemSample& m) {
  return ", " + format_count(m.alloc_count) + " allocations (" +
         format_count(m.alloc_bytes) + " bytes)";
}

/// "unknown --scenario 'x' (did you mean: a, b?)" — the shared shape for
/// both --scenario and --algorithm typo diagnostics.  Always exits 2.
[[noreturn]] int fail_unknown_name(const char* flag, const std::string& input,
                                   const std::vector<std::string>& candidates,
                                   const char* list_hint) {
  std::string msg = "unknown " + std::string(flag) + " '" + input + "'";
  const std::vector<std::string> near =
      CliParser::suggest_similar(input, candidates);
  if (!near.empty()) {
    msg += " (did you mean: ";
    for (std::size_t i = 0; i < near.size(); ++i) {
      if (i > 0) msg += ", ";
      msg += near[i];
    }
    msg += "?)";
  }
  std::fprintf(stderr, "%s\ntry %s for the full list\n", msg.c_str(),
               list_hint);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("mst_tool",
                "Compute the minimum spanning forest of a graph file or a "
                "generated workload");
  auto& input = cli.add_string(
      "input", "",
      "graph file (DIMACS/METIS/binary/text/llpmstb snapshot; format is "
      "sniffed from leading bytes)");
  auto& graph_format = cli.add_string(
      "graph-format", "auto",
      "input format: auto | dimacs | metis | binary | text (auto sniffs "
      "leading bytes; an explicit format that contradicts the file's magic "
      "is a usage error)");
  auto& pack_graph = cli.add_string(
      "pack-graph", "",
      "write the acquired graph (--input/--generate/--scenario) as an "
      "llpmstb CSR snapshot to this path and exit; later runs mount it "
      "via mmap with zero parse");
  auto& generate = cli.add_string(
      "generate", "road", "workload when no --input: road | rmat | er");
  auto& scale = cli.add_int("scale", 14, "generator scale (log2-ish size)");
  auto& seed = cli.add_int("seed", 1, "generator seed");
  // The option list is generated from the registry so it cannot drift from
  // what dispatch actually accepts.
  auto& algorithm = cli.add_string("algorithm", "auto",
                                   "auto | " + mst_algorithm_names());
  auto& algo_alias = cli.add_string("algo", "", "shorthand for --algorithm");
  auto& list_algos = cli.add_bool(
      "list-algos", false,
      "print the registered algorithms and exit");
  auto& scenario_name = cli.add_string(
      "scenario", "",
      "run a named adversarial scenario instead of --input/--generate "
      "(see --list-scenarios); arms the scenario's failpoints and deadline "
      "and checks the result against the Kruskal oracle");
  auto& list_scenarios = cli.add_bool(
      "list-scenarios", false,
      "print the scenario catalog (name, family, what it stresses) and exit");
  auto& use_sim = cli.add_bool(
      "sim", false,
      "run under the deterministic schedule simulator: worker interleaving "
      "is chosen by a PRNG seeded with --seed and recorded as a replayable "
      "schedule trace");
  auto& sim_timeline = cli.add_string(
      "sim-timeline", "",
      "scripted fault timeline for --sim, e.g. "
      "'@120:cancel, hit(llp/sweep:3):arm(boruvka/round=1*return)'");
  auto& sim_step_ns = cli.add_int(
      "sim-step-ns", 1000,
      "virtual nanoseconds the simulated clock advances per scheduling "
      "decision (--sim)");
  auto& threads = cli.add_int("threads", 4, "worker threads");
  auto& metrics_json = cli.add_string(
      "metrics-json", "", "write the JSON run report (counters, phases, "
      "algo stats) to this file");
  auto& trace_file = cli.add_string(
      "trace", "", "collect and write a Chrome/Perfetto trace-event JSON "
      "to this file (includes per-worker scheduler tracks)");
  auto& stats_out = cli.add_string(
      "stats-out", "", "write an OpenMetrics/Prometheus text exposition "
      "(counters, phases, scheduler summary) to this file");
  auto& profile_out = cli.add_string(
      "profile-out", "",
      "sample the solve with the per-thread CPU-time profiler and write "
      "folded stacks ('phase;subphase;func count' lines, flamegraph-ready; "
      "render with tools/prof2flame.py) to this file; degrades to a note "
      "when the platform cannot profile");
  auto& profile_hz = cli.add_int(
      "profile-hz", static_cast<std::int64_t>(obs::kDefaultProfileHz),
      "profiler sampling rate in samples/second of per-thread CPU time");
  auto& hw_counters = cli.add_bool(
      "hw-counters", false,
      "collect hardware counters (cycles, instructions, cache/branch "
      "misses, task-clock) around the solve via perf_event_open; prints "
      "them and adds an 'hw' section to --metrics-json (degrades to "
      "'unavailable' when the PMU or syscall is denied)");
  auto& verify = cli.add_bool("verify", false,
                              "run the exact minimality verifier (O(m*depth))");
  auto& output = cli.add_string("output", "",
                                "write chosen edges as 'u v w' lines");
  auto& failpoints = cli.add_string(
      "failpoints", "",
      "arm fault-injection points, e.g. 'llp/sweep=10%sleep(500)' "
      "(also read from $LLPMST_FAILPOINTS; no-op when compiled out)");
  auto& deadline_ms = cli.add_double(
      "deadline-ms", -1.0,
      "wall-clock budget in ms (> 0; omit for none): --algorithm auto "
      "falls back to sequential kruskal on expiry; every other algorithm "
      "stops early with a partial result");
  cli.parse(argc, argv);
  // 0 is rejected, not interpreted: it used to mean "no deadline" on some
  // paths, which made a literal zero-budget request indistinguishable from
  // the default.  The daemon's admission contract (docs/serving.md) needs
  // the distinction, so the CLI rejects the ambiguous spelling outright.
  if (deadline_ms == 0) {
    std::fprintf(stderr,
                 "--deadline-ms 0 is ambiguous: pass a positive budget, or "
                 "omit the flag for no deadline\n");
    return 2;
  }
  if (!algo_alias.empty()) algorithm = algo_alias;

  if (list_algos) {
    std::printf("Registered MST/MSF algorithms (%zu):\n",
                mst_algorithms().size());
    for (const MstAlgorithm& a : mst_algorithms()) {
      std::printf("  %-18s %-4s %s\n", a.name,
                  describe_caps(a.caps).c_str(), a.summary);
    }
    std::printf("\nflags: par|seq uses the thread pool or not.  Every entry "
                "returns the minimum\nspanning forest and honours "
                "--deadline-ms.  'auto' picks from this table by\nthread "
                "count, average degree and connectivity (see mst/auto.hpp).\n");
    return 0;
  }

  if (list_scenarios) {
    std::printf("Adversarial scenarios (%zu):\n", scenarios().size());
    for (const Scenario& s : scenarios()) {
      std::printf("  %-24s [%s] %s%s\n", s.name, s.family, s.summary,
                  *s.failpoints != '\0' ? " (arms failpoints)" : "");
    }
    std::printf("\nrun one with --scenario NAME --seed S; the result is "
                "checked against the sequential Kruskal oracle.\n");
    return 0;
  }

  // --- Resolve the scenario before anything heavy (typos fail fast with a
  // suggestion list, same contract as --algorithm below).
  const Scenario* scen = nullptr;
  if (!scenario_name.empty()) {
    scen = find_scenario(scenario_name);
    if (scen == nullptr) {
      std::vector<std::string> names;
      for (const Scenario& s : scenarios()) names.emplace_back(s.name);
      fail_unknown_name("--scenario", scenario_name, names,
                        "--list-scenarios");
    }
  }

  // The per-run context: pool (attached below), deadline, failpoint scope,
  // scratch arena, cached connectivity.
  RunContext ctx;

  // --- Fault injection (chaos/testing): CLI spec wins over the env var;
  // a scenario's own failpoints are armed alongside whatever the caller
  // asked for.
  fail::configure_from_env();
  std::string armed_failpoints = failpoints;
  if (scen != nullptr && *scen->failpoints != '\0') {
    if (!armed_failpoints.empty()) armed_failpoints += ';';
    armed_failpoints += scen->failpoints;
  }
  if (!armed_failpoints.empty()) {
    if (!fail::kCompiledIn) {
      std::fprintf(stderr,
                   "warning: --failpoints ignored (compiled out; rebuild "
                   "with -DLLPMST_FAILPOINTS=ON)\n");
    } else {
      std::string fp_error;
      ctx.arm_failpoints(armed_failpoints, &fp_error);
      if (!fp_error.empty()) {
        std::fprintf(stderr, "bad --failpoints spec: %s\n", fp_error.c_str());
        return 2;
      }
      // --seed also seeds the fault-injection RNG, so a repro command
      // replays probabilistic specs, not just count-based ones.
      fail::set_seed(static_cast<std::uint64_t>(seed));
    }
  }

  // --- Observability: flip the runtime gates before any work we want to
  // measure.  Counters are always recorded; phase timers and tracing only
  // cost anything once these are on.
  const bool want_obs =
      !metrics_json.empty() || !trace_file.empty() || !stats_out.empty();
  if (want_obs) obs::set_enabled(true);
  // --profile-out needs the phase *stack* for sample attribution, but not
  // the timing aggregates — the stack-only gate keeps hot-loop PhaseTimer
  // scopes at a few relaxed stores each (full metrics subsume it).
  if (!profile_out.empty()) obs::set_phase_stack_enabled(true);
  if (!trace_file.empty()) {
    ThreadPool::set_trace_regions(true);
    obs::trace_start();
  }
  // Hardware counters open before the pool so inherited events cover the
  // workers.  Failure never fails the run — the report carries the
  // explicit "unavailable" shape instead.
  std::string hw_why;
  if (hw_counters && !obs::hw_begin(&hw_why)) {
    std::fprintf(stderr, "note: hardware counters unavailable: %s\n",
                 hw_why.c_str());
  }
  // The sampling profiler arms the main thread here; pool workers arm
  // themselves lazily on their first region.  Failure never fails the run
  // (the folded file degrades to a note, the report to the explicit
  // "unavailable" shape).
  const bool want_profile = !profile_out.empty() && obs::kCompiledIn;
  if (want_profile) {
    // Validate before the unsigned cast: a negative value would wrap to a
    // huge rate and a too-high one rounds the timer interval to 0.
    std::int64_t hz = profile_hz;
    if (hz < 1 || hz > static_cast<std::int64_t>(obs::kMaxProfileHz)) {
      std::fprintf(stderr,
                   "note: --profile-hz %lld out of range [1, %u]; using "
                   "default %u\n",
                   static_cast<long long>(hz), obs::kMaxProfileHz,
                   obs::kDefaultProfileHz);
      hz = obs::kDefaultProfileHz;
    }
    std::string prof_why;
    if (!obs::prof_start(static_cast<unsigned>(hz), &prof_why)) {
      std::fprintf(stderr, "note: profiler unavailable: %s\n",
                   prof_why.c_str());
    }
  }

  // --- Acquire the graph.  The pool exists from here on: the CSR build
  // runs on it as well as the solve.
  ThreadPool pool(static_cast<std::size_t>(threads));
  GraphFormat format = GraphFormat::kAuto;
  if (!parse_graph_format(graph_format, format)) {
    std::fprintf(stderr,
                 "unknown --graph-format '%s' (want auto, dimacs, metis, "
                 "binary, or text)\n",
                 graph_format.c_str());
    return 2;
  }
  EdgeList list;
  CsrGraph g;  // mounted here when the input is an llpmstb snapshot
  {
    obs::PhaseTimer acquire_phase("acquire");
    if (scen != nullptr) {
      list = scen->make(static_cast<std::uint64_t>(seed));
      std::printf("Scenario  : %s [%s] seed %lld\n", scen->name, scen->family,
                  static_cast<long long>(seed));
      if (scen->deadline_ms > 0 && deadline_ms < 0) {
        deadline_ms = scen->deadline_ms;
      }
    } else if (!input.empty() &&
               (format == GraphFormat::kAuto ||
                format == GraphFormat::kBinary) &&
               is_binary_csr_file(input)) {
      // Zero-parse path: mount the snapshot read-only.  No edge-list parse,
      // no CSR rebuild — the kernel pages arc data in on demand.
      Timer mt;
      Expected<CsrGraph> m = read_binary_csr(input);
      if (!m.ok()) {
        std::fprintf(stderr, "error mounting %s: %s\n", input.c_str(),
                     m.status().to_string().c_str());
        return 1;
      }
      g = std::move(*m);
      std::printf("Mounted   : %s (llpmstb snapshot, %s bytes mapped, "
                  "load %s)\n",
                  input.c_str(),
                  format_count(g.storage()->mapped_bytes()).c_str(),
                  format_duration_ms(mt.elapsed_ms()).c_str());
    } else if (!input.empty()) {
      Expected<EdgeList> loaded = read_graph(input, format);
      if (!loaded.ok()) {
        std::fprintf(stderr, "error reading %s: %s\n", input.c_str(),
                     loaded.status().to_string().c_str());
        // A format/magic contradiction is a usage error (the message names
        // the detected format), not a runtime failure.
        return loaded.status().code() == StatusCode::kInvalidArgument ? 2 : 1;
      }
      list = std::move(*loaded);
      std::printf("Loaded %s\n", input.c_str());
    } else {
      Expected<EdgeList> generated = generate_by_kind(
          generate, scale, static_cast<std::uint64_t>(seed));
      if (!generated.ok()) {
        std::fprintf(stderr, "bad --generate %s --scale %lld: %s\n",
                     generate.c_str(), static_cast<long long>(scale),
                     generated.status().message().c_str());
        return 2;
      }
      list = std::move(*generated);
    }
  }

  if (g.storage() == nullptr) {
    obs::PhaseTimer build_phase("build");
    Timer bt;
    g = CsrGraph::build(list, &pool);
    std::printf("Built     : CSR in %s (%lld threads)\n",
                format_duration_ms(bt.elapsed_ms()).c_str(),
                static_cast<long long>(threads));
  }
  const GraphStats stats = compute_stats(g);
  std::printf("Graph: %s\n", describe(stats).c_str());

  // --- Pack-and-exit: persist the built (or remounted) CSR as an llpmstb
  // snapshot.  No solve happens; the round-trip is the CI gate's business.
  if (!pack_graph.empty()) {
    Timer pt;
    const Status st = write_binary_csr(pack_graph, g);
    if (!st.ok()) {
      std::fprintf(stderr, "error packing %s: %s\n", pack_graph.c_str(),
                   st.to_string().c_str());
      return 1;
    }
    std::printf("Packed    : %s (%s vertices, %s edges) in %s\n",
                pack_graph.c_str(), format_count(g.num_vertices()).c_str(),
                format_count(g.num_edges()).c_str(),
                format_duration_ms(pt.elapsed_ms()).c_str());
    return 0;
  }

  // --- Solve.  Under --sim the pool is replaced by the deterministic
  // simulator: same Executor surface, PRNG-chosen interleaving, virtual
  // clock feeding the deadline, recorded schedule trace.
  ctx.attach_pool(pool);
  // The stats pass already counted components: auto's census reads it.
  ctx.seed_components(g, stats.num_components);
  std::unique_ptr<llpmst::sim::SimExecutor> sim_exec;
  CancelToken sim_cancel;  // target of timeline `cancel` actions
  if (use_sim) {
    llpmst::sim::SimExecutor::Options so;
    so.seed = static_cast<std::uint64_t>(seed);
    so.workers = static_cast<std::size_t>(threads);
    so.step_ns = static_cast<std::uint64_t>(sim_step_ns);
    so.timeline = sim_timeline;
    sim_exec = std::make_unique<llpmst::sim::SimExecutor>(so);
    if (!sim_exec->timeline_error().empty()) {
      std::fprintf(stderr, "bad --sim-timeline: %s\n",
                   sim_exec->timeline_error().c_str());
      return 2;
    }
    sim_exec->bind_cancel(&sim_cancel);
    ctx.attach_executor(sim_exec.get());
    ctx.set_cancel(&sim_cancel);
  } else if (!sim_timeline.empty()) {
    std::fprintf(stderr, "--sim-timeline requires --sim\n");
    return 2;
  }
  if (deadline_ms > 0) ctx.set_deadline_ms(deadline_ms);
  // Resolve the algorithm before starting the clock so an unknown name
  // fails fast.  "auto" is the portfolio policy over the same registry.
  const MstAlgorithm* entry = nullptr;
  if (algorithm != "auto") {
    entry = find_mst_algorithm(algorithm);
    if (entry == nullptr) {
      std::vector<std::string> names{"auto"};
      for (const MstAlgorithm& a : mst_algorithms()) names.emplace_back(a.name);
      fail_unknown_name("--algorithm", algorithm, names, "--list-algos");
    }
  }
  // Counters up to here include graph generation/loading; re-baseline so
  // the reported hw section covers the solve alone.
  const obs::HwSample hw_before =
      obs::hw_active() ? obs::hw_read() : obs::HwSample{};
  // Per-worker scheduler event rings (no-op when compiled out) start here,
  // after the build's team regions, so they describe the solve alone.
  if (want_obs) obs::sched_start();
  Timer t;
  MstResult result;
  std::string used = algorithm;
  std::string fallback_reason;
  {
    [[maybe_unused]] auto solve_scope = ctx.obs_scope("mst_tool/solve");
    if (entry == nullptr) {
      AutoMstResult r = minimum_spanning_forest(g, ctx);
      result = std::move(r.result);
      used = "auto -> " + r.algorithm;
      if (r.fell_back) {
        fallback_reason = r.fallback_reason;
        std::printf("FALLBACK  : parallel run failed (%s); recomputed with "
                    "sequential kruskal\n",
                    r.fallback_reason.c_str());
      }
    } else {
      result = entry->run(g, ctx);
    }
  }
  const double solve_ms = t.elapsed_ms();
  // Stop the scheduler rings at the join, then fold the worker timelines
  // into the trace (pid-1 tracks) before the trace itself closes — neither
  // should cover the verifier below.  The profiler stops on the same
  // boundary: its samples attribute the solve, not the verifier.
  obs::sched_stop();
  if (want_profile) obs::prof_stop();
  const obs::ProfSnapshot prof =
      want_profile ? obs::prof_snapshot() : obs::ProfSnapshot{};
  if (!trace_file.empty()) {
    obs::export_sched_to_trace();
    obs::trace_stop();
  }

  // Solve-scoped hardware-counter delta (kept "unavailable" when denied).
  obs::HwSample hw_sample;
  if (hw_counters) {
    hw_sample = obs::hw_read();
    if (hw_sample.available && hw_before.available) {
      const auto sub = [](std::uint64_t a, std::uint64_t b) {
        return (a == obs::kHwAbsent || b == obs::kHwAbsent || a < b)
                   ? obs::kHwAbsent
                   : a - b;
      };
      hw_sample.cycles = sub(hw_sample.cycles, hw_before.cycles);
      hw_sample.instructions =
          sub(hw_sample.instructions, hw_before.instructions);
      hw_sample.cache_references =
          sub(hw_sample.cache_references, hw_before.cache_references);
      hw_sample.cache_misses =
          sub(hw_sample.cache_misses, hw_before.cache_misses);
      hw_sample.branch_misses =
          sub(hw_sample.branch_misses, hw_before.branch_misses);
      if (hw_sample.task_clock_ms >= 0 && hw_before.task_clock_ms >= 0) {
        hw_sample.task_clock_ms -= hw_before.task_clock_ms;
      }
    }
  }

  std::printf("\nAlgorithm : %s (%lld threads)\n", used.c_str(),
              static_cast<long long>(threads));
  std::printf("Time      : %s\n", format_duration_ms(solve_ms).c_str());
  if (hw_counters) {
    if (hw_sample.available) {
      const auto cell = [](std::uint64_t v) {
        return v == obs::kHwAbsent ? std::string("n/a") : format_count(v);
      };
      std::printf("HW        : %s cycles, %s instructions, %s cache misses "
                  "/ %s refs, %s branch misses\n",
                  cell(hw_sample.cycles).c_str(),
                  cell(hw_sample.instructions).c_str(),
                  cell(hw_sample.cache_misses).c_str(),
                  cell(hw_sample.cache_references).c_str(),
                  cell(hw_sample.branch_misses).c_str());
    } else {
      std::printf("HW        : unavailable (%s)\n",
                  hw_sample.unavailable_reason.c_str());
    }
  }
  const obs::MemSample mem = obs::mem_sample();
  std::printf("Memory    : peak RSS %s bytes%s\n",
              format_count(mem.peak_rss_bytes).c_str(),
              mem.alloc_tracking
                  ? strf_allocs(mem).c_str()
                  : "");
  std::printf("MSF       : %s edges, %s trees, total weight %s\n",
              format_count(result.edges.size()).c_str(),
              format_count(result.num_trees).c_str(),
              format_count(result.total_weight).c_str());
  if (result.stats.outcome != RunOutcome::kOk) {
    std::printf("WARNING   : run stopped early (%s); the result may be "
                "partial\n",
                run_outcome_name(result.stats.outcome));
  } else if (!result.stats.llp_converged) {
    std::printf("WARNING   : LLP sweep cap hit before convergence; the "
                "result may be partial\n");
  }
  if (sim_exec != nullptr) {
    std::printf("Schedule  : %llu decisions%s\n    trace: %s\n",
                static_cast<unsigned long long>(sim_exec->decisions()),
                sim_exec->replay_diverged() ? " (REPLAY DIVERGED)" : "",
                sim_exec->trace().encode().c_str());
  }

  // --- Scenario conformance: every complete run must match the Kruskal
  // oracle bit-for-bit.  A failure prints the one-line repro command.
  if (scen != nullptr && result.stats.outcome == RunOutcome::kOk) {
    const std::string violation = check_scenario_result(*scen, g, result);
    if (!violation.empty()) {
      ReproSpec rs;
      rs.scenario = scen->name;
      rs.algo = algorithm;
      rs.seed = static_cast<std::uint64_t>(seed);
      rs.threads = static_cast<std::size_t>(threads);
      rs.failpoints = failpoints;
      rs.timeline = sim_timeline;
      rs.deadline_ms = deadline_ms;
      rs.sim = use_sim;
      std::fprintf(stderr, "SCENARIO CHECK FAILED: %s\n%s\n",
                   violation.c_str(), format_repro_command(rs).c_str());
      return 1;
    }
    std::printf("Scenario  : conformant with the Kruskal oracle\n");
  }

  // --- Verify.  The ctx overloads cross-check against (and seed) the
  // context's cached component count, so an auto run's connectivity check
  // is not repeated here.
  const VerifyResult shape = verify_spanning_forest(g, result, ctx);
  if (!shape.ok) {
    std::fprintf(stderr, "SPANNING CHECK FAILED: %s\n", shape.error.c_str());
    return 1;
  }
  if (verify) {
    Timer vt;
    const VerifyResult full = verify_msf(g, result, ctx);
    if (!full.ok) {
      std::fprintf(stderr, "MINIMALITY CHECK FAILED: %s\n",
                   full.error.c_str());
      return 1;
    }
    std::printf("Verified  : exact minimality certificate in %s\n",
                format_duration_ms(vt.elapsed_ms()).c_str());
  } else {
    std::printf("Verified  : spanning-forest shape (pass --verify for the "
                "exact minimality certificate)\n");
  }

  // --- Persist.
  if (!output.empty()) {
    EdgeList tree(g.num_vertices());
    for (const EdgeId e : result.edges) {
      const WeightedEdge& we = g.edge(e);
      tree.add_edge(we.u, we.v, we.w);
    }
    const Status st = write_edge_list_text(output, tree);
    if (!st.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", output.c_str(),
                   st.to_string().c_str());
      return 1;
    }
    std::printf("Wrote     : %s\n", output.c_str());
  }

  // --- Observability artefacts.
  if (!metrics_json.empty() && !obs::kCompiledIn) {
    // Clear notice instead of a silently empty report: the run report's
    // counters/phases/rounds only exist in the instrumented build.
    std::printf("Metrics   : observability compiled out (LLPMST_OBS=0); no "
                "report written — rebuild with -DLLPMST_OBS=ON\n");
  } else if (!metrics_json.empty()) {
    obs::RunInfo info;
    info.tool = "mst_tool";
    info.algorithm = used;
    info.threads = static_cast<std::size_t>(threads);
    info.vertices = g.num_vertices();
    info.edges = g.num_edges();
    info.wall_ms = solve_ms;
    info.outcome = fallback_reason.empty()
                       ? run_outcome_name(result.stats.outcome)
                       : "fallback";
    info.fallback_reason = fallback_reason;
    std::string err;
    if (!obs::write_run_report(
            metrics_json,
            obs::build_run_report(info, &result.stats,
                                  hw_counters ? &hw_sample : nullptr,
                                  want_profile ? &prof : nullptr),
            &err)) {
      std::fprintf(stderr, "error writing %s: %s\n", metrics_json.c_str(),
                   err.c_str());
      return 1;
    }
    std::printf("Metrics   : %s\n", metrics_json.c_str());
  }
  if (!trace_file.empty()) {
    std::string err;
    if (!obs::write_trace_json(trace_file, &err)) {
      std::fprintf(stderr, "error writing %s: %s\n", trace_file.c_str(),
                   err.c_str());
      return 1;
    }
    std::printf("Trace     : %s (%zu events)\n", trace_file.c_str(),
                obs::trace_event_count());
  }
  if (!profile_out.empty() && !obs::kCompiledIn) {
    // Clear one-line notice instead of an empty file (CI asserts this).
    std::printf("Profile   : observability compiled out (LLPMST_OBS=0); no "
                "folded output written — rebuild with -DLLPMST_OBS=ON\n");
  } else if (!profile_out.empty()) {
    if (!prof.available) {
      std::printf("Profile   : unavailable (%s); no folded output written\n",
                  prof.unavailable_reason.c_str());
    } else {
      const std::string folded = obs::prof_render_folded(prof);
      std::FILE* f = std::fopen(profile_out.c_str(), "w");
      const bool ok =
          f != nullptr &&
          std::fwrite(folded.data(), 1, folded.size(), f) == folded.size();
      if (f != nullptr) std::fclose(f);
      if (!ok) {
        std::fprintf(stderr, "error writing %s\n", profile_out.c_str());
        return 1;
      }
      std::printf("Profile   : %s (%llu samples, %zu stacks, %u Hz%s)\n",
                  profile_out.c_str(),
                  static_cast<unsigned long long>(prof.samples),
                  prof.stacks.size(), prof.hz,
                  prof.dropped != 0 ? ", ring overflowed" : "");
    }
  }
  if (!stats_out.empty()) {
    // Unlike --metrics-json, the exposition is written in BOTH build
    // flavours: an LLPMST_OBS=0 build emits a minimal-but-valid document
    // (build_info + EOF) so scrapers never branch on the flavour.
    std::string err;
    if (!obs::write_openmetrics(stats_out, &err)) {
      std::fprintf(stderr, "error writing %s: %s\n", stats_out.c_str(),
                   err.c_str());
      return 1;
    }
    std::printf("Stats     : %s\n", stats_out.c_str());
  }
  if (hw_counters) obs::hw_end();
  return 0;
}
