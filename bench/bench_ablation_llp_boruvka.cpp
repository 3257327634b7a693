// Ablation: what do LLP-Boruvka's design choices buy over the synchronized
// baseline, and what does the adaptive runtime buy over fixed scheduling?
// Sweeps the engine knobs independently:
//   * pointer jumping: asynchronous/chaotic (LLP, with full path
//     compression) vs bulk-synchronous rounds with barriers (baseline);
//   * load balance: adaptive grain vs work stealing vs fixed chunks;
//   * scratch: fresh per run vs caller-owned reuse across repetitions.
// Reports wall time, rounds, and pointer-jump counts per configuration.
// Every row gets a distinct algo label so --bench-json record keys stay
// unique (bench_compare.py rejects duplicates).
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "core/run_context.hpp"
#include "llp/llp_boruvka.hpp"

int main(int argc, char** argv) {
  using namespace llpmst;
  using namespace llpmst::bench;

  CliParser cli("bench_ablation_llp_boruvka",
                "Ablation of LLP-Boruvka vs synchronized Boruvka engine "
                "knobs");
  auto& road_side = cli.add_int("road-side", 512, "road grid side length");
  auto& scale = cli.add_int("scale", 16, "graph500 RMAT scale");
  auto& threads = cli.add_int("threads", 8, "worker threads");
  auto& reps = cli.add_int("reps", 3, "timed repetitions");
  auto& csv = cli.add_bool("csv", false, "emit CSV");
  ObsCli obs_cli(cli);
  cli.parse(argc, argv);
  obs_cli.begin();

  BenchOptions opts;
  opts.repetitions = static_cast<int>(reps);
  ThreadPool pool(static_cast<std::size_t>(threads));
  RunContext ctx(pool);

  Table t({"Graph", "Jumping", "LoadBalance", "Scratch", "Median",
           "Rounds", "PointerJumps"});

  const Workload workloads[] = {
      make_road_workload(static_cast<std::uint32_t>(road_side)),
      make_graph500_workload(static_cast<int>(scale), 1, /*connect=*/false),
  };

  const auto lb_name = [](BoruvkaLoadBalance lb) {
    switch (lb) {
      case BoruvkaLoadBalance::kAdaptive:
        return "adaptive";
      case BoruvkaLoadBalance::kWorkStealing:
        return "stealing";
      case BoruvkaLoadBalance::kFixedChunk:
        return "fixed";
    }
    return "?";
  };

  for (const Workload& w : workloads) {
    const MstResult reference = kruskal(w.graph);
    set_bench_context(w.name, static_cast<std::size_t>(threads));

    const auto run_config = [&](const BoruvkaConfig& config,
                                BoruvkaScratch* scratch) {
      const char* jumping_cell =
          config.jumping == PointerJumping::kAsynchronous ? "async (LLP)"
                                                          : "synchronized";
      const std::string algo =
          std::string("engine jump=") +
          (config.jumping == PointerJumping::kAsynchronous ? "async" : "sync") +
          " lb=" + lb_name(config.load_balance) +
          " scratch=" + (scratch != nullptr ? "reuse" : "fresh");
      BoruvkaConfig run = config;
      run.scratch = scratch;
      const BenchMeasurement m = measure_mst(
          algo, w.graph, reference,
          [&] { return llp_boruvka_configured(w.graph, ctx, run); }, opts);
      const MstAlgoStats& s = m.last_result.stats;
      t.add_row({w.name, jumping_cell, lb_name(config.load_balance),
                 scratch != nullptr ? "reuse" : "fresh", time_cell(m.time_ms),
                 format_count(s.rounds), format_count(s.pointer_jumps)});
    };

    // Axis 1: the paper's knob (async vs synchronized jumping) at the
    // default runtime.
    for (const auto jumping :
         {PointerJumping::kAsynchronous, PointerJumping::kSynchronized}) {
      BoruvkaConfig config;
      config.jumping = jumping;
      run_config(config, nullptr);
    }

    // Axis 2: the runtime knobs (scheduling policy, scratch reuse) at the
    // LLP-Boruvka configuration.  The adaptive/reuse row is what
    // llp_boruvka() would do with a persistent scratch; fixed/fresh is the
    // pre-adaptive runtime.  Axis 1's async row already is adaptive/fresh.
    BoruvkaScratch reused;
    for (const auto lb :
         {BoruvkaLoadBalance::kAdaptive, BoruvkaLoadBalance::kWorkStealing,
          BoruvkaLoadBalance::kFixedChunk}) {
      BoruvkaConfig config;
      config.load_balance = lb;
      if (lb != BoruvkaLoadBalance::kAdaptive) run_config(config, nullptr);
      run_config(config, &reused);
    }
  }

  std::printf("Ablation: LLP-Boruvka engine knobs (threads=%lld)\n",
              static_cast<long long>(threads));
  std::printf("(async = LLP-Boruvka; synchronized = the parallel Boruvka "
              "baseline)\n\n");
  t.print(csv);
  obs_cli.write_table(t);
  obs_cli.finish("bench_ablation_llp_boruvka");
  return 0;
}
