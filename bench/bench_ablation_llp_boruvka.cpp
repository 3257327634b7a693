// Ablation: what does LLP-Boruvka's one design choice buy over the
// synchronized baseline?  The engine's only knob is pointer jumping:
// asynchronous/chaotic (LLP, with full path compression) vs bulk-synchronous
// rounds with barriers (the GBBS-style baseline) — the paper's Algorithm 6
// comparison.  Every other part of a round (MWE selection, hook,
// contraction, the adaptive chunked sweeps) is shared.
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
                "Ablation of LLP-Boruvka vs synchronized Boruvka pointer "
                "jumping");
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

  Table t({"Graph", "Jumping", "Median", "Rounds", "PointerJumps"});

  const Workload workloads[] = {
      make_road_workload(static_cast<std::uint32_t>(road_side)),
      make_graph500_workload(static_cast<int>(scale), 1, /*connect=*/false),
  };

  for (const Workload& w : workloads) {
    const MstResult reference = kruskal(w.graph);
    set_bench_context(w.name, static_cast<std::size_t>(threads));
    for (const auto jumping :
         {PointerJumping::kAsynchronous, PointerJumping::kSynchronized}) {
      const bool async = jumping == PointerJumping::kAsynchronous;
      BoruvkaConfig config;
      config.jumping = jumping;
      const BenchMeasurement m = measure_mst(
          std::string("engine jump=") + (async ? "async" : "sync"), w.graph,
          reference,
          [&] { return llp_boruvka_configured(w.graph, ctx, config); }, opts);
      const MstAlgoStats& s = m.last_result.stats;
      t.add_row({w.name, async ? "async (LLP)" : "synchronized",
                 time_cell(m.time_ms), format_count(s.rounds),
                 format_count(s.pointer_jumps)});
    }
  }

  std::printf("Ablation: LLP-Boruvka pointer jumping (threads=%lld)\n",
              static_cast<long long>(threads));
  std::printf("(async = LLP-Boruvka; synchronized = the parallel Boruvka "
              "baseline)\n\n");
  t.print(csv);
  obs_cli.write_table(t);
  obs_cli.finish("bench_ablation_llp_boruvka");
  return 0;
}
