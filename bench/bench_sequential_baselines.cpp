// Context for Fig. 2: every sequential MSF baseline in the library, plus
// Filter-Kruskal, on both workloads — Kruskal, Filter-Kruskal, Prim, lazy
// Prim, classic Boruvka, LLP-Prim (1T).  Places
// the paper's three Fig. 2 contestants inside the wider baseline landscape.
#include <cstdio>

#include "bench_common.hpp"
#include "core/run_context.hpp"
#include "mst/registry.hpp"

int main(int argc, char** argv) {
  using namespace llpmst;
  using namespace llpmst::bench;

  CliParser cli("bench_sequential_baselines",
                "All sequential MSF baselines on both workloads");
  auto& road_side = cli.add_int("road-side", 512, "road grid side length");
  auto& scale = cli.add_int("scale", 16, "graph500 RMAT scale");
  auto& threads = cli.add_int("threads", 4,
                              "threads for filter-kruskal");
  auto& reps = cli.add_int("reps", 3, "timed repetitions");
  auto& csv = cli.add_bool("csv", false, "emit CSV");
  ObsCli obs_cli(cli);
  cli.parse(argc, argv);
  obs_cli.begin();

  BenchOptions opts;
  opts.repetitions = static_cast<int>(reps);
  ThreadPool pool(static_cast<std::size_t>(threads));
  RunContext ctx(pool);

  Table t({"Graph", "Algorithm", "Median", "vs Kruskal"});

  const Workload workloads[] = {
      make_road_workload(static_cast<std::uint32_t>(road_side)),
      make_graph500_workload(static_cast<int>(scale)),
  };

  for (const Workload& w : workloads) {
    const MstResult reference = kruskal(w.graph);
    set_bench_context(w.name, static_cast<std::size_t>(threads));
    double kruskal_ms = 0;
    // Record keys are canonical registry names; table rows show the label.
    const auto add = [&](const char* name) {
      const MstAlgorithm& algo = mst_algorithm(name);
      const BenchMeasurement m = measure_mst(
          algo.name, w.graph, reference,
          [&] { return algo.run(w.graph, ctx); }, opts);
      if (kruskal_ms == 0) kruskal_ms = m.time_ms.median;
      t.add_row({w.name, algo.label, time_cell(m.time_ms),
                 strf("%.2fx", kruskal_ms / m.time_ms.median)});
    };

    add("kruskal");
    add("filter-kruskal");
    add("prim");
    add("prim-lazy");
    add("boruvka");
    add("llp-prim");
  }

  std::printf("Sequential MSF baselines (threads=%lld for filter-kruskal)"
              "\n\n",
              static_cast<long long>(threads));
  t.print(csv);
  obs_cli.write_table(t);
  obs_cli.finish("bench_sequential_baselines");
  return 0;
}
