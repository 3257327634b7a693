// The regime matrix behind auto's policy table (src/mst/auto.cpp): every
// registry entry, and auto itself, on each graph at each
// thread count.  The committed record bench/baselines/regime-matrix.json
// holds the records of
//
//   bench_regime_matrix --pack-dir packs --bench-json matrix.jsonl
//
// (defaults: road-20, er-19 and rmat-19 at 1, 2 and 4 threads, 7 rounds) as
// a JSON array, and tools/check_auto_policy.py checks the table against it.  A graph named
// KIND-SCALE is the graph of `mst_tool --generate KIND --scale SCALE`; it is
// packed once to DIR/KIND-SCALE.llpmstb and every run mounts the snapshot.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/run_context.hpp"
#include "graph/generators/by_kind.hpp"
#include "graph/io/binary_csr.hpp"
#include "mst/auto.hpp"
#include "mst/registry.hpp"
#include "support/timer.hpp"

int main(int argc, char** argv) {
  using namespace llpmst;
  using namespace llpmst::bench;

  CliParser cli("bench_regime_matrix",
                "every registry entry and auto, per graph and thread "
                "count: the measurements auto's policy table is read from");
  auto& graphs = cli.add_string("graphs", "road-20,er-19,rmat-19",
                                "KIND-SCALE list (KIND = road | rmat | er)");
  auto& threads = cli.add_string("threads", "1,2,4", "thread counts");
  auto& reps = cli.add_int("reps", 7, "timed rounds");
  auto& csv = cli.add_bool("csv", false, "emit CSV");
  auto& pack_dir = cli.add_string(
      "pack-dir", "regime-packs",
      "directory of the llpmstb snapshots (written on first use)");
  ObsCli obs_cli(cli);
  cli.parse(argc, argv);
  obs_cli.begin();

  std::filesystem::create_directories(pack_dir);

  // The contestants: every entry, then auto.
  std::vector<const MstAlgorithm*> entries;
  std::vector<std::string> contestants;
  for (const MstAlgorithm& a : mst_algorithms()) {
    entries.push_back(&a);
    contestants.emplace_back(a.name);
  }
  contestants.emplace_back("auto");
  std::vector<std::string> header{"Graph", "T"};
  header.insert(header.end(), contestants.begin(), contestants.end());
  header.emplace_back("auto picks");
  Table t(header);

  std::istringstream names(graphs);
  for (std::string name; std::getline(names, name, ',');) {
    const auto dash = name.rfind('-');
    const std::string kind = name.substr(0, dash);
    const int scale = dash == std::string::npos
                          ? 0
                          : std::atoi(name.c_str() + dash + 1);
    const std::string file = pack_dir + "/" + name + ".llpmstb";
    if (!is_binary_csr_file(file)) {
      const Expected<EdgeList> list = generate_by_kind(kind, scale, 1);
      if (!list.ok()) {
        std::fprintf(stderr, "bad graph '%s' (want KIND-SCALE): %s\n",
                     name.c_str(), list.status().message().c_str());
        return 2;
      }
      const Status packed = write_binary_csr(file, CsrGraph::build(*list));
      if (!packed.ok()) {
        std::fprintf(stderr, "pack failed: %s\n", packed.to_string().c_str());
        return 1;
      }
    }
    Expected<CsrGraph> mounted = read_binary_csr(file);
    if (!mounted.ok()) {
      std::fprintf(stderr, "mount failed: %s\n",
                   mounted.status().to_string().c_str());
      return 1;
    }
    const CsrGraph& g = *mounted;
    const MstResult reference = kruskal(g);
    std::printf("%s: n=%zu m=%zu m/n=%.2f components=%zu\n", name.c_str(),
                g.num_vertices(), g.num_edges(),
                static_cast<double>(g.num_edges()) /
                    static_cast<double>(g.num_vertices()),
                reference.num_trees);

    for (const int nt : CliParser::parse_int_list(threads)) {
      ThreadPool pool(static_cast<std::size_t>(nt));
      RunContext ctx(pool);
      // The census is a pipeline stage of its own; auto reads it cached.
      ctx.seed_components(g, reference.num_trees);
      set_bench_context(name, static_cast<std::size_t>(nt));

      std::string pick;
      std::vector<std::function<MstResult()>> runs;
      for (const MstAlgorithm* a : entries) {
        runs.emplace_back([&g, &ctx, a] { return a->run(g, ctx); });
      }
      runs.emplace_back([&] {
        AutoMstResult r = minimum_spanning_forest(g, ctx);
        pick = r.algorithm;
        return std::move(r.result);
      });
      // A warmup round that checks every forest against Kruskal's, then
      // interleaved timed rounds: each round times every contestant back
      // to back, so host drift over the minutes a cell takes hits all of
      // them alike instead of whichever entry ran during it.
      for (std::size_t i = 0; i < runs.size(); ++i) {
        if (runs[i]().edges != reference.edges) {
          std::fprintf(stderr, "FATAL: %s at %d threads is not the MSF\n",
                       contestants[i].c_str(), nt);
          return 1;
        }
      }
      std::vector<std::vector<double>> samples(runs.size());
      for (long long rep = 0; rep < reps; ++rep) {
        for (std::size_t i = 0; i < runs.size(); ++i) {
          Timer timer;
          const MstResult r = runs[i]();
          samples[i].push_back(timer.elapsed_ms());
        }
      }
      std::vector<std::string> row{name, std::to_string(nt)};
      for (std::size_t i = 0; i < runs.size(); ++i) {
        record_bench_samples(contestants[i], samples[i], 1, true);
        row.push_back(time_cell(summarize(samples[i])));
      }
      row.push_back(pick);
      t.add_row(row);
    }
  }

  t.print(csv);
  obs_cli.write_table(t);
  obs_cli.finish("bench_regime_matrix");
  return 0;
}
