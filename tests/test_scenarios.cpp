// Adversarial scenario suite: registry invariants, registry-wide
// conformance against the sequential Kruskal oracle, and the wide-bundle
// regression the bundle-heavy generator exists to pin.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/run_context.hpp"
#include "graph/csr_graph.hpp"
#include "mst/kruskal.hpp"
#include "mst/registry.hpp"
#include "scenario/adversarial.hpp"
#include "scenario/repro.hpp"
#include "scenario/scenario.hpp"
#include "support/cli.hpp"
#include "test_util.hpp"

namespace llpmst {
namespace {

using test::csr;

// ----------------------------------------------------- registry invariants

TEST(ScenarioRegistry, NamesAreUniqueNonEmptyAndKebabCase) {
  ASSERT_GE(scenarios().size(), 12u);
  std::set<std::string> seen;
  for (const Scenario& s : scenarios()) {
    ASSERT_NE(s.name, nullptr);
    ASSERT_NE(*s.name, '\0');
    EXPECT_TRUE(seen.insert(s.name).second) << "duplicate name " << s.name;
    for (const char* p = s.name; *p != '\0'; ++p) {
      EXPECT_TRUE((*p >= 'a' && *p <= 'z') || (*p >= '0' && *p <= '9') ||
                  *p == '-')
          << s.name;
    }
    EXPECT_NE(*s.summary, '\0') << s.name;
    EXPECT_NE(*s.family, '\0') << s.name;
    EXPECT_NE(s.make, nullptr) << s.name;
  }
}

TEST(ScenarioRegistry, LookupAndNameListAgree) {
  for (const Scenario& s : scenarios()) {
    EXPECT_EQ(find_scenario(s.name), &s);
    EXPECT_NE(scenario_names().find(s.name), std::string::npos);
  }
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
  EXPECT_EQ(find_scenario(""), nullptr);
}

TEST(ScenarioRegistry, GeneratorsAreDeterministicInSeed) {
  for (const Scenario& s : scenarios()) {
    const EdgeList a = s.make(3);
    const EdgeList b = s.make(3);
    ASSERT_EQ(a.num_vertices(), b.num_vertices()) << s.name;
    ASSERT_EQ(a.num_edges(), b.num_edges()) << s.name;
    for (std::size_t i = 0; i < a.num_edges(); ++i) {
      const WeightedEdge& ea = a.edges()[i];
      const WeightedEdge& eb = b.edges()[i];
      ASSERT_TRUE(ea.u == eb.u && ea.v == eb.v && ea.w == eb.w)
          << s.name << " edge " << i;
    }
  }
}

TEST(ScenarioRegistry, StructuralExpectationsHold) {
  for (const Scenario& s : scenarios()) {
    const CsrGraph g = csr(s.make(1));
    RunContext ctx;
    const std::size_t components = ctx.num_components(g);
    if (s.expect.connected) {
      EXPECT_EQ(components, 1u) << s.name;
    }
    EXPECT_GE(components, s.expect.min_components) << s.name;
  }
}

// ------------------------------------------------- registry-wide conformance

// Every scenario graph, solved by a representative parallel algorithm from
// each family, must reproduce the Kruskal oracle bit for bit.  (The full
// algorithm-by-algorithm sweep lives in test_registry_conformance; this one
// pins the adversarial INPUTS.)
TEST(ScenarioConformance, AllScenariosMatchKruskalAcrossAlgorithms) {
  const char* algos[] = {"llp-boruvka", "parallel-boruvka", "filter-kruskal"};
  ThreadPool pool(4);
  for (const Scenario& s : scenarios()) {
    const CsrGraph g = csr(s.make(1));
    for (const char* name : algos) {
      const MstAlgorithm* algo = find_mst_algorithm(name);
      ASSERT_NE(algo, nullptr) << name;
      if (s.expect.min_components > 1 && !algo->caps.msf_capable) continue;
      RunContext ctx(pool);
      const MstResult r = algo->run(g, ctx);
      const std::string violation = check_scenario_result(s, g, r);
      ReproSpec rs;
      rs.scenario = s.name;
      rs.algo = name;
      rs.seed = 1;
      rs.threads = 4;
      EXPECT_EQ(violation, "") << format_repro_command(rs);
    }
  }
}

TEST(ScenarioConformance, CheckerRejectsACorruptedForest) {
  const Scenario* s = find_scenario("road-baseline");
  ASSERT_NE(s, nullptr);
  const CsrGraph g = csr(s->make(1));
  MstResult r = kruskal(g);
  ASSERT_EQ(check_scenario_result(*s, g, r), "");
  // Swap one chosen edge for a non-tree edge: weight changes, checker fires.
  r.total_weight += 1;
  EXPECT_NE(check_scenario_result(*s, g, r), "");
}

// ------------------------------------------------- wide-bundle regression

// Wide bundles between few super-vertices are where the Boruvka
// contraction's pair table does its work: every bundle must shrink to its
// lightest edge, never lose it.  (The test names predate the pair table;
// they pinned the hash dedup's probe cap it replaced.)  20 seeds of both
// widths must stay bit-identical to Kruskal through both engine entries.
TEST(BundleDedupRegression, ProbeCapOverflowStaysExactAcrossTwentySeeds) {
  const char* algos[] = {"parallel-boruvka", "llp-boruvka"};
  ThreadPool pool(4);
  for (const char* scen_name : {"bundle-heavy", "bundle-storm"}) {
    const Scenario* s = find_scenario(scen_name);
    ASSERT_NE(s, nullptr);
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const CsrGraph g = csr(s->make(seed));
      const MstResult reference = kruskal(g);
      for (const char* name : algos) {
        RunContext ctx(pool);
        const MstResult r = mst_algorithm(name).run(g, ctx);
        ReproSpec rs;
        rs.scenario = scen_name;
        rs.algo = name;
        rs.seed = seed;
        rs.threads = 4;
        ASSERT_EQ(r.edges, reference.edges) << format_repro_command(rs);
        ASSERT_EQ(r.total_weight, reference.total_weight)
            << format_repro_command(rs);
      }
    }
  }
}

TEST(BundleDedupRegression, BundleWidthsActuallyExceedTheProbeCap) {
  // Guard the generator against silently shrinking its bundles: bundle-storm
  // must produce super-pairs with well over 64 parallel edges after round-1
  // contraction (cluster = s vertices).
  BundleHeavyParams p;
  p.clusters = 12;
  p.cluster_size = 16;
  p.bundle_width = 160;
  p.seed = 1;
  const EdgeList list = make_bundle_heavy(p);
  // Count inter-cluster edges between cluster 0 and 1 (vertex / 16 gives
  // the cluster id).
  std::size_t bundle01 = 0;
  for (const WeightedEdge& e : list.edges()) {
    if (e.u / 16 == 0 && e.v / 16 == 1) ++bundle01;
  }
  EXPECT_GE(bundle01, 100u);
}

// ------------------------------------------------------- typo suggestions

TEST(SuggestSimilar, RanksCloseNamesFirst) {
  std::vector<std::string> names;
  for (const Scenario& s : scenarios()) names.emplace_back(s.name);
  const auto near = CliParser::suggest_similar("bundle-havy", names);
  ASSERT_FALSE(near.empty());
  EXPECT_EQ(near.front(), "bundle-heavy");
}

TEST(SuggestSimilar, SubstringMatchesBeatEditDistance) {
  const std::vector<std::string> names = {"rmat-skew-mild", "rmat-graph500",
                                          "road-baseline"};
  const auto near = CliParser::suggest_similar("rmat", names);
  ASSERT_GE(near.size(), 2u);
  EXPECT_TRUE(near[0].rfind("rmat", 0) == 0);
  EXPECT_TRUE(near[1].rfind("rmat", 0) == 0);
}

TEST(SuggestSimilar, FarNamesProduceNoNoise) {
  const std::vector<std::string> names = {"bundle-heavy", "forest-dust"};
  EXPECT_TRUE(CliParser::suggest_similar("zzzzzzzzzzzz", names).empty());
}

TEST(SuggestSimilar, CapsTheNumberOfSuggestions) {
  const std::vector<std::string> names = {"aaa1", "aaa2", "aaa3", "aaa4",
                                          "aaa5"};
  EXPECT_LE(CliParser::suggest_similar("aaa", names, 3).size(), 3u);
}

// ------------------------------------------------------- repro formatting

TEST(ReproCommand, FormatsAllFieldsOnOneLine) {
  ReproSpec rs;
  rs.scenario = "bundle-heavy";
  rs.algo = "llp-boruvka";
  rs.seed = 17;
  rs.threads = 4;
  rs.failpoints = "llp/sweep=1*return";
  rs.sim = true;
  rs.timeline = "@40: cancel";
  const std::string cmd = format_repro_command(rs);
  EXPECT_EQ(cmd.find('\n'), std::string::npos);
  EXPECT_NE(cmd.find("mst_tool"), std::string::npos);
  EXPECT_NE(cmd.find("--scenario bundle-heavy"), std::string::npos);
  EXPECT_NE(cmd.find("--seed 17"), std::string::npos);
  EXPECT_NE(cmd.find("--algo llp-boruvka"), std::string::npos);
  EXPECT_NE(cmd.find("--threads 4"), std::string::npos);
  EXPECT_NE(cmd.find("--sim"), std::string::npos);
  EXPECT_NE(cmd.find("--failpoints 'llp/sweep=1*return'"), std::string::npos);
  EXPECT_NE(cmd.find("--sim-timeline '@40: cancel'"), std::string::npos);
}

TEST(ReproCommand, OmitsUnsetFields) {
  ReproSpec rs;
  rs.seed = 2;
  const std::string cmd = format_repro_command(rs);
  EXPECT_EQ(cmd.find("--scenario"), std::string::npos);
  EXPECT_EQ(cmd.find("--algo"), std::string::npos);
  EXPECT_EQ(cmd.find("--failpoints"), std::string::npos);
  EXPECT_EQ(cmd.find("--sim"), std::string::npos);
  EXPECT_NE(cmd.find("--seed 2"), std::string::npos);
}

}  // namespace
}  // namespace llpmst
