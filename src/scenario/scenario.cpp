#include "scenario/scenario.hpp"

#include <cstdio>

#include "graph/csr_graph.hpp"
#include "graph/generators/random_graph.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/generators/road.hpp"
#include "graph/generators/special.hpp"
#include "mst/kruskal.hpp"
#include "scenario/adversarial.hpp"

namespace llpmst {

namespace {

// ---- Generator thunks.  Each takes ONLY the seed; every other parameter
// is pinned here so a scenario name means the same workload forever.

EdgeList rmat_with(int scale, double a, double b, double c,
                   std::uint64_t seed) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = 8;
  p.a = a;
  p.b = b;
  p.c = c;
  p.seed = seed;
  return generate_rmat(p);
}

EdgeList make_rmat_skew_mild(std::uint64_t seed) {
  // a=0.45: barely skewed — degree distribution close to Erdős–Rényi.
  return rmat_with(10, 0.45, 0.22, 0.22, seed);
}

EdgeList make_rmat_graph500(std::uint64_t seed) {
  // The paper's parameters at test scale.
  return rmat_with(10, 0.57, 0.19, 0.19, seed);
}

EdgeList make_rmat_skew_extreme(std::uint64_t seed) {
  // a=0.70: heavy-tailed degrees, a few huge hubs — worst case for chunked
  // load balance.
  return rmat_with(10, 0.70, 0.12, 0.12, seed);
}

EdgeList make_near_duplicate(std::uint64_t seed) {
  NearDuplicateParams p;
  p.seed = seed;
  return make_near_duplicate_weights(p);
}

EdgeList make_uniform_ties(std::uint64_t seed) {
  // spread 0: EVERY weight identical; priority order degenerates to edge
  // ids alone.
  NearDuplicateParams p;
  p.spread = 0;
  p.seed = seed;
  return make_near_duplicate_weights(p);
}

EdgeList make_bundles(std::uint64_t seed) {
  BundleHeavyParams p;
  p.seed = seed;
  return make_bundle_heavy(p);
}

EdgeList make_bundle_storm(std::uint64_t seed) {
  // Few components, many edges: 12 super-vertices joined by 160-edge
  // bundles after round 1.
  BundleHeavyParams p;
  p.clusters = 12;
  p.cluster_size = 16;
  p.bundle_width = 160;
  p.seed = seed;
  return make_bundle_heavy(p);
}

EdgeList make_hybrid(std::uint64_t seed) {
  GeoRoadHybridParams p;
  p.seed = seed;
  return make_geo_road_hybrid(p);
}

EdgeList make_forest_many(std::uint64_t seed) {
  // 64 random trees: nothing to contract ACROSS components, so component
  // bookkeeping must terminate without any merging work.
  return make_forest(64, 24, seed);
}

EdgeList make_forest_dust(std::uint64_t seed) {
  // Dust regime: hundreds of tiny components, rounds dominated by
  // per-component overhead rather than edge work.
  return make_forest(400, 3, seed);
}

EdgeList make_road_baseline(std::uint64_t seed) {
  RoadParams p;
  p.width = 48;
  p.height = 48;
  p.seed = seed;
  return generate_road_network(p);
}

EdgeList make_geometric_knn(std::uint64_t seed) {
  GeometricParams p;
  p.num_vertices = 3000;
  p.neighbors = 5;
  p.seed = seed;
  EdgeList list = generate_geometric(p);
  connect_components(list, seed ^ 0xc0ffee);
  return list;
}

const std::vector<Scenario>& registry() {
  // Deadlines are deliberately absent (0) on the conformance scenarios —
  // they must run to completion everywhere, including slow sanitizer CI.
  // Chaos-flavoured scenarios arm failpoints instead; they are excluded
  // from bit-exact conformance by their non-empty failpoints spec.
  static const std::vector<Scenario> table = {
      {"rmat-skew-mild", "rmat-skew",
       "RMAT a=0.45: near-uniform degrees, the easy end of the skew sweep",
       make_rmat_skew_mild, {.connected = false, .min_components = 1}, "", 0},
      {"rmat-graph500", "rmat-skew",
       "RMAT a=0.57 (graph500): the paper's workload family at test scale",
       make_rmat_graph500, {.connected = false, .min_components = 1}, "", 0},
      {"rmat-skew-extreme", "rmat-skew",
       "RMAT a=0.70: hub-dominated degrees, stresses the adaptive chunked "
       "sweeps' load balance",
       make_rmat_skew_extreme, {.connected = false, .min_components = 1}, "",
       0},
      {"near-duplicate-weights", "weights",
       "all weights within 1 of each other: (weight, id) tie-breaking "
       "decides nearly every comparison",
       make_near_duplicate, {.connected = false, .min_components = 1}, "", 0},
      {"uniform-weight-ties", "weights",
       "every weight identical: priority order degenerates to edge ids",
       make_uniform_ties, {.connected = false, .min_components = 1}, "", 0},
      {"bundle-heavy", "bundles",
       "clusters collapse in round 1, leaving wide parallel bundles that "
       "the contraction's pair table must cut to their minima",
       make_bundles, {.connected = true, .min_components = 1}, "", 0},
      {"bundle-storm", "bundles",
       "160-edge bundles between 12 super-vertices: few components, many "
       "edges",
       make_bundle_storm, {.connected = true, .min_components = 1}, "", 0},
      {"geo-road-hybrid", "hybrid",
       "road grid + geometric cloud + random bridges: two morphologies, one "
       "graph, no single-grain sweet spot",
       make_hybrid, {.connected = true, .min_components = 1}, "", 0},
      {"forest-many-components", "forest",
       "64 disjoint random trees: MSF bookkeeping with zero cross-component "
       "merges",
       make_forest_many, {.connected = false, .min_components = 64}, "", 0},
      {"forest-dust", "forest",
       "400 three-vertex components: per-component overhead dominates",
       make_forest_dust, {.connected = false, .min_components = 400}, "", 0},
      {"road-baseline", "baseline",
       "synthetic road grid: the paper's low-degree/high-diameter family",
       make_road_baseline, {.connected = true, .min_components = 1}, "", 0},
      {"geometric-knn", "baseline",
       "k-nearest geometric graph, patched connected: between road and RMAT "
       "morphology",
       make_geometric_knn, {.connected = true, .min_components = 1}, "", 0},
      {"chaos-yield-road", "chaos",
       "road grid with yield perturbation on every team region and LLP "
       "sweep (schedule noise, no injected failures)",
       make_road_baseline, {.connected = true, .min_components = 1},
       "pool/task=30%yield;llp/sweep=40%yield", 0},
      {"chaos-handoff-sleep", "chaos",
       "road grid with 200us sleeps at the LLP-Prim bag/heap handoff "
       "(stretches the sequential window)",
       make_road_baseline, {.connected = true, .min_components = 1},
       "llp_prim/handoff=50%sleep(200)", 0},
  };
  return table;
}

}  // namespace

const std::vector<Scenario>& scenarios() { return registry(); }

const Scenario* find_scenario(std::string_view name) {
  for (const Scenario& s : registry()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::string scenario_names(const char* separator) {
  std::string out;
  for (const Scenario& s : registry()) {
    if (!out.empty()) out += separator;
    out += s.name;
  }
  return out;
}

std::string check_scenario_result(const Scenario& scenario, const CsrGraph& g,
                                  const MstResult& result,
                                  bool compare_edges) {
  char buf[160];
  const std::size_t n = g.num_vertices();

  // Structural expectations first: they catch broken GENERATORS as well as
  // broken algorithms.
  if (scenario.expect.connected && result.num_trees != 1) {
    std::snprintf(buf, sizeof buf,
                  "expected a spanning tree but got %zu trees",
                  result.num_trees);
    return buf;
  }
  if (result.num_trees < scenario.expect.min_components) {
    std::snprintf(buf, sizeof buf, "expected >= %zu components, got %zu",
                  scenario.expect.min_components, result.num_trees);
    return buf;
  }
  if (result.edges.size() + result.num_trees != n) {
    std::snprintf(buf, sizeof buf,
                  "forest accounting broken: %zu edges + %zu trees != %zu "
                  "vertices",
                  result.edges.size(), result.num_trees, n);
    return buf;
  }

  // Oracle conformance: the unique (weight, id)-priority MSF.
  const MstResult oracle = kruskal(g);
  if (result.total_weight != oracle.total_weight) {
    std::snprintf(buf, sizeof buf,
                  "total weight %llu != oracle %llu",
                  static_cast<unsigned long long>(result.total_weight),
                  static_cast<unsigned long long>(oracle.total_weight));
    return buf;
  }
  if (compare_edges && result.edges != oracle.edges) {
    return "edge set differs from the Kruskal oracle (weights agree — "
           "tie-break divergence)";
  }
  return "";
}

}  // namespace llpmst
