#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/algorithms/connected_components.hpp"
#include "graph/generators/by_kind.hpp"
#include "graph/generators/random_graph.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/generators/road.hpp"
#include "graph/generators/special.hpp"

namespace llpmst {
namespace {

// ---------------------------------------------------------------- by kind

TEST(GenerateByKind, RejectsOutOfRangeScales) {
  // Scale 0 would abort in generate_rmat, and a negative scale is a
  // negative shift for road and er: both must come back as errors.
  for (const char* kind : {"road", "rmat", "er"}) {
    for (const std::int64_t scale : {0, -2, 31}) {
      const Expected<EdgeList> r = generate_by_kind(kind, scale, 1);
      ASSERT_FALSE(r.ok()) << kind << " " << scale;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(r.status().message().find("[1, 30]"), std::string::npos)
          << r.status().message();
    }
    const Expected<EdgeList> smallest = generate_by_kind(kind, 1, 1);
    ASSERT_TRUE(smallest.ok()) << kind << ": " << smallest.status().message();
    EXPECT_GE(smallest->num_vertices(), 1u) << kind;
  }
  EXPECT_EQ(generate_by_kind("grid", 10, 1).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- rmat

TEST(Rmat, DeterministicForSeed) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 123;
  const EdgeList a = generate_rmat(p);
  const EdgeList b = generate_rmat(p);
  EXPECT_EQ(a.edges(), b.edges());
  p.seed = 124;
  const EdgeList c = generate_rmat(p);
  EXPECT_NE(a.edges(), c.edges());
}

TEST(Rmat, SizeAndNormalization) {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 16;
  const EdgeList g = generate_rmat(p);
  EXPECT_EQ(g.num_vertices(), 1u << 12);
  EXPECT_TRUE(g.is_normalized());
  // Dedup removes some of the edge_factor * n generated tuples, but the
  // bulk should survive at this scale.
  EXPECT_GT(g.num_edges(), (1u << 12) * 8u);
  EXPECT_LE(g.num_edges(), (1u << 12) * 16u);
}

TEST(Rmat, SkewedDegreeDistribution) {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 16;
  const EdgeList g = generate_rmat(p);
  std::vector<std::size_t> deg(g.num_vertices(), 0);
  for (const WeightedEdge& e : g.edges()) {
    ++deg[e.u];
    ++deg[e.v];
  }
  const std::size_t max_deg = *std::max_element(deg.begin(), deg.end());
  const double avg = 2.0 * g.num_edges() / g.num_vertices();
  // Kronecker graphs are heavy-tailed: the max degree dwarfs the average.
  EXPECT_GT(static_cast<double>(max_deg), 10.0 * avg);
}

TEST(Rmat, WeightsWithinBounds) {
  RmatParams p;
  p.scale = 10;
  p.max_weight = 100;
  const EdgeList g = generate_rmat(p);
  for (const WeightedEdge& e : g.edges()) {
    EXPECT_GE(e.w, 1u);
    EXPECT_LE(e.w, 100u);
  }
}

TEST(ConnectComponents, MakesGraphConnectedWithHeavyBridges) {
  // A deliberately fragmented graph.
  EdgeList list(9);
  list.add_edge(0, 1, 10);
  list.add_edge(3, 4, 20);
  list.add_edge(6, 7, 30);
  list.normalize();
  ASSERT_GT(connected_components(list).num_components, 1u);

  const std::size_t added = connect_components(list, 42);
  EXPECT_GT(added, 0u);
  EXPECT_TRUE(is_connected(list));
  // Bridges are heavier than every original edge.
  std::size_t heavy = 0;
  for (const WeightedEdge& e : list.edges()) {
    if (e.w > 30) ++heavy;
  }
  EXPECT_EQ(heavy, added);
}

TEST(ConnectComponents, NoOpOnConnectedGraph) {
  EdgeList list = make_path(10);
  EXPECT_EQ(connect_components(list), 0u);
}

// ---------------------------------------------------------------- road

TEST(Road, ConnectedAndDeterministic) {
  RoadParams p;
  p.width = 40;
  p.height = 30;
  p.seed = 7;
  const EdgeList a = generate_road_network(p);
  EXPECT_EQ(a.num_vertices(), 1200u);
  EXPECT_TRUE(a.is_normalized());
  EXPECT_TRUE(is_connected(a));
  const EdgeList b = generate_road_network(p);
  EXPECT_EQ(a.edges(), b.edges());
}

TEST(Road, RoadLikeMorphology) {
  RoadParams p;
  p.width = 64;
  p.height = 64;
  const EdgeList g = generate_road_network(p);
  const double epv =
      static_cast<double>(g.num_edges()) / static_cast<double>(g.num_vertices());
  // USA-road has m/n ~ 2.4; a grid road should land well under 3.
  EXPECT_GT(epv, 1.0);
  EXPECT_LT(epv, 3.0);
  // Max degree is bounded by the 8-neighbour stencil.
  std::vector<std::size_t> deg(g.num_vertices(), 0);
  for (const WeightedEdge& e : g.edges()) {
    ++deg[e.u];
    ++deg[e.v];
  }
  EXPECT_LE(*std::max_element(deg.begin(), deg.end()), 8u);
}

TEST(Road, SingleRowAndColumnGrids) {
  RoadParams p;
  p.width = 1;
  p.height = 20;
  EXPECT_TRUE(is_connected(generate_road_network(p)));
  p.width = 20;
  p.height = 1;
  EXPECT_TRUE(is_connected(generate_road_network(p)));
  p.width = 1;
  p.height = 1;
  const EdgeList single = generate_road_network(p);
  EXPECT_EQ(single.num_vertices(), 1u);
  EXPECT_EQ(single.num_edges(), 0u);
}

TEST(Road, AggressiveDroppingStillConnected) {
  RoadParams p;
  p.width = 50;
  p.height = 50;
  p.keep_street = 0.5;  // drop half of all streets
  EXPECT_TRUE(is_connected(generate_road_network(p)));
}

// ---------------------------------------------------------------- random

TEST(ErdosRenyi, DeterministicNormalizedAndSized) {
  ErdosRenyiParams p;
  p.num_vertices = 500;
  p.num_edges = 2000;
  const EdgeList a = generate_erdos_renyi(p);
  const EdgeList b = generate_erdos_renyi(p);
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_TRUE(a.is_normalized());
  EXPECT_LE(a.num_edges(), 2000u);
  EXPECT_GT(a.num_edges(), 1800u);  // few collisions at this density
}

TEST(ErdosRenyi, TinyGraphs) {
  ErdosRenyiParams p;
  p.num_vertices = 1;
  p.num_edges = 10;
  EXPECT_EQ(generate_erdos_renyi(p).num_edges(), 0u);  // only self loops
  p.num_vertices = 2;
  const EdgeList two = generate_erdos_renyi(p);
  EXPECT_LE(two.num_edges(), 1u);
}

TEST(Geometric, LocalEdgesAndDeterminism) {
  GeometricParams p;
  p.num_vertices = 800;
  p.neighbors = 4;
  const EdgeList a = generate_geometric(p);
  EXPECT_TRUE(a.is_normalized());
  EXPECT_GE(a.num_edges(), 800u * 4 / 2 / 2);  // dedup halves at most ~half
  const EdgeList b = generate_geometric(p);
  EXPECT_EQ(a.edges(), b.edges());
}

// ---------------------------------------------------------------- special

TEST(Special, PathShape) {
  const EdgeList g = make_path(5);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Special, CycleShape) {
  const EdgeList g = make_cycle(6);
  EXPECT_EQ(g.num_edges(), 6u);
  std::vector<std::size_t> deg(6, 0);
  for (const WeightedEdge& e : g.edges()) {
    ++deg[e.u];
    ++deg[e.v];
  }
  for (auto d : deg) EXPECT_EQ(d, 2u);
}

TEST(Special, StarShape) {
  const EdgeList g = make_star(7);
  EXPECT_EQ(g.num_edges(), 6u);
  std::size_t center_deg = 0;
  for (const WeightedEdge& e : g.edges()) center_deg += (e.u == 0);
  EXPECT_EQ(center_deg, 6u);
}

TEST(Special, CompleteShape) {
  const EdgeList g = make_complete(6);
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Special, RandomTreeIsSpanningTree) {
  const EdgeList g = make_random_tree(100, 3);
  EXPECT_EQ(g.num_edges(), 99u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Special, ForestHasExpectedComponents) {
  const EdgeList g = make_forest(4, 25, 9);
  EXPECT_EQ(g.num_vertices(), 100u);
  EXPECT_EQ(g.num_edges(), 4u * 24u);
  EXPECT_EQ(connected_components(g).num_components, 4u);
}

TEST(Special, PaperFigure1Exact) {
  const EdgeList g = make_paper_figure1();
  EXPECT_EQ(g.num_vertices(), 5u);
  ASSERT_EQ(g.num_edges(), 7u);
  TotalWeight total = 0;
  for (const WeightedEdge& e : g.edges()) total += e.w;
  EXPECT_EQ(total, 41u);  // 5+4+3+7+9+11+2
}

}  // namespace
}  // namespace llpmst
