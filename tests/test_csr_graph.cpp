#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/generators/random_graph.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/generators/road.hpp"
#include "graph/generators/special.hpp"
#include "parallel/thread_pool.hpp"
#include "support/random.hpp"

namespace llpmst {
namespace {

EdgeList fig1() { return make_paper_figure1(); }

/// The six CSR sections as the fill-then-sort-each-row build produced them,
/// kept as the oracle for the blocked radix build.
struct ReferenceCsr {
  std::vector<std::uint64_t> offsets;
  std::vector<VertexId> targets;
  std::vector<EdgePriority> priorities;
  std::vector<EdgePriority> mwe;
  std::vector<std::uint8_t> mwe_flags;
};

ReferenceCsr reference_build(const EdgeList& list) {
  const std::size_t n = list.num_vertices();
  const std::size_t m = list.num_edges();
  ReferenceCsr r;
  r.offsets.assign(n + 1, 0);
  for (const WeightedEdge& e : list.edges()) {
    ++r.offsets[e.u + 1];
    ++r.offsets[e.v + 1];
  }
  for (std::size_t v = 0; v < n; ++v) r.offsets[v + 1] += r.offsets[v];
  std::vector<std::pair<EdgePriority, VertexId>> arcs(2 * m);
  std::vector<std::uint64_t> cursor(r.offsets.begin(), r.offsets.end() - 1);
  for (std::size_t i = 0; i < m; ++i) {
    const WeightedEdge& e = list[i];
    const EdgePriority p = make_priority(e.w, static_cast<EdgeId>(i));
    arcs[cursor[e.u]++] = {p, e.v};
    arcs[cursor[e.v]++] = {p, e.u};
  }
  r.mwe.assign(n, kInfinitePriority);
  for (std::size_t v = 0; v < n; ++v) {
    std::sort(arcs.begin() + static_cast<std::ptrdiff_t>(r.offsets[v]),
              arcs.begin() + static_cast<std::ptrdiff_t>(r.offsets[v + 1]));
    if (r.offsets[v] != r.offsets[v + 1]) r.mwe[v] = arcs[r.offsets[v]].first;
  }
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t i = r.offsets[v]; i < r.offsets[v + 1]; ++i) {
      r.priorities.push_back(arcs[i].first);
      r.targets.push_back(arcs[i].second);
      r.mwe_flags.push_back(arcs[i].first == r.mwe[v] ||
                            arcs[i].first == r.mwe[arcs[i].second]);
    }
  }
  return r;
}

template <typename T>
bool same(std::span<const T> got, const std::vector<T>& want) {
  return std::equal(got.begin(), got.end(), want.begin(), want.end());
}

/// Builds `list` sequentially and on pools of 1, 2 and 4 threads, and checks
/// every section of every build against the reference.
void expect_builds_match_reference(const EdgeList& list) {
  const ReferenceCsr want = reference_build(list);
  for (const std::size_t threads : {0u, 1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    CsrGraph g;
    if (threads == 0) {
      g = CsrGraph::build(list);
    } else {
      ThreadPool pool(threads);
      g = CsrGraph::build(list, &pool);
    }
    const CsrSections& s = g.storage()->sections();
    EXPECT_TRUE(same(s.offsets, want.offsets));
    EXPECT_TRUE(same(s.targets, want.targets));
    EXPECT_TRUE(same(s.priorities, want.priorities));
    EXPECT_TRUE(same(s.mwe, want.mwe));
    EXPECT_TRUE(same(s.mwe_flags, want.mwe_flags));
    EXPECT_TRUE(same(s.edges, list.edges()));
  }
}

/// FNV-1a-64 over the bytes of all six sections, chained in storage order.
std::uint64_t sections_hash(const CsrGraph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const auto span) {
    const auto bytes = std::as_bytes(span);
    for (const std::byte b : bytes) {
      h = (h ^ static_cast<std::uint8_t>(b)) * 0x100000001b3ULL;
    }
  };
  const CsrSections& s = g.storage()->sections();
  mix(s.offsets);
  mix(s.targets);
  mix(s.priorities);
  mix(s.mwe);
  mix(s.mwe_flags);
  mix(s.edges);
  return h;
}

std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

TEST(CsrGraph, BasicCounts) {
  const CsrGraph g = CsrGraph::build(fig1());
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 7u);
  EXPECT_EQ(g.num_arcs(), 14u);
  EXPECT_EQ(g.total_weight(), 5u + 4 + 3 + 7 + 9 + 11 + 2);
}

TEST(CsrGraph, DegreesMatchFigure1) {
  const CsrGraph g = CsrGraph::build(fig1());
  EXPECT_EQ(g.degree(0), 2u);  // a: b, c
  EXPECT_EQ(g.degree(1), 3u);  // b: a, c, d
  EXPECT_EQ(g.degree(2), 4u);  // c: a, b, d, e
  EXPECT_EQ(g.degree(3), 3u);  // d: b, c, e
  EXPECT_EQ(g.degree(4), 2u);  // e: c, d
}

TEST(CsrGraph, RowsSortedByPriorityAndConsistent) {
  const CsrGraph g = CsrGraph::build(fig1());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto prios = g.arc_priorities(v);
    const auto nbrs = g.neighbors(v);
    ASSERT_EQ(prios.size(), nbrs.size());
    EXPECT_TRUE(std::is_sorted(prios.begin(), prios.end()));
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const EdgeId e = priority_edge(prios[i]);
      const WeightedEdge& we = g.edge(e);
      EXPECT_EQ(priority_weight(prios[i]), we.w);
      // Arc endpoints must be the edge's endpoints.
      EXPECT_TRUE((we.u == v && we.v == nbrs[i]) ||
                  (we.v == v && we.u == nbrs[i]));
    }
  }
}

TEST(CsrGraph, MinIncidentPriorityMatchesFigure1) {
  const CsrGraph g = CsrGraph::build(fig1());
  // Minimum incident weights from the paper's adjacency table: a:4, b:3,
  // c:3, d:2, e:2.
  EXPECT_EQ(priority_weight(g.min_incident_priority(0)), 4u);
  EXPECT_EQ(priority_weight(g.min_incident_priority(1)), 3u);
  EXPECT_EQ(priority_weight(g.min_incident_priority(2)), 3u);
  EXPECT_EQ(priority_weight(g.min_incident_priority(3)), 2u);
  EXPECT_EQ(priority_weight(g.min_incident_priority(4)), 2u);
}

TEST(CsrGraph, IsolatedVertexHasInfiniteMwe) {
  EdgeList list(3);
  list.add_edge(0, 1, 5);
  list.normalize();
  const CsrGraph g = CsrGraph::build(list);
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_EQ(g.min_incident_priority(2), kInfinitePriority);
  EXPECT_TRUE(g.neighbors(2).empty());
}

TEST(CsrGraph, EmptyGraph) {
  const CsrGraph g = CsrGraph::build(EdgeList(0));
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(CsrGraph, VerticesWithoutEdges) {
  const CsrGraph g = CsrGraph::build(EdgeList(7));
  EXPECT_EQ(g.num_vertices(), 7u);
  for (VertexId v = 0; v < 7; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(CsrGraph, ParallelBuildMatchesSequential) {
  ErdosRenyiParams params;
  params.num_vertices = 2000;
  params.num_edges = 12000;
  params.seed = 31;
  const EdgeList list = generate_erdos_renyi(params);

  const CsrGraph seq = CsrGraph::build(list);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    const CsrGraph par = CsrGraph::build(list, &pool);

    ASSERT_EQ(seq.num_vertices(), par.num_vertices());
    ASSERT_EQ(seq.num_edges(), par.num_edges());
    for (VertexId v = 0; v < seq.num_vertices(); ++v) {
      const auto sp = seq.arc_priorities(v);
      const auto pp = par.arc_priorities(v);
      ASSERT_TRUE(std::equal(sp.begin(), sp.end(), pp.begin(), pp.end()))
          << "row " << v << " threads " << threads;
      const auto sn = seq.neighbors(v);
      const auto pn = par.neighbors(v);
      ASSERT_TRUE(std::equal(sn.begin(), sn.end(), pn.begin(), pn.end()))
          << "row " << v << " threads " << threads;
      ASSERT_EQ(seq.min_incident_priority(v), par.min_incident_priority(v));
    }
    EXPECT_EQ(sections_hash(seq), sections_hash(par)) << threads;
  }
}

TEST(CsrGraph, SectionsMatchGoldenHashes) {
  // Pinned from the fill-then-sort-each-row build; any change to the bytes
  // of a built graph (or to the generators feeding it) shows up here.
  const auto rmat = [](std::uint64_t seed) {
    RmatParams p;
    p.scale = 10;
    p.seed = seed;
    return generate_rmat(p);
  };
  const auto road = [](std::uint32_t side) {
    RoadParams p;
    p.width = p.height = side;
    p.seed = 1;
    return generate_road_network(p);
  };
  const std::pair<EdgeList, const char*> cases[] = {
      {rmat(1), "2f98a086be97702f"},
      {rmat(1000), "79f2ada0290acbfe"},
      {rmat(1001), "cbfb1ad5a3279b1b"},
      {road(32), "22678bc630129172"},
      {road(256), "5951570a6f281d40"},
  };
  ThreadPool pool(4);
  for (const auto& [list, want] : cases) {
    EXPECT_EQ(hex(sections_hash(CsrGraph::build(list))), want);
    EXPECT_EQ(hex(sections_hash(CsrGraph::build(list, &pool))), want);
  }
}

TEST(CsrGraph, BuildMatchesReferenceOnStar) {
  // One block holds almost every arc: the centre's row.  At 300000 leaves
  // that block is past the radix path's size and is sorted by comparator.
  for (const std::uint32_t n : {5000u, 300000u}) {
    expect_builds_match_reference(make_star(n));
    expect_builds_match_reference(make_star(n, 7));
  }
  EdgeList hub(6000);
  for (VertexId v = 0; v < 6000; ++v) {
    if (v != 3100) hub.add_edge(v, 3100, (v * 2654435761u) >> 8);
  }
  hub.normalize();
  expect_builds_match_reference(hub);
}

TEST(CsrGraph, BuildMatchesReferenceOnRaggedAndSparseVertexSets) {
  // Vertex counts that are not a multiple of any block size, and vertices
  // with no arcs at the start, middle and end of the id space.
  for (const std::uint32_t n : {1u, 2u, 255u, 257u, 1001u, 70001u}) {
    Xoshiro256 rng(n);
    EdgeList list(n);
    for (std::uint32_t i = 0; i < 3 * n; ++i) {
      const auto u = static_cast<VertexId>(rng.next_below(n));
      const auto v = static_cast<VertexId>(rng.next_below(n));
      if (u % 5 == 0 || v % 5 == 0 || u + 1 >= n) continue;
      list.add_edge(u, v, static_cast<Weight>(rng.next()));
    }
    list.normalize();
    SCOPED_TRACE("n " + std::to_string(n));
    expect_builds_match_reference(list);
  }
}

TEST(CsrGraph, BuildMatchesReferenceOnExtremeWeights) {
  Xoshiro256 rng(9);
  EdgeList equal(4000), extremes(4000);
  for (int i = 0; i < 30000; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(4000));
    const auto v = static_cast<VertexId>(rng.next_below(4000));
    equal.add_edge(u, v, 77);  // no varying weight digit: zero passes
    extremes.add_edge(u, v, rng.next_below(2) != 0 ? 0xFFFFFFFFu : 0u);
  }
  equal.normalize();
  extremes.normalize();
  expect_builds_match_reference(equal);
  expect_builds_match_reference(extremes);
}

TEST(CsrGraph, BuildMatchesReferenceOnEmptyEdgeSets) {
  EdgeList loops(3000);
  for (VertexId v = 0; v < 3000; ++v) loops.add_edge(v, v, 1);
  loops.normalize();
  expect_builds_match_reference(loops);
  expect_builds_match_reference(EdgeList(0));
  expect_builds_match_reference(EdgeList(1));
}

TEST(CsrGraph, BuildMatchesReferenceOnRmat) {
  RmatParams p;
  p.scale = 14;
  p.max_weight = 1000;  // many equal weights: id order breaks the ties
  expect_builds_match_reference(generate_rmat(p));
}

TEST(CsrGraph, BuildRejectsUnnormalizedInput) {
  EdgeList list(3);
  list.add_edge(2, 1, 5);  // reversed endpoints, not normalized
  EXPECT_DEATH(CsrGraph::build(list), "normalized");
}

TEST(CsrGraph, ArcMweFlagsMatchDefinition) {
  ErdosRenyiParams params;
  params.num_vertices = 300;
  params.num_edges = 1500;
  params.seed = 19;
  const CsrGraph g = CsrGraph::build(generate_erdos_renyi(params));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto prios = g.arc_priorities(v);
    const auto flags = g.arc_mwe_flags(v);
    ASSERT_EQ(flags.size(), nbrs.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const bool expected = prios[i] == g.min_incident_priority(v) ||
                            prios[i] == g.min_incident_priority(nbrs[i]);
      ASSERT_EQ(flags[i] != 0, expected) << "v=" << v << " arc " << i;
    }
  }
}

TEST(CsrGraph, EveryVertexHasExactlyOneMweAndItIsFlagged) {
  const CsrGraph g = CsrGraph::build(make_paper_figure1());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto prios = g.arc_priorities(v);
    const auto flags = g.arc_mwe_flags(v);
    ASSERT_FALSE(prios.empty());
    // Row is priority-sorted: arc 0 is v's MWE and must be flagged.
    EXPECT_EQ(prios[0], g.min_incident_priority(v));
    EXPECT_TRUE(flags[0]);
  }
}

TEST(PackedPriority, RoundTripsAndOrders) {
  const EdgePriority p = make_priority(100, 7);
  EXPECT_EQ(priority_weight(p), 100u);
  EXPECT_EQ(priority_edge(p), 7u);
  // Weight dominates; edge id breaks ties.
  EXPECT_LT(make_priority(5, 999), make_priority(6, 0));
  EXPECT_LT(make_priority(5, 3), make_priority(5, 4));
  EXPECT_LT(make_priority(5, 4), kInfinitePriority);
}

}  // namespace
}  // namespace llpmst
