#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/edge_list.hpp"
#include "support/random.hpp"

namespace llpmst {
namespace {

/// The comparator-sort normalize that the radix normalize replaced, kept as
/// the oracle: drop self loops, canonicalize, sort by (u, v, w), keep the
/// first (lightest) copy of each (u, v) bundle.
std::vector<WeightedEdge> reference_normalize(std::vector<WeightedEdge> es) {
  std::vector<WeightedEdge> out;
  for (WeightedEdge e : es) {
    if (e.u == e.v) continue;
    if (e.u > e.v) std::swap(e.u, e.v);
    out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              if (a.u != b.u) return a.u < b.u;
              if (a.v != b.v) return a.v < b.v;
              return a.w < b.w;
            });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const WeightedEdge& a, const WeightedEdge& b) {
                          return a.u == b.u && a.v == b.v;
                        }),
            out.end());
  return out;
}

void expect_matches_reference(EdgeList list) {
  const std::vector<WeightedEdge> want = reference_normalize(list.edges());
  list.normalize();
  EXPECT_EQ(list.edges(), want);
  EXPECT_TRUE(list.is_normalized());
}

/// A raw multigraph on n vertices: uniform endpoints (self loops and
/// parallel edges included) and weights in [0, max_w].
EdgeList random_multigraph(std::size_t n, std::size_t m, Weight max_w,
                           std::uint64_t seed) {
  Xoshiro256 rng(seed);
  EdgeList list(n);
  for (std::size_t i = 0; i < m; ++i) {
    list.add_edge(static_cast<VertexId>(rng.next_below(n)),
                  static_cast<VertexId>(rng.next_below(n)),
                  static_cast<Weight>(rng.next_in(0, max_w)));
  }
  return list;
}

TEST(EdgeList, StartsEmpty) {
  EdgeList list(4);
  EXPECT_EQ(list.num_vertices(), 4u);
  EXPECT_EQ(list.num_edges(), 0u);
  EXPECT_TRUE(list.empty());
  EXPECT_TRUE(list.is_normalized());
}

TEST(EdgeList, NormalizeDropsSelfLoops) {
  EdgeList list(3);
  list.add_edge(0, 0, 5);
  list.add_edge(0, 1, 3);
  list.add_edge(2, 2, 1);
  list.normalize();
  ASSERT_EQ(list.num_edges(), 1u);
  EXPECT_EQ(list[0], (WeightedEdge{0, 1, 3}));
}

TEST(EdgeList, NormalizeCanonicalizesEndpointOrder) {
  EdgeList list(3);
  list.add_edge(2, 0, 7);
  list.normalize();
  ASSERT_EQ(list.num_edges(), 1u);
  EXPECT_EQ(list[0].u, 0u);
  EXPECT_EQ(list[0].v, 2u);
}

TEST(EdgeList, NormalizeKeepsLightestParallelEdge) {
  EdgeList list(2);
  list.add_edge(0, 1, 9);
  list.add_edge(1, 0, 4);
  list.add_edge(0, 1, 6);
  list.normalize();
  ASSERT_EQ(list.num_edges(), 1u);
  EXPECT_EQ(list[0].w, 4u);
}

TEST(EdgeList, NormalizeSortsByEndpoints) {
  EdgeList list(4);
  list.add_edge(2, 3, 1);
  list.add_edge(0, 1, 2);
  list.add_edge(1, 3, 3);
  list.add_edge(0, 2, 4);
  list.normalize();
  ASSERT_EQ(list.num_edges(), 4u);
  EXPECT_TRUE(list.is_normalized());
  EXPECT_EQ(list[0], (WeightedEdge{0, 1, 2}));
  EXPECT_EQ(list[1], (WeightedEdge{0, 2, 4}));
  EXPECT_EQ(list[2], (WeightedEdge{1, 3, 3}));
  EXPECT_EQ(list[3], (WeightedEdge{2, 3, 1}));
}

TEST(EdgeList, IsNormalizedDetectsViolations) {
  EdgeList loops(2);
  loops.edges().push_back({1, 1, 1});
  EXPECT_FALSE(loops.is_normalized());

  EdgeList reversed(3);
  reversed.edges().push_back({2, 1, 1});
  EXPECT_FALSE(reversed.is_normalized());

  EdgeList dup(3);
  dup.edges().push_back({0, 1, 1});
  dup.edges().push_back({0, 1, 2});
  EXPECT_FALSE(dup.is_normalized());

  EdgeList out_of_range(2);
  out_of_range.edges().push_back({0, 5, 1});
  EXPECT_FALSE(out_of_range.is_normalized());
}

TEST(EdgeList, EnsureVerticesOnlyGrows) {
  EdgeList list(3);
  list.ensure_vertices(10);
  EXPECT_EQ(list.num_vertices(), 10u);
  list.ensure_vertices(5);
  EXPECT_EQ(list.num_vertices(), 10u);
}

TEST(EdgeList, NormalizeIdempotent) {
  EdgeList list(4);
  list.add_edge(3, 1, 2);
  list.add_edge(1, 3, 8);
  list.add_edge(2, 2, 1);
  list.normalize();
  const auto snapshot = list.edges();
  list.normalize();
  EXPECT_EQ(list.edges(), snapshot);
}

TEST(EdgeList, NormalizeMatchesReferenceOnRandomMultigraphs) {
  // Vertex counts below, at and around the 2^11 partition width, and large
  // enough that the partition digit leaves low u bits to sort.
  for (const std::size_t n : {1u, 2u, 3u, 2047u, 2048u, 2049u, 70001u}) {
    expect_matches_reference(random_multigraph(n, 3 * n + 50, 0xFFFFFFFFu, n));
    // Few distinct vertices and weights: long duplicate bundles.
    expect_matches_reference(random_multigraph(n, 4 * n + 50, 3, n + 1));
  }
}

TEST(EdgeList, NormalizeMatchesReferenceOnStar) {
  // With the centre as the low endpoint every edge lands in one partition
  // bucket; at 200000 vertices that bucket is past the radix path's size and
  // is sorted by comparator.  With the centre as the high endpoint the
  // edges spread over the buckets.
  for (const VertexId n : {5000u, 200000u}) {
    for (const VertexId center : {VertexId{0}, n - 1}) {
      EdgeList list(n);
      for (VertexId i = 0; i < n; ++i) {
        if (i != center) list.add_edge(i, center, (i * 7919u) % 1000u);
        if (i % 3 == 0 && i != center) list.add_edge(center, i, i);
      }
      expect_matches_reference(std::move(list));
    }
  }
}

TEST(EdgeList, NormalizeMatchesReferenceOnExtremeWeights) {
  Xoshiro256 rng(5);
  EdgeList equal(3000), extremes(3000);
  for (int i = 0; i < 20000; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(3000));
    const auto v = static_cast<VertexId>(rng.next_below(3000));
    equal.add_edge(u, v, 42);
    extremes.add_edge(u, v, rng.next_below(2) != 0 ? 0xFFFFFFFFu : 0u);
  }
  expect_matches_reference(std::move(equal));
  expect_matches_reference(std::move(extremes));
}

TEST(EdgeList, NormalizeKeepsLightestCopyWhenItComesLast) {
  EdgeList list(4000);
  for (VertexId u = 0; u + 1 < 4000; u += 2) {
    for (Weight w = 9; w >= 1; --w) list.add_edge(u + 1, u, w * 1000 + u);
  }
  list.add_edge(3, 3999, 0xFFFFFFFFu);
  list.add_edge(3999, 3, 0);
  expect_matches_reference(list);
  list.normalize();
  EXPECT_EQ(list[0], (WeightedEdge{0, 1, 1000}));
  EXPECT_EQ(list.edges().back(), (WeightedEdge{3998, 3999, 4998}));
}

TEST(EdgeList, NormalizeSelfLoopsOnlyAndEmpty) {
  EdgeList loops(3000);
  for (VertexId v = 0; v < 3000; ++v) loops.add_edge(v, v, v);
  loops.normalize();
  EXPECT_TRUE(loops.empty());
  EXPECT_EQ(loops.num_vertices(), 3000u);

  EdgeList none(3000);
  none.normalize();
  EXPECT_TRUE(none.empty());
  EdgeList zero;
  zero.normalize();
  EXPECT_TRUE(zero.empty());
}

}  // namespace
}  // namespace llpmst
