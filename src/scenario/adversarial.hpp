// Adversarial graph generators for the scenario suite.
//
// The paper evaluates two workload families (graph500 RMAT and USA roads).
// These generators target the *implementation's* weak points instead:
// near-duplicate weights stress priority tie-breaking, bundle-heavy
// multigraphs stress the contraction's bundle minimum, and hybrids
// mix morphologies so no single scheduling heuristic fits the whole graph.
// All are deterministic in (params, seed).
#pragma once

#include <cstdint>

#include "graph/edge_list.hpp"

namespace llpmst {

struct BundleHeavyParams {
  /// Vertex clusters joined internally by light paths; contraction round 1
  /// collapses each cluster to a single super-vertex.
  std::uint32_t clusters = 24;
  std::uint32_t cluster_size = 24;
  /// Heavy inter-cluster edges per cluster pair (distinct endpoint pairs, so
  /// normalize() keeps them all).  After round 1 every one of them becomes a
  /// parallel edge of the same super-pair — a bundle the contraction's pair
  /// table must cut to its lightest edge.
  std::uint32_t bundle_width = 48;
  std::uint64_t seed = 1;
};

/// Bundle-heavy multigraph: light intra-cluster paths, wide heavy
/// inter-cluster bundles.  Connected by construction (paths + a bundle
/// between consecutive clusters).
[[nodiscard]] EdgeList make_bundle_heavy(const BundleHeavyParams& params);

struct NearDuplicateParams {
  std::uint32_t num_vertices = 2048;
  std::uint64_t num_edges = 12288;
  /// Weights are drawn from [base, base + spread] — spread 1 gives the
  /// maximal-tie regime where ordering is decided almost purely by edge id.
  Weight base = 1000;
  Weight spread = 1;
  std::uint64_t seed = 1;
};

/// Erdős–Rényi topology whose weights all collide within `spread` of each
/// other: the unique-MSF tie-break (priority = (weight, id)) does all the
/// work.
[[nodiscard]] EdgeList make_near_duplicate_weights(
    const NearDuplicateParams& params);

struct GeoRoadHybridParams {
  std::uint32_t road_width = 48;
  std::uint32_t road_height = 48;
  /// Extra geometric (k-nearest) overlay vertices appended after the grid.
  std::uint32_t geo_vertices = 1024;
  std::uint32_t geo_neighbors = 5;
  /// Sparse random bridges stitching the two morphologies together.
  std::uint32_t bridges = 64;
  std::uint64_t seed = 1;
};

/// Road grid + geometric cloud + random bridges: low-degree/high-diameter
/// and irregular-degree regions in one graph, so per-round scheduling
/// decisions (grain, steal fallback) face both shapes at once.  Connected.
[[nodiscard]] EdgeList make_geo_road_hybrid(const GeoRoadHybridParams& params);

}  // namespace llpmst
