// Rooted-forest path queries over a set of tree edges: the machinery behind
// the MSF verifier's cycle-property certificate, and the F-light edge test
// a sampling filter (KKT, Filter-Boruvka) needs.
//
// Queries walk ancestor chains (O(path length) per query).  That is the
// simple, auditable choice: the O(1)-per-query verifiers (King/Komlós) trade
// a large constant and much more code for asymptotics that never matter at
// the scales this library targets; DESIGN.md records the tradeoff.
#pragma once

#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/types.hpp"

namespace llpmst {

class ForestPathIndex {
 public:
  /// Builds the index for the forest formed by `tree_edges` (edge ids into
  /// g).  O(n + |tree|).
  ForestPathIndex(const CsrGraph& g, const std::vector<EdgeId>& tree_edges);

  /// Builds from explicit endpoint/priority triples over `num_vertices`
  /// vertices — used when the forest lives in a contracted space where no
  /// CsrGraph exists.
  ForestPathIndex(std::size_t num_vertices,
                  const std::vector<WeightedEdge>& edges,
                  const std::vector<EdgePriority>& priorities);

  /// True iff u and v are in the same tree.
  [[nodiscard]] bool connected(VertexId u, VertexId v) const {
    return root_[u] == root_[v];
  }

  /// Maximum edge priority on the tree path u..v.  Precondition:
  /// connected(u, v); returns 0 for u == v.
  [[nodiscard]] EdgePriority max_on_path(VertexId u, VertexId v) const;

  /// The KKT "F-light" test: an edge (u, v, p) is HEAVY iff its endpoints
  /// are connected in the forest and p is strictly larger than the heaviest
  /// edge on the u..v path; everything else — including the forest's own
  /// edges, whose priority equals their path max — is light.  Only F-light
  /// edges can be in the MSF of the full graph.
  [[nodiscard]] bool is_light(VertexId u, VertexId v, EdgePriority p) const {
    if (!connected(u, v)) return true;
    return !(max_on_path(u, v) < p);
  }

 private:
  void build(std::size_t n, const std::vector<WeightedEdge>& edges,
             const std::vector<EdgePriority>& priorities);

  std::vector<VertexId> parent_;        // parent vertex (roots: self)
  std::vector<EdgePriority> parent_prio_;
  std::vector<std::uint32_t> depth_;
  std::vector<VertexId> root_;          // tree representative
};

}  // namespace llpmst
