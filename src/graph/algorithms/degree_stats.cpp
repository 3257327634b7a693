#include "graph/algorithms/degree_stats.hpp"

#include <algorithm>
#include <cstdio>

#include "ds/union_find.hpp"

namespace llpmst {

GraphStats compute_stats(const CsrGraph& g) {
  GraphStats s;
  s.num_vertices = g.num_vertices();
  s.num_edges = g.num_edges();
  if (s.num_vertices == 0) return s;

  s.min_degree = g.degree(0);
  for (VertexId v = 0; v < s.num_vertices; ++v) {
    const std::size_t d = g.degree(static_cast<VertexId>(v));
    s.min_degree = std::min(s.min_degree, d);
    s.max_degree = std::max(s.max_degree, d);
  }
  s.avg_degree =
      2.0 * static_cast<double>(s.num_edges) / static_cast<double>(s.num_vertices);
  s.edges_per_vertex =
      static_cast<double>(s.num_edges) / static_cast<double>(s.num_vertices);

  // One in-place pass over the edges: weight range and components.
  UnionFind uf(s.num_vertices);
  if (!g.edges().empty()) {
    s.min_weight = g.edges().front().w;
    s.max_weight = s.min_weight;
  }
  for (const WeightedEdge& e : g.edges()) {
    s.min_weight = std::min(s.min_weight, e.w);
    s.max_weight = std::max(s.max_weight, e.w);
    uf.unite(e.u, e.v);
  }
  s.num_components = uf.num_sets();
  return s;
}

std::string describe(const GraphStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "n=%zu m=%zu m/n=%.2f deg[min=%zu avg=%.2f max=%zu] "
                "components=%zu w=[%u,%u]",
                s.num_vertices, s.num_edges, s.edges_per_vertex, s.min_degree,
                s.avg_degree, s.max_degree, s.num_components, s.min_weight,
                s.max_weight);
  return buf;
}

}  // namespace llpmst
