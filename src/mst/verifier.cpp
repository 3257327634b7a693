#include "mst/verifier.hpp"

#include <algorithm>
#include <vector>

#include "core/run_context.hpp"
#include "ds/union_find.hpp"
#include "graph/algorithms/connected_components.hpp"
#include "mst/forest_path.hpp"

namespace llpmst {

namespace {

/// Shape check, plus the spanning check when `spanning`; on success also
/// reports the component count its union-find derived (a free byproduct the
/// ctx overloads cache).
VerifyResult forest_impl(const CsrGraph& g, const MstResult& r, bool spanning,
                         std::size_t* components_out) {
  const std::size_t n = g.num_vertices();
  const std::size_t m = g.num_edges();

  // Edge ids valid and distinct (result edges are sorted by contract).
  for (std::size_t i = 0; i < r.edges.size(); ++i) {
    if (r.edges[i] >= m) return {false, "edge id out of range"};
    if (i > 0 && r.edges[i] <= r.edges[i - 1]) {
      return {false, "edge ids not strictly ascending (duplicate?)"};
    }
  }

  // Acyclic: each edge must join two different UF components.
  UnionFind uf(n);
  TotalWeight weight = 0;
  bool overflow = false;
  for (EdgeId e : r.edges) {
    const WeightedEdge& we = g.edge(e);
    if (!uf.unite(we.u, we.v)) return {false, "chosen edges contain a cycle"};
    if (!checked_weight_add(weight, we.w)) overflow = true;
  }
  if (overflow != r.weight_overflow) {
    return {false, overflow
                       ? "total_weight overflowed but the result did not "
                         "flag it"
                       : "result flags weight_overflow but the sum fits"};
  }
  if (!overflow && weight != r.total_weight) {
    return {false, "total_weight does not match the edge set"};
  }

  // Spanning: every input edge must stay within one forest component, so
  // the forest has as many components as the input graph.  A partial forest
  // skips this; its num_trees is then its own component count.
  if (spanning) {
    for (const WeightedEdge& we : g.edges()) {
      if (uf.find(we.u) != uf.find(we.v)) {
        return {false, "forest does not span a connected component"};
      }
    }
  }
  if (r.num_trees != uf.num_sets()) {
    return {false, "num_trees does not match the component count"};
  }
  if (components_out != nullptr) *components_out = uf.num_sets();
  return {true, {}};
}

/// Cycle property: every non-tree edge must be the heaviest edge on the
/// cycle it closes.  With unique priorities this certifies minimality.
VerifyResult cycle_property(const CsrGraph& g, const MstResult& r) {
  std::vector<bool> in_tree(g.num_edges(), false);
  for (EdgeId e : r.edges) in_tree[e] = true;

  const ForestPathIndex f(g, r.edges);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (in_tree[e]) continue;
    const WeightedEdge& we = g.edge(e);
    const EdgePriority p = make_priority(we.w, e);
    const EdgePriority path_max = f.max_on_path(we.u, we.v);
    if (!(path_max < p)) {
      return {false, "cycle property violated: non-tree edge " +
                         std::to_string(e) + " is lighter than a tree edge "
                         "on its cycle"};
    }
  }
  return {true, {}};
}

}  // namespace

VerifyResult verify_spanning_forest(const CsrGraph& g, const MstResult& r) {
  return forest_impl(g, r, /*spanning=*/true, nullptr);
}

VerifyResult verify_partial_forest(const CsrGraph& g, const MstResult& r) {
  return forest_impl(g, r, /*spanning=*/false, nullptr);
}

VerifyResult verify_spanning_forest(const CsrGraph& g, const MstResult& r,
                                    RunContext& ctx) {
  // Fast cross-check against the cached connectivity answer (e.g. from the
  // mst::auto selection check) before any edge work.
  if (ctx.components_cached(g) && r.num_trees != ctx.num_components(g)) {
    return {false, "num_trees does not match the component count"};
  }
  std::size_t components = 0;
  VerifyResult v = forest_impl(g, r, /*spanning=*/true, &components);
  if (v.ok) ctx.seed_components(g, components);
  return v;
}

VerifyResult verify_msf(const CsrGraph& g, const MstResult& r) {
  VerifyResult shape = verify_spanning_forest(g, r);
  if (!shape.ok) return shape;
  return cycle_property(g, r);
}

VerifyResult verify_msf(const CsrGraph& g, const MstResult& r,
                        RunContext& ctx) {
  VerifyResult shape = verify_spanning_forest(g, r, ctx);
  if (!shape.ok) return shape;
  return cycle_property(g, r);
}

}  // namespace llpmst
