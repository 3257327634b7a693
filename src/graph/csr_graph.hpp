// Compressed sparse row (CSR) graph: the traversal representation used by
// Prim, LLP-Prim, and round 0 of Boruvka.
//
// Built from a *normalized* EdgeList (see EdgeList::normalize).  The i-th
// edge of that list is undirected edge id i; the CSR stores both directed
// arcs of every undirected edge.  Arcs carry the packed priority of their
// undirected edge (see graph/types.hpp), so the arc's weight and edge id are
// both recoverable from one 64-bit load, and per-vertex minimum-weight-edge
// (MWE) selection is a plain min over the arc priorities.
//
// The original edge list is retained: edge-id -> (u, v, w) lookups are O(1)
// and the edge-centric passes of Boruvka iterate it directly.
//
// Since the storage refactor a CsrGraph is a cheap HANDLE: the six arrays
// live behind a shared, immutable GraphStorage (graph/storage.hpp) — owned
// heap vectors for built graphs, a read-only mmap for `llpmstb` snapshot
// files (graph/io/binary_csr.hpp) — and every accessor is a span over that
// storage.  Copying a CsrGraph copies two pointers and the section table;
// the bytes are shared.  Algorithm code is unchanged either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/storage.hpp"
#include "graph/types.hpp"
#include "parallel/executor.hpp"
#include "support/assert.hpp"

namespace llpmst {

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds from a normalized edge list into owned heap storage.  If `pool`
  /// is non-null the arc placement and block sorts run on it; the result is
  /// byte-identical either way.  LLPMST_CHECKs that the list is normalized.
  static CsrGraph build(const EdgeList& list, Executor* pool = nullptr);

  /// Wraps an already-validated storage backend (the mmap loader's entry
  /// point).  LLPMST_CHECKs the section shape contract (offsets n+1,
  /// targets/priorities/flags 2m, mwe n, edges m).
  static CsrGraph from_storage(StoragePtr storage);

  [[nodiscard]] std::size_t num_vertices() const {
    return sec_.offsets.empty() ? 0 : sec_.offsets.size() - 1;
  }
  [[nodiscard]] std::size_t num_edges() const { return sec_.edges.size(); }
  [[nodiscard]] std::size_t num_arcs() const { return sec_.targets.size(); }

  /// Degree of v (number of incident undirected edges).
  [[nodiscard]] std::size_t degree(VertexId v) const {
    LLPMST_ASSERT(v < num_vertices());
    return static_cast<std::size_t>(sec_.offsets[v + 1] - sec_.offsets[v]);
  }

  /// Neighbor vertex ids of v, parallel to arc_priorities(v).
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const {
    LLPMST_ASSERT(v < num_vertices());
    return sec_.targets.subspan(sec_.offsets[v], degree(v));
  }

  /// Packed priorities of the arcs out of v, parallel to neighbors(v).
  [[nodiscard]] std::span<const EdgePriority> arc_priorities(VertexId v) const {
    LLPMST_ASSERT(v < num_vertices());
    return sec_.priorities.subspan(sec_.offsets[v], degree(v));
  }

  /// The undirected edges, indexed by edge id.
  [[nodiscard]] std::span<const WeightedEdge> edges() const {
    return sec_.edges;
  }

  [[nodiscard]] const WeightedEdge& edge(EdgeId e) const {
    LLPMST_ASSERT(e < sec_.edges.size());
    return sec_.edges[e];
  }

  /// Packed priority of undirected edge e.
  [[nodiscard]] EdgePriority edge_priority(EdgeId e) const {
    LLPMST_ASSERT(e < sec_.edges.size());
    return make_priority(sec_.edges[e].w, e);
  }

  /// Priority of v's minimum-weight incident edge, or kInfinitePriority for
  /// an isolated vertex.  Precomputed at build time — the paper notes the
  /// MWE set "can be computed when the graph is input".
  [[nodiscard]] EdgePriority min_incident_priority(VertexId v) const {
    LLPMST_ASSERT(v < num_vertices());
    return sec_.mwe[v];
  }

  /// Per-arc MWE flags, parallel to neighbors(v)/arc_priorities(v): flag i
  /// is 1 iff that arc's edge is the minimum-weight incident edge of EITHER
  /// endpoint (i.e. it is in the paper's MWE set and triggers LLP-Prim's
  /// early fixing).  Stored alongside the arc stream so the hot relaxation
  /// loop reads it sequentially instead of chasing mwe_[target] randomly.
  [[nodiscard]] std::span<const std::uint8_t> arc_mwe_flags(VertexId v) const {
    LLPMST_ASSERT(v < num_vertices());
    return sec_.mwe_flags.subspan(sec_.offsets[v], degree(v));
  }

  /// Sum of all edge weights (useful as an upper bound in tests).
  [[nodiscard]] TotalWeight total_weight() const;

  // -- Storage introspection ----------------------------------------------
  /// The backing storage; nullptr only for a default-constructed empty
  /// graph.  Its address is the graph's identity for caches: two CsrGraph
  /// handles over one storage are the same graph.
  [[nodiscard]] const GraphStorage* storage() const { return storage_.get(); }
  [[nodiscard]] StoragePtr storage_ptr() const { return storage_; }
  /// "heap" | "mmap" | "none" (empty default-constructed graph).
  [[nodiscard]] const char* backend_name() const {
    return storage_ != nullptr ? storage_->backend_name() : "none";
  }

 private:
  StoragePtr storage_;
  CsrSections sec_;  // cached copy of storage_->sections() (one less hop)
};

}  // namespace llpmst
