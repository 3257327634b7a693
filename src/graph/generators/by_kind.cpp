#include "graph/generators/by_kind.hpp"

#include "graph/generators/random_graph.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/generators/road.hpp"

namespace llpmst {

std::optional<EdgeList> generate_by_kind(std::string_view kind, int scale,
                                         std::uint64_t seed) {
  if (kind == "road") {
    RoadParams p;
    p.width = p.height = 1u << (scale / 2);
    p.seed = seed;
    return generate_road_network(p);
  }
  if (kind == "rmat") {
    RmatParams p;
    p.scale = scale;
    p.seed = seed;
    return generate_rmat(p);
  }
  if (kind == "er") {
    ErdosRenyiParams p;
    p.num_vertices = 1u << scale;
    p.num_edges = (1ull << scale) * 8;
    p.seed = seed;
    return generate_erdos_renyi(p);
  }
  return std::nullopt;
}

}  // namespace llpmst
