#include "graph/generators/by_kind.hpp"

#include <string>

#include "graph/generators/random_graph.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/generators/road.hpp"

namespace llpmst {

namespace {
constexpr std::int64_t kMinScale = 1;
constexpr std::int64_t kMaxScale = 30;  // generate_rmat's limit
}  // namespace

Expected<EdgeList> generate_by_kind(std::string_view kind, std::int64_t scale,
                                    std::uint64_t seed) {
  if (kind != "road" && kind != "rmat" && kind != "er") {
    return Status(StatusCode::kInvalidArgument,
                  "unknown kind '" + std::string(kind) +
                      "' (road | rmat | er)");
  }
  if (scale < kMinScale || scale > kMaxScale) {
    return Status(StatusCode::kInvalidArgument,
                  "scale " + std::to_string(scale) + " is outside [" +
                      std::to_string(kMinScale) + ", " +
                      std::to_string(kMaxScale) + "]");
  }
  const int s = static_cast<int>(scale);
  if (kind == "road") {
    RoadParams p;
    p.width = p.height = 1u << (s / 2);
    p.seed = seed;
    return generate_road_network(p);
  }
  if (kind == "rmat") {
    RmatParams p;
    p.scale = s;
    p.seed = seed;
    return generate_rmat(p);
  }
  ErdosRenyiParams p;
  p.num_vertices = 1u << s;
  p.num_edges = (1ull << s) * 8;
  p.seed = seed;
  return generate_erdos_renyi(p);
}

}  // namespace llpmst
