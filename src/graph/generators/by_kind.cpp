#include "graph/generators/by_kind.hpp"

#include <string>

#include "graph/generators/random_graph.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/generators/road.hpp"

namespace llpmst {

namespace {
constexpr std::int64_t kMinScale = 1;
constexpr std::int64_t kMaxScale = 30;  // generate_rmat's limit

/// The most edges `kind` draws at scale `s`, before normalize: road's two
/// axis streets and one diagonal per grid cell, rmat's edge factor and
/// er's 8 per vertex.
std::uint64_t drawn_edges(std::string_view kind, int s) {
  if (kind == "road") {
    const std::uint64_t side = std::uint64_t{1} << (s / 2);
    return 3 * side * side;
  }
  const std::uint64_t per_vertex =
      kind == "rmat" ? static_cast<std::uint64_t>(RmatParams{}.edge_factor)
                     : 8;
  return per_vertex << s;
}
}  // namespace

Status check_by_kind(std::string_view kind, std::int64_t scale) {
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
  const std::uint64_t edges = drawn_edges(kind, static_cast<int>(scale));
  if (edges >= kInvalidEdge) {
    return Status(StatusCode::kInvalidArgument,
                  std::string(kind) + " at scale " + std::to_string(scale) +
                      " draws " + std::to_string(edges) +
                      " edges, more than 32-bit edge ids can number");
  }
  return Status::Ok();
}

Expected<EdgeList> generate_by_kind(std::string_view kind, std::int64_t scale,
                                    std::uint64_t seed) {
  if (Status st = check_by_kind(kind, scale); !st.ok()) return st;
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
