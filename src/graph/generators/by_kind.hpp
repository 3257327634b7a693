// The generated workloads by name, as `mst_tool --generate KIND --scale S`
// and bench_regime_matrix build them, so a graph named "road-20" is the
// same graph in both.
#pragma once

#include <cstdint>
#include <string_view>

#include "graph/edge_list.hpp"
#include "support/status.hpp"

namespace llpmst {

/// "road": a 2^(scale/2)-sided grid road network (connected, m/n ~ 1.9);
/// "rmat": Graph500-style R-MAT with edge factor 16 (skewed, disconnected);
/// "er":   Erdos-Renyi G(n, 8n) on n = 2^scale vertices.
/// An unknown kind, or a scale outside [1, 30], is a kInvalidArgument
/// error.
[[nodiscard]] Expected<EdgeList> generate_by_kind(std::string_view kind,
                                                  std::int64_t scale,
                                                  std::uint64_t seed);

}  // namespace llpmst
