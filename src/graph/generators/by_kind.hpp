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
/// An unknown kind, a scale outside [1, 30], or one at which the kind
/// draws more edges than a 32-bit EdgeId can number (rmat from scale 28,
/// er from 29) is a kInvalidArgument error, returned before anything is
/// allocated.
[[nodiscard]] Expected<EdgeList> generate_by_kind(std::string_view kind,
                                                  std::int64_t scale,
                                                  std::uint64_t seed);

/// The checks generate_by_kind makes before it allocates, so a caller can
/// reject a request before it starts any work.
[[nodiscard]] Status check_by_kind(std::string_view kind, std::int64_t scale);

}  // namespace llpmst
