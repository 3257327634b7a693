#include "mst/registry.hpp"

#include "llp/llp_boruvka.hpp"
#include "llp/llp_prim.hpp"
#include "llp/llp_prim_parallel.hpp"
#include "mst/boruvka.hpp"
#include "mst/filter_kruskal.hpp"
#include "mst/kruskal.hpp"
#include "mst/parallel_boruvka.hpp"
#include "mst/prim.hpp"
#include "mst/prim_lazy.hpp"
#include "support/assert.hpp"

namespace llpmst {

const std::vector<MstAlgorithm>& mst_algorithms() {
  // Aggregating the per-algorithm descriptors here (instead of relying on
  // static-initializer self-registration) pins every entry into the binary
  // even though llpmst is a static library.  Presentation order: sequential
  // classics, parallel baselines, then the LLP family.
  static const std::vector<MstAlgorithm>* table = new std::vector<MstAlgorithm>{
      kruskal_algorithm(),
      prim_algorithm(),
      prim_lazy_algorithm(),
      boruvka_algorithm(),
      filter_kruskal_algorithm(),
      parallel_boruvka_algorithm(),
      llp_prim_algorithm(),
      llp_prim_parallel_algorithm(),
      llp_boruvka_algorithm(),
  };
  return *table;
}

const MstAlgorithm* find_mst_algorithm(std::string_view name) {
  for (const MstAlgorithm& a : mst_algorithms()) {
    if (name == a.name) return &a;
  }
  return nullptr;
}

const MstAlgorithm& mst_algorithm(std::string_view name) {
  const MstAlgorithm* a = find_mst_algorithm(name);
  LLPMST_CHECK_MSG(a != nullptr, "unknown MST algorithm in registry lookup");
  return *a;
}

std::string mst_algorithm_names(const char* separator) {
  std::string out;
  for (const MstAlgorithm& a : mst_algorithms()) {
    if (!out.empty()) out += separator;
    out += a.name;
  }
  return out;
}

std::string describe_caps(const AlgoCaps& caps) {
  return caps.parallel ? "par" : "seq";
}

}  // namespace llpmst
