#include "mst/parallel_boruvka.hpp"

#include "core/run_context.hpp"
#include "mst/boruvka_engine.hpp"

namespace llpmst {

MstResult parallel_boruvka(const CsrGraph& g, RunContext& ctx) {
  BoruvkaConfig config;
  config.jumping = PointerJumping::kSynchronized;
  config.obs_label = "parallel_boruvka";
  return boruvka_engine(g, ctx, config);
}

MstAlgorithm parallel_boruvka_algorithm() {
  return {"parallel-boruvka", "Boruvka",
          "bulk-synchronous Boruvka: sync jumping, exact bundle-min contraction",
          {.parallel = true},
          [](const CsrGraph& g, RunContext& ctx) {
            return parallel_boruvka(g, ctx);
          }};
}

}  // namespace llpmst
