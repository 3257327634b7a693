#include "mst/parallel_boruvka.hpp"

#include "core/run_context.hpp"
#include "mst/boruvka_engine.hpp"

namespace llpmst {

MstResult parallel_boruvka(const CsrGraph& g, RunContext& ctx) {
  // Context-owned persistent scratch (the explicit replacement for the old
  // thread_local): repeated runs through one context reuse the grown
  // capacity and the learned grain feedback instead of re-allocating and
  // re-measuring from scratch every call.
  BoruvkaConfig config;
  config.jumping = PointerJumping::kSynchronized;
  config.obs_label = "parallel_boruvka";
  config.scratch = &ctx.scratch().get<BoruvkaScratch>();
  return boruvka_engine(g, ctx, config);
}

MstAlgorithm parallel_boruvka_algorithm() {
  return {"parallel-boruvka", "Boruvka",
          "bulk-synchronous Boruvka: sync jumping, exact bundle-min contraction",
          {.parallel = true, .msf_capable = true, .deterministic = true,
           .cancellable = true},
          [](const CsrGraph& g, RunContext& ctx) {
            return parallel_boruvka(g, ctx);
          }};
}

}  // namespace llpmst
