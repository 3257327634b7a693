#include "llp/llp_boruvka.hpp"

#include "core/run_context.hpp"

namespace llpmst {

MstResult llp_boruvka(const CsrGraph& g, RunContext& ctx) {
  // Context-owned persistent scratch: repeated runs through one context
  // reuse capacity and grain feedback (see parallel_boruvka.cpp).
  BoruvkaConfig config;
  config.jumping = PointerJumping::kAsynchronous;
  config.obs_label = "llp_boruvka";
  config.scratch = &ctx.scratch().get<BoruvkaScratch>();
  return boruvka_engine(g, ctx, config);
}

MstResult llp_boruvka_configured(const CsrGraph& g, RunContext& ctx,
                                 const BoruvkaConfig& config) {
  return boruvka_engine(g, ctx, config);
}

MstAlgorithm llp_boruvka_algorithm() {
  return {"llp-boruvka", "LLP-Boruvka",
          "Boruvka with async LLP pointer jumping (Algorithm 6)",
          {.parallel = true, .msf_capable = true, .deterministic = true,
           .cancellable = true},
          [](const CsrGraph& g, RunContext& ctx) {
            return llp_boruvka(g, ctx);
          }};
}

}  // namespace llpmst
