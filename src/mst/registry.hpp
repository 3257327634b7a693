// The MST/MSF algorithm registry: one canonical table of every algorithm in
// the repo, each entry carrying the canonical (kebab-case) name, a display
// label, a parallel flag, and the uniform `MstResult run(g, ctx)` entry
// point.  Everything that used to hand-maintain an algorithm list —
// mst_tool's dispatch chain and --algo help text, mst::auto's selection,
// the benches' record keys, the cross-check tests — iterates this table
// instead, so adding algorithm #11 is: write the file (entry point +
// descriptor), then add one line to the aggregation in registry.cpp.
//
// Descriptor functions (not static-initializer self-registration) are
// deliberate: llpmst is a static library, and a linker is free to drop a
// translation unit whose only referenced symbol is a self-registering
// global.  Each algorithm's .cpp defines `<name>_algorithm()` next to its
// implementation — the metadata lives with the code — and registry.cpp
// references them all, which pins every entry into any linked binary.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "mst/mst_result.hpp"

namespace llpmst {

class RunContext;

/// The one contract every entry follows: it returns the minimum spanning
/// FOREST of any input (disconnected or empty included), identical on
/// every run and thread count, and it polls RunContext::cancel_token(),
/// stopping with a partial forest and stats.outcome != kOk.  The only
/// thing that varies between entries is whether they use the pool.
struct AlgoCaps {
  /// Uses the RunContext's thread pool (sequential entries ignore it).
  bool parallel = false;
  /// Always true: every entry returns the forest.  Kept as a constant only
  /// for callers that still read it.
  static constexpr bool msf_capable = true;
};

/// One registry entry.  `name` is the canonical id used by `mst_tool
/// --algo`, bench record keys, and reports; `label` is the human/table
/// display form; all strings are static literals (borrowed, not owned).
struct MstAlgorithm {
  const char* name;
  const char* label;
  const char* summary;
  AlgoCaps caps;
  MstResult (*run)(const CsrGraph& g, RunContext& ctx);
};

/// All registered algorithms, in presentation order (sequential classics,
/// then parallel baselines, then the LLP family).  Stable for the process
/// lifetime; entries' addresses may be cached.
[[nodiscard]] const std::vector<MstAlgorithm>& mst_algorithms();

/// Lookup by canonical name; nullptr when unknown.
[[nodiscard]] const MstAlgorithm* find_mst_algorithm(std::string_view name);

/// Lookup that LLPMST_CHECKs the name exists — for internal call sites
/// (mst::auto, benches) where a miss is a programming error, not input.
[[nodiscard]] const MstAlgorithm& mst_algorithm(std::string_view name);

/// "kruskal | prim | ..." — the --algo help text, generated so
/// it cannot drift from the registry.
[[nodiscard]] std::string mst_algorithm_names(const char* separator = " | ");

/// The caps token for --list-algos and the README table check: "par" or
/// "seq".
[[nodiscard]] std::string describe_caps(const AlgoCaps& caps);

}  // namespace llpmst
