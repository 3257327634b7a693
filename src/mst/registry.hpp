// The MST/MSF algorithm registry: one canonical table of every algorithm in
// the repo, each entry carrying the canonical (kebab-case) name, a display
// label, capability flags, and the uniform `MstResult run(g, ctx)` entry
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

/// What a registered algorithm can do; consumers filter on these instead of
/// knowing names.  (The conformance test skips forest inputs for tree-only
/// entries; --list-algos prints them.  Every entry mst::auto's policy table
/// names is msf_capable, which its table tests check on forest inputs.)
struct AlgoCaps {
  /// Uses the RunContext's thread pool (sequential entries ignore it).
  bool parallel = false;
  /// Handles disconnected inputs (and the empty graph), producing the
  /// minimum spanning FOREST.  Tree-only entries require a connected,
  /// non-empty graph and assert otherwise (the Prim family).
  bool msf_capable = false;
  /// Produces the unique priority-ordered MSF bit-identically on every run
  /// and thread count.  (Every current entry does; the flag exists so a
  /// future heuristic/approximate entry is skipped by exact cross-checks.)
  bool deterministic = true;
  /// Polls RunContext::cancel_token() and stops cooperatively (partial
  /// result, stats.outcome != kOk).  Non-cancellable entries run to
  /// completion regardless of the token.
  bool cancellable = false;
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

/// "kruskal | kruskal-parallel | ..." — the --algo help text, generated so
/// it cannot drift from the registry.
[[nodiscard]] std::string mst_algorithm_names(const char* separator = " | ");

/// Compact flag rendering for --list-algos / docs checks: one token per
/// capability — "par|seq", "msf|tree", "det|rnd", "can|-" — joined by
/// single spaces.  Example: "seq msf det -" for Kruskal.
[[nodiscard]] std::string describe_caps(const AlgoCaps& caps);

}  // namespace llpmst
