// Shared helpers for the llpmst test suite.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/run_context.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "mst/mst_result.hpp"
#include "mst/registry.hpp"
#include "parallel/thread_pool.hpp"

namespace llpmst::test {

/// Builds a CSR graph from an already-normalized edge list.
inline CsrGraph csr(const EdgeList& list) { return CsrGraph::build(list); }

/// Named MSF algorithm for sweep-style tests.
struct MsfAlgo {
  std::string name;
  std::function<MstResult(const CsrGraph&, ThreadPool&)> run;
};

/// Every MSF implementation in the library, all expected to produce the
/// identical (unique) forest.  Driven by the registry: a newly registered
/// algorithm is swept by these tests with zero edits here.
inline std::vector<MsfAlgo> all_msf_algorithms() {
  std::vector<MsfAlgo> out;
  for (const MstAlgorithm& a : mst_algorithms()) {
    out.push_back({a.name,
                   [algo = &a](const CsrGraph& g, ThreadPool& pool) {
                     RunContext ctx(pool);
                     return algo->run(g, ctx);
                   }});
  }
  return out;
}

}  // namespace llpmst::test
