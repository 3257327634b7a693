// Storage-backend equivalence: the acceptance gate for the storage refactor.
//
// Every registry algorithm must produce a bit-identical forest (edge ids,
// total weight, tree count) whether the graph lives in owned heap vectors
// (CsrGraph::build) or in a read-only mmap over a packed llpmstb snapshot
// (write_binary_csr + read_binary_csr).  The workload matrix mirrors
// test_registry_conformance: sparse, dense, forest, empty, single-vertex —
// same generators, same seeds — so a divergence here isolates the storage
// seam, not the algorithm.
//
// Also pins the storage plumbing itself: section equality across backends,
// handle-copy semantics, and the connectivity cache keying on storage
// identity rather than handle address.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "core/run_context.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators/random_graph.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/generators/special.hpp"
#include "graph/io/binary_csr.hpp"
#include "graph/storage.hpp"
#include "mst/kruskal.hpp"
#include "mst/registry.hpp"
#include "mst/verifier.hpp"
#include "test_util.hpp"

namespace llpmst {
namespace {

using test::csr;

struct BackendCase {
  const char* name;
  CsrGraph heap;
  CsrGraph mmap;
};

class StorageEquivalence : public testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("llpmst_storage_eq_" + std::to_string(::getpid()) + "_" +
            std::to_string(GetParam()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Heap-built and packed+mmapped copies of one edge list.  The mmap copy
  /// round-trips through an llpmstb file with full payload verification.
  BackendCase both(const char* name, const EdgeList& list) {
    BackendCase c{name, csr(list), {}};
    const std::string file = (dir_ / (std::string(name) + ".llpmstb")).string();
    EXPECT_TRUE(write_binary_csr(file, c.heap).ok()) << name;
    BinaryCsrOptions opts;
    opts.verify_payload = true;
    Expected<CsrGraph> mounted = read_binary_csr(file, opts);
    EXPECT_TRUE(mounted.ok()) << name << ": " << mounted.status().to_string();
    c.mmap = std::move(*mounted);
    return c;
  }

  std::vector<BackendCase> cases() {
    std::vector<BackendCase> out;
    ErdosRenyiParams sparse;
    sparse.num_vertices = 800;
    sparse.num_edges = 1800;
    sparse.seed = 21;
    EdgeList sparse_list = generate_erdos_renyi(sparse);
    connect_components(sparse_list);
    out.push_back(both("sparse", sparse_list));

    ErdosRenyiParams dense;
    dense.num_vertices = 300;
    dense.num_edges = 9000;
    dense.seed = 22;
    EdgeList dense_list = generate_erdos_renyi(dense);
    connect_components(dense_list);
    out.push_back(both("dense", dense_list));

    out.push_back(both("forest", make_forest(4, 60, 23)));
    out.push_back(both("empty", EdgeList(0)));
    out.push_back(both("single-vertex", EdgeList(1)));
    return out;
  }

  std::filesystem::path dir_;
  ThreadPool pool_{static_cast<std::size_t>(GetParam())};
};
INSTANTIATE_TEST_SUITE_P(Threads, StorageEquivalence, testing::Values(1, 4));

TEST_P(StorageEquivalence, SectionsAreIdenticalAcrossBackends) {
  for (const BackendCase& c : cases()) {
    SCOPED_TRACE(c.name);
    EXPECT_STREQ(c.heap.backend_name(), "heap");
    EXPECT_STREQ(c.mmap.backend_name(), "mmap");
    ASSERT_EQ(c.heap.num_vertices(), c.mmap.num_vertices());
    ASSERT_EQ(c.heap.num_edges(), c.mmap.num_edges());
    ASSERT_EQ(c.heap.num_arcs(), c.mmap.num_arcs());
    const CsrSections& a = c.heap.storage()->sections();
    const CsrSections& b = c.mmap.storage()->sections();
    EXPECT_TRUE(std::equal(a.offsets.begin(), a.offsets.end(),
                           b.offsets.begin(), b.offsets.end()));
    EXPECT_TRUE(std::equal(a.targets.begin(), a.targets.end(),
                           b.targets.begin(), b.targets.end()));
    EXPECT_TRUE(std::equal(a.priorities.begin(), a.priorities.end(),
                           b.priorities.begin(), b.priorities.end()));
    EXPECT_TRUE(std::equal(a.mwe.begin(), a.mwe.end(), b.mwe.begin(),
                           b.mwe.end()));
    EXPECT_TRUE(std::equal(a.mwe_flags.begin(), a.mwe_flags.end(),
                           b.mwe_flags.begin(), b.mwe_flags.end()));
    EXPECT_EQ(c.heap.total_weight(), c.mmap.total_weight());
  }
}

TEST_P(StorageEquivalence, EveryAlgorithmIsBitIdenticalAcrossBackends) {
  RunContext ctx(pool_);
  for (const BackendCase& c : cases()) {
    SCOPED_TRACE(c.name);
    const MstResult reference = kruskal(c.heap);
    for (const MstAlgorithm& algo : mst_algorithms()) {
      SCOPED_TRACE(algo.name);
      const MstResult on_heap = algo.run(c.heap, ctx);
      const MstResult on_mmap = algo.run(c.mmap, ctx);
      EXPECT_EQ(on_heap.edges, on_mmap.edges);
      EXPECT_EQ(on_heap.total_weight, on_mmap.total_weight);
      EXPECT_EQ(on_heap.num_trees, on_mmap.num_trees);
      // Both sides must also be the (unique) forest, not merely agree.
      EXPECT_EQ(on_mmap.edges, reference.edges);
      const VerifyResult v = verify_msf(c.mmap, on_mmap, ctx);
      EXPECT_TRUE(v.ok) << v.error;
    }
  }
}

TEST_P(StorageEquivalence, MmapStorageReportsMappingStats) {
  for (const BackendCase& c : cases()) {
    SCOPED_TRACE(c.name);
    const GraphStorage* heap = c.heap.storage();
    const GraphStorage* mapped = c.mmap.storage();
    EXPECT_EQ(heap->mapped_bytes(), 0u);
    // Even an empty snapshot maps its header+padding.
    EXPECT_GT(mapped->mapped_bytes(), 0u);
    // The estimate can lag the kernel's accounting but never exceeds the
    // mapping.
    EXPECT_LE(mapped->resident_bytes_estimate(), mapped->mapped_bytes());
  }
}

TEST(StorageIdentity, HandleCopiesShareStorageAndConnectivityCache) {
  ErdosRenyiParams p;
  p.num_vertices = 120;
  p.num_edges = 300;
  p.seed = 7;
  const CsrGraph g = csr(generate_erdos_renyi(p));
  const CsrGraph copy = g;  // cheap handle copy, same storage
  EXPECT_EQ(g.storage(), copy.storage());

  RunContext ctx;
  const std::size_t n = ctx.num_components(g);
  // The cache keys on storage identity, so the copy hits without recompute.
  EXPECT_TRUE(ctx.components_cached(copy));
  EXPECT_EQ(ctx.num_components(copy), n);

  // A different build of the SAME edge list is a different graph identity.
  const CsrGraph rebuilt = csr(generate_erdos_renyi(p));
  EXPECT_FALSE(ctx.components_cached(rebuilt));
  EXPECT_EQ(ctx.num_components(rebuilt), n);
}

TEST(StorageIdentity, DefaultConstructedGraphHasNoBackend) {
  const CsrGraph g;
  EXPECT_EQ(g.storage(), nullptr);
  EXPECT_STREQ(g.backend_name(), "none");
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  RunContext ctx;
  // Null-storage graphs still answer (0 components) and cache safely.
  EXPECT_FALSE(ctx.components_cached(g));
  EXPECT_EQ(ctx.num_components(g), 0u);
  EXPECT_TRUE(ctx.components_cached(g));
}

TEST(StorageIdentity, SnapshotOutlivesTheFileName) {
  // The mapping, not the path, owns the bytes: renaming/unlinking the file
  // after mount must not disturb reads (POSIX keeps mapped pages alive).
  const auto dir = std::filesystem::temp_directory_path() /
                   ("llpmst_storage_unlink_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  ErdosRenyiParams p;
  p.num_vertices = 200;
  p.num_edges = 600;
  p.seed = 9;
  const CsrGraph g = csr(generate_erdos_renyi(p));
  const std::string file = (dir / "g.llpmstb").string();
  ASSERT_TRUE(write_binary_csr(file, g).ok());
  Expected<CsrGraph> mounted = read_binary_csr(file);
  ASSERT_TRUE(mounted.ok()) << mounted.status().to_string();
  std::filesystem::remove_all(dir);
  EXPECT_EQ(mounted->total_weight(), g.total_weight());
  EXPECT_EQ(kruskal(*mounted).edges, kruskal(g).edges);
}

}  // namespace
}  // namespace llpmst
