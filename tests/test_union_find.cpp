#include <gtest/gtest.h>

#include <map>
#include <span>
#include <vector>

#include "ds/concurrent_union_find.hpp"
#include "ds/union_find.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "support/random.hpp"

namespace llpmst {
namespace {

TEST(UnionFind, SingletonsInitially) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(uf.find(i), i);
  EXPECT_FALSE(uf.same_set(0, 1));
}

TEST(UnionFind, UniteMergesAndReports) {
  UnionFind uf(4);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));  // already together
  EXPECT_TRUE(uf.same_set(0, 1));
  EXPECT_EQ(uf.num_sets(), 3u);
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_TRUE(uf.unite(0, 3));
  EXPECT_EQ(uf.num_sets(), 1u);
  EXPECT_TRUE(uf.same_set(1, 2));
}

TEST(UnionFind, ResetRestoresSingletons) {
  UnionFind uf(6);
  uf.unite(0, 5);
  uf.unite(1, 2);
  uf.reset();
  EXPECT_EQ(uf.num_sets(), 6u);
  EXPECT_FALSE(uf.same_set(0, 5));
}

TEST(UnionFind, RandomizedAgainstNaiveLabels) {
  const std::uint32_t n = 300;
  UnionFind uf(n);
  std::vector<std::uint32_t> label(n);
  for (std::uint32_t i = 0; i < n; ++i) label[i] = i;
  Xoshiro256 rng(99);
  for (int step = 0; step < 2000; ++step) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(n));
    const auto b = static_cast<std::uint32_t>(rng.next_below(n));
    const bool merged = uf.unite(a, b);
    EXPECT_EQ(merged, label[a] != label[b]);
    if (label[a] != label[b]) {
      const auto from = label[b], to = label[a];
      for (auto& l : label) {
        if (l == from) l = to;
      }
    }
    if (step % 100 == 0) {
      for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t j : {0u, n / 2, n - 1}) {
          ASSERT_EQ(uf.same_set(i, j), label[i] == label[j]);
        }
      }
    }
  }
  // flatten() maps every element straight to its representative.
  const std::span<const std::uint32_t> root = uf.flatten();
  ASSERT_EQ(root.size(), n);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(root[root[i]], root[i]);
    EXPECT_EQ(uf.find(i), root[i]);
    for (std::uint32_t j : {0u, n / 2, n - 1}) {
      EXPECT_EQ(root[i] == root[j], label[i] == label[j]);
    }
  }
}

// ------------------------------------------------------------ concurrent

TEST(ConcurrentUnionFind, SequentialSemanticsMatchUnionFind) {
  const std::uint32_t n = 200;
  ConcurrentUnionFind cuf(n);
  UnionFind uf(n);
  Xoshiro256 rng(5);
  for (int step = 0; step < 1000; ++step) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(n));
    const auto b = static_cast<std::uint32_t>(rng.next_below(n));
    EXPECT_EQ(cuf.unite(a, b), uf.unite(a, b));
    ASSERT_EQ(cuf.same_set(a, b), true);  // just united
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; j += 7) {
      ASSERT_EQ(cuf.same_set(i, j), uf.same_set(i, j));
    }
  }
}

TEST(ConcurrentUnionFind, ConcurrentUnionsProduceCorrectPartition) {
  const std::uint32_t n = 10000;
  // Union a pseudo-random edge set concurrently; then compare the partition
  // against a sequential union-find over the same edges.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  Xoshiro256 rng(17);
  for (int i = 0; i < 20000; ++i) {
    edges.emplace_back(static_cast<std::uint32_t>(rng.next_below(n)),
                       static_cast<std::uint32_t>(rng.next_below(n)));
  }

  ThreadPool pool(8);
  ConcurrentUnionFind cuf(n);
  parallel_for(pool, 0, edges.size(), [&](std::size_t i) {
    cuf.unite(edges[i].first, edges[i].second);
  });

  UnionFind uf(n);
  for (const auto& [a, b] : edges) uf.unite(a, b);

  // Same partition: roots may differ in naming, so compare via pairings.
  std::map<std::uint32_t, std::uint32_t> root_map;  // cuf root -> uf root
  for (std::uint32_t v = 0; v < n; ++v) {
    const auto cr = cuf.find(v);
    const auto sr = uf.find(v);
    const auto [it, inserted] = root_map.try_emplace(cr, sr);
    ASSERT_EQ(it->second, sr) << "partition mismatch at vertex " << v;
  }
  // Injectivity: two cuf-roots must not map to one uf-root.
  std::map<std::uint32_t, std::uint32_t> reverse;
  for (const auto& [cr, sr] : root_map) {
    const auto [it, inserted] = reverse.try_emplace(sr, cr);
    ASSERT_TRUE(inserted) << "two concurrent roots collapsed to one set";
  }
}

TEST(ConcurrentUnionFind, UniteExactlyOneLinkerPerMerge) {
  // total successful unites across threads == n - #final components.
  const std::uint32_t n = 4096;
  ThreadPool pool(8);
  ConcurrentUnionFind cuf(n);
  std::atomic<std::uint32_t> links{0};
  // Chain unions 0-1, 1-2, ... issued redundantly by all workers.
  pool.run_team([&](std::size_t) {
    for (std::uint32_t i = 0; i + 1 < n; ++i) {
      if (cuf.unite(i, i + 1)) links.fetch_add(1);
    }
  });
  EXPECT_EQ(links.load(), n - 1);
  for (std::uint32_t i = 1; i < n; ++i) ASSERT_TRUE(cuf.same_set(0, i));
}

}  // namespace
}  // namespace llpmst
