// Sequential union-find (disjoint set union) with union-by-rank and path
// halving: the substrate of Kruskal and of the MSF verifier.
// Near-inverse-Ackermann amortized cost per operation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace llpmst {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), rank_(n, 0), count_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }

  [[nodiscard]] std::size_t size() const { return parent_.size(); }

  /// Number of disjoint sets currently.
  [[nodiscard]] std::size_t num_sets() const { return count_; }

  /// Representative of x's set, with path halving.
  std::uint32_t find(std::uint32_t x) {
    LLPMST_ASSERT(x < parent_.size());
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Points every element straight at its representative, and returns the
  /// parent array, which now maps each element to it.  Any number of
  /// threads may read the array while no one calls a non-const method.
  [[nodiscard]] std::span<const std::uint32_t> flatten() {
    for (std::uint32_t x = 0; x < parent_.size(); ++x) parent_[x] = find(x);
    return parent_;
  }

  [[nodiscard]] bool same_set(std::uint32_t a, std::uint32_t b) {
    return find(a) == find(b);
  }

  /// Hints the cache to load x's parent slot ahead of a find(x).
  void prefetch(std::uint32_t x) const { __builtin_prefetch(&parent_[x]); }

  /// Merges the sets of a and b.  Returns true iff they were distinct.
  bool unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (rank_[a] < rank_[b]) std::swap(a, b);
    parent_[b] = a;
    if (rank_[a] == rank_[b]) ++rank_[a];
    --count_;
    return true;
  }

  void reset() {
    std::iota(parent_.begin(), parent_.end(), 0u);
    std::fill(rank_.begin(), rank_.end(), std::uint8_t{0});
    count_ = parent_.size();
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint8_t> rank_;
  std::size_t count_;
};

}  // namespace llpmst
