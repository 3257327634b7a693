#include "graph/edge_list.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>

#include "support/assert.hpp"
#include "support/radix_sort.hpp"

namespace llpmst {

namespace {
/// How many edges ahead of a bucket's head the partition walk prefetches.
constexpr std::size_t kPartitionPrefetch = 8;

/// A partition bucket holding more than this many edges, and more than
/// 1/kHubBucketShare of all edges, collects a hub's edges (on a star every
/// edge shares u = 0).  It is sorted in place by comparator instead, so the
/// radix scratch stays a small share of the edge array.  Balanced inputs
/// average 1/2048 of the edges per bucket and never take this path.
constexpr std::size_t kMinHubBucket = std::size_t{1} << 16;
constexpr std::size_t kHubBucketShare = 64;
}  // namespace

void EdgeList::add_edge(VertexId u, VertexId v, Weight w) {
  LLPMST_ASSERT(u < num_vertices_ && v < num_vertices_);
  edges_.push_back({u, v, w});
}

void EdgeList::normalize() {
  // Drop self loops and canonicalize endpoint order, collecting every bit
  // any u or v has set: they bound the digits the sort has to look at.
  std::size_t out = 0;
  VertexId u_bits = 0;
  VertexId v_bits = 0;
  for (const WeightedEdge& e : edges_) {
    if (e.u == e.v) continue;
    WeightedEdge c = e;
    if (c.u > c.v) std::swap(c.u, c.v);
    u_bits |= c.u;
    v_bits |= c.v;
    edges_[out++] = c;
  }
  edges_.resize(out);

  // Sort by (u, v) in two cache-sized levels.  Level 1 partitions the edges
  // in place by the top digit of u: an American-flag cycle walk that swaps
  // every edge straight into its bucket, so no m-sized buffer is needed.
  const unsigned u_width = static_cast<unsigned>(std::bit_width(u_bits));
  const unsigned shift = u_width > kRadixDigitBits ? u_width - kRadixDigitBits
                                                   : 0;
  const auto bucket_of = [shift](const WeightedEdge& e) {
    return static_cast<std::size_t>(e.u >> shift);
  };
  std::array<std::size_t, kRadixBuckets + 1> start{};
  for (const WeightedEdge& e : edges_) ++start[bucket_of(e) + 1];
  const std::size_t hub =
      std::max(kMinHubBucket, edges_.size() / kHubBucketShare);
  std::size_t largest = 0;
  for (std::size_t b = 0; b < kRadixBuckets; ++b) {
    if (start[b + 1] <= hub) largest = std::max(largest, start[b + 1]);
    start[b + 1] += start[b];
  }
  std::array<std::size_t, kRadixBuckets> head;
  std::copy(start.begin(), start.end() - 1, head.begin());
  for (std::size_t b = 0; b < kRadixBuckets; ++b) {
    while (head[b] < start[b + 1]) {
      WeightedEdge e = edges_[head[b]];
      for (std::size_t d = bucket_of(e); d != b; d = bucket_of(e)) {
        // The walk is a chain of dependent loads, one per bucket head;
        // each head moves forward one edge at a time, so fetching ahead of
        // it keeps the chain out of DRAM.
        if (head[d] + kPartitionPrefetch < edges_.size()) {
          __builtin_prefetch(&edges_[head[d] + kPartitionPrefetch], 1);
        }
        std::swap(e, edges_[head[d]++]);
      }
      edges_[head[b]++] = e;
    }
  }

  // Level 2 sorts each bucket by the rest of the key — v, then the low bits
  // of u — with stable LSD passes through one bucket-sized buffer (a hub's
  // bucket by comparator in place), and keeps the lightest copy of each
  // parallel bundle while compacting the sorted bucket into place (`out`
  // never passes the bucket being read).
  const unsigned v_width = static_cast<unsigned>(std::bit_width(v_bits));
  const std::uint64_t low_u = (std::uint64_t{1} << shift) - 1;
  const std::uint64_t varying = ((u_bits & low_u) << v_width) | v_bits;
  const auto key = [low_u, v_width](const WeightedEdge& e) {
    return ((e.u & low_u) << v_width) | e.v;
  };
  std::vector<WeightedEdge> scratch(largest);
  out = 0;
  for (std::size_t b = 0; b < kRadixBuckets; ++b) {
    std::span<WeightedEdge> bucket(edges_.data() + start[b],
                                   start[b + 1] - start[b]);
    if (bucket.size() > hub) {
      // Equal (u, v) keys may come out in any order: the dedup keeps their
      // minimum weight either way.
      std::sort(bucket.begin(), bucket.end(),
                [](const WeightedEdge& x, const WeightedEdge& y) {
                  return x.u != y.u ? x.u < y.u : x.v < y.v;
                });
    } else {
      bucket = lsd_radix_sort(bucket, std::span<WeightedEdge>(scratch),
                              varying, key);
    }
    for (const WeightedEdge& e : bucket) {
      if (out > 0 && edges_[out - 1].u == e.u && edges_[out - 1].v == e.v) {
        edges_[out - 1].w = std::min(edges_[out - 1].w, e.w);
      } else {
        edges_[out++] = e;
      }
    }
  }
  edges_.resize(out);
}

bool EdgeList::is_normalized() const {
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const WeightedEdge& e = edges_[i];
    if (e.u >= e.v) return false;
    if (e.v >= num_vertices_) return false;
    if (i > 0) {
      const WeightedEdge& p = edges_[i - 1];
      if (p.u > e.u || (p.u == e.u && p.v >= e.v)) return false;
    }
  }
  return true;
}

}  // namespace llpmst
