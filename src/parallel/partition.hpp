// Stable bucket partition on per-worker ranges: the counting-sort skeleton
// shared by CsrGraph::build (arcs into blocks of sources) and Kruskal (edges
// into buckets of weights).
//
//   BucketPartition part(ex, n, num_buckets);
//   part.count([&](size_t lo, size_t hi, uint64_t* count) { ++count[b]; });
//   part.place([&](size_t lo, size_t hi, uint64_t* cursor) {
//     out[cursor[b]++] = x; });
//
// Every pass polls an optional stop predicate every kScanStride items, so a
// caller that honours a token keeps its stride granularity on the pool.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "parallel/executor.hpp"
#include "parallel/parallel_for.hpp"
#include "support/cancel.hpp"

namespace llpmst {

/// Runs body(lo, hi, worker) over [0, n): each worker of `ex` (or the
/// caller alone, as worker 0, when `ex` is null) takes one contiguous range,
/// cut into kScanStride-item strides.  stop() is polled before every
/// stride; once it answers true on any worker, every worker stops at its
/// next stride.  Returns true iff every stride ran.
template <typename Body, typename Stop = detail::NeverStop>
bool parallel_strides(Executor* ex, std::size_t n, Body&& body,
                      Stop stop = {}) {
  std::atomic<bool> stopped{false};
  const auto range = [&](std::size_t lo, std::size_t hi, std::size_t w) {
    for (; lo < hi; lo += kScanStride) {
      if (stopped.load(std::memory_order_relaxed) || stop()) {
        stopped.store(true, std::memory_order_relaxed);
        return;
      }
      body(lo, lo + kScanStride < hi ? lo + kScanStride : hi, w);
    }
  };
  if (ex == nullptr) {
    range(0, n, 0);
  } else {
    parallel_blocks(*ex, 0, n, range);
  }
  return !stopped.load(std::memory_order_relaxed);
}

/// Partitions the items [0, n) into `num_buckets` buckets, each bucket in
/// item order, in two parallel_strides passes on `ex`:
///   count(lo, hi, counts)  adds one to counts[b] for every output that an
///                          item in [lo, hi) sends to bucket b;
///   place(lo, hi, cursors) writes the same outputs, each to cursors[b]++.
/// An item may send any number of outputs, to any buckets, as long as both
/// passes agree.  Every worker's slice of a bucket follows the slices of
/// the workers before it, so the result does not depend on the worker
/// count.  Between the passes begin() gives the bucket offsets, so a caller
/// can size (or split) the output before placing it.
class BucketPartition {
 public:
  BucketPartition(Executor* ex, std::size_t n, std::size_t num_buckets)
      : ex_(ex),
        n_(n),
        buckets_(num_buckets),
        workers_(ex != nullptr ? ex->num_threads() : 1),
        cursor_(workers_ * num_buckets, 0) {}

  /// The count pass.  On return begin()[b]..begin()[b + 1] is bucket b.
  /// Returns false, with begin() empty, when stop() cut the pass short.
  template <typename Count, typename Stop = detail::NeverStop>
  bool count(Count&& count, Stop stop = {}) {
    if (!parallel_strides(
            ex_, n_,
            [&](std::size_t lo, std::size_t hi, std::size_t w) {
              count(lo, hi, cursor_.data() + w * buckets_);
            },
            stop)) {
      return false;
    }
    // Bucket-major, worker-minor: each count becomes its slice's start.
    begin_.resize(buckets_ + 1);
    std::uint64_t at = 0;
    for (std::size_t b = 0; b < buckets_; ++b) {
      begin_[b] = at;
      for (std::size_t w = 0; w < workers_; ++w) {
        at += std::exchange(cursor_[w * buckets_ + b], at);
      }
    }
    begin_[buckets_] = at;
    return true;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& begin() const {
    return begin_;
  }

  /// The place pass.  Returns false, with the outputs part-written, when
  /// stop() cut it short.
  template <typename Place, typename Stop = detail::NeverStop>
  bool place(Place&& place, Stop stop = {}) {
    return parallel_strides(
        ex_, n_,
        [&](std::size_t lo, std::size_t hi, std::size_t w) {
          place(lo, hi, cursor_.data() + w * buckets_);
        },
        stop);
  }

 private:
  Executor* ex_;
  std::size_t n_;
  std::size_t buckets_;
  std::size_t workers_;
  std::vector<std::uint64_t> cursor_;  // worker-major
  std::vector<std::uint64_t> begin_;
};

}  // namespace llpmst
