#include "mst/kruskal.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/run_context.hpp"
#include "ds/union_find.hpp"
#include "obs/phase_timer.hpp"
#include "parallel/partition.hpp"
#include "support/cancel.hpp"
#include "support/failpoint.hpp"
#include "support/radix_sort.hpp"

namespace llpmst {

namespace {
/// One edge as the bucket sorts and the scan see it: its priority and the
/// endpoints the scan unites, so no scan step reads edges[id].
struct Record {
  EdgePriority priority;
  VertexId u;
  VertexId v;
};
static_assert(sizeof(Record) == 16);

/// The records of consecutive buckets [first, last), allocated apart so
/// the scan can free them as soon as it has passed them.
struct Chunk {
  std::size_t first;
  std::size_t last;
  std::unique_ptr<Record[]> recs;
};

/// Where the registry entry keeps its record chunks: in the run context's
/// scratch, so the chunks a stopped run did not scan are freed with the
/// context (or by the next run on it), after the caller has the outcome.
/// Unmapping them costs about 0.5 ms per 8 MB of records that the
/// partition's workers touched, which a 5 ms budget cannot spare.
struct RecordChunks {
  std::vector<Chunk> chunks;
};

/// Buckets average about this many records (64 KiB): a bucket and its radix
/// scratch stay in L2 while the bucket is sorted and scanned.
constexpr std::size_t kBucketRecords = std::size_t{1} << 12;

/// A bucket holding more than this many records, and more than
/// 1/kHubBucketShare of all of them, is a hub (EdgeList::normalize's rule):
/// it is sorted in place, so the radix scratch never exceeds the larger of
/// the two bounds.  The partition keys on the top varying weight bits, so
/// only weights bunched in a few values and also spread over a wide range
/// take this path (a few distinct weights fit the digit).
constexpr std::size_t kMinHubBucket = std::size_t{1} << 16;
constexpr std::size_t kHubBucketShare = 64;

/// How many records ahead the scan prefetches the union-find parent slots
/// of the endpoints it will unite.
constexpr std::size_t kParentPrefetchDistance = 8;

/// Sorts a hub bucket by priority in place, so the radix scratch never
/// grows past the hub bound: an American-flag cycle walk swaps every record
/// into the part of its top kRadixDigitBits varying priority bits, and each
/// part is sorted the same way, down to parts of at most kScanStride
/// records, which std::sort takes.  Priorities are unique and a part agrees
/// on every bit from its digit up, so each level consumes kRadixDigitBits
/// bits and the recursion is at most six deep.
///
/// stop() is polled every kScanStride records of each pass; a true answer
/// returns false and leaves `recs` in no useful order.
template <typename Stop>
bool sort_in_place(std::span<Record> recs, Stop& stop) {
  if (recs.size() <= kScanStride) {
    std::sort(recs.begin(), recs.end(), [](const Record& x, const Record& y) {
      return x.priority < y.priority;
    });
    return true;
  }
  // body(r) for every record, polling stop() every kScanStride records.
  const auto each = [&recs, &stop](auto&& body) {
    return parallel_strides(
        nullptr, recs.size(),
        [&recs, &body](std::size_t lo, std::size_t hi, std::size_t) {
          for (std::size_t i = lo; i < hi; ++i) body(recs[i]);
        },
        stop);
  };
  EdgePriority any = 0;
  EdgePriority all = ~EdgePriority{0};
  if (!each([&](const Record& r) {
        any |= r.priority;
        all &= r.priority;
      })) {
    return false;
  }
  const unsigned width = static_cast<unsigned>(std::bit_width(any & ~all));
  const unsigned shift = width > kRadixDigitBits ? width - kRadixDigitBits
                                                 : 0;
  const auto digit = [shift](const Record& r) {
    return static_cast<std::size_t>(r.priority >> shift) & (kRadixBuckets - 1);
  };
  std::array<std::size_t, kRadixBuckets + 1> start{};
  if (!each([&](const Record& r) { ++start[digit(r) + 1]; })) return false;
  for (std::size_t d = 0; d < kRadixBuckets; ++d) start[d + 1] += start[d];
  std::array<std::size_t, kRadixBuckets> head;
  std::copy(start.begin(), start.end() - 1, head.begin());
  std::size_t steps = 0;
  for (std::size_t b = 0; b < kRadixBuckets; ++b) {
    while (head[b] < start[b + 1]) {
      Record r = recs[head[b]];
      for (std::size_t d = digit(r); d != b; d = digit(r)) {
        std::swap(r, recs[head[d]++]);
        if (++steps % kScanStride == 0 && stop()) return false;
      }
      recs[head[b]++] = r;
      if (++steps % kScanStride == 0 && stop()) return false;
    }
  }
  for (std::size_t b = 0; b < kRadixBuckets; ++b) {
    if (!sort_in_place(recs.subspan(start[b], start[b + 1] - start[b]),
                       stop)) {
      return false;
    }
  }
  return true;
}

/// kruskal_cancellable, with its record chunks in `chunks`: a run that
/// stops returns with the chunks it had not scanned still there.
MstResult run_kruskal(const CsrGraph& g, const CancelToken* cancel,
                      Executor* ex, std::vector<Chunk>& chunks) {
  chunks.clear();  // a stopped earlier run's records
  obs::PhaseTimer phase("kruskal");
  const std::size_t n = g.num_vertices();
  const std::span<const WeightedEdge> edges = g.edges();
  const std::size_t m = edges.size();

  // A run stopped before the scan returns the empty forest: one tree per
  // vertex.  An already-triggered token (an expired budget before the
  // fallback) costs O(1): nothing is allocated or scanned.
  const auto stopped = [n](RunOutcome why) {
    MstResult r;
    r.stats.outcome = why;
    r.num_trees = n;
    return r;
  };
  if (cancel != nullptr && cancel->cancelled()) {
    return stopped(cancel->reason());
  }
  const auto cancelled = [cancel] {
    return cancel != nullptr && cancel->cancelled();
  };

  // The partition's passes stop on the "kruskal/fill" failpoint or the
  // token, polled every kScanStride edges of every worker's range.
  std::atomic<bool> fault{false};
  const auto fill_stop = [&fault, &cancelled] {
    if (LLPMST_FAILPOINT("kruskal/fill") != fail::Action::kNone) {
      fault.store(true, std::memory_order_relaxed);
      return true;
    }
    return cancelled();
  };
  const auto fill_outcome = [&] {
    return fault.load(std::memory_order_relaxed) ? RunOutcome::kInjectedFault
                                                 : cancel->reason();
  };

  // The edges go, in id order, into buckets of {priority, u, v} records
  // keyed by the top digit of the weight bits that vary (`any & ~all`).
  // Buckets hold increasing weight ranges, so sorting each by the bits
  // below the digit puts all m records in (weight, id) order.
  struct Bits {
    Weight any = 0;
    Weight all = ~Weight{0};
  };
  // The "sort" phase is this partition; it ends where the scan begins.
  std::optional<obs::PhaseTimer> sort_phase(std::in_place, "sort");
  std::vector<Bits> bits(ex != nullptr ? ex->num_threads() : 1);
  if (!parallel_strides(
          ex, m,
          [&](std::size_t lo, std::size_t hi, std::size_t w) {
            Bits b = bits[w];
            for (std::size_t e = lo; e < hi; ++e) {
              b.any |= edges[e].w;
              b.all &= edges[e].w;
            }
            bits[w] = b;
          },
          fill_stop)) {
    return stopped(fill_outcome());
  }
  Bits total;
  for (const Bits& b : bits) {
    total.any |= b.any;
    total.all &= b.all;
  }
  const Weight varying = total.any & ~total.all;
  // About kBucketRecords records per bucket, at most kRadixBuckets
  // buckets, and no digit bits where no weight bit varies.
  const unsigned width = static_cast<unsigned>(std::bit_width(varying));
  const unsigned digit_bits =
      std::min({static_cast<unsigned>(std::bit_width(m / kBucketRecords)),
                kRadixDigitBits, width});
  const unsigned shift = width - digit_bits;
  const std::uint64_t mask = (std::uint64_t{1} << digit_bits) - 1;
  const auto bucket_of = [shift, mask](Weight w) {
    // 64-bit: with one bucket and all 32 bits varying, shift is 32.
    return static_cast<std::size_t>((std::uint64_t{w} >> shift) & mask);
  };
  BucketPartition part(ex, m, std::size_t{1} << digit_bits);
  if (!part.count(
          [&](std::size_t lo, std::size_t hi, std::uint64_t* count) {
            for (std::size_t e = lo; e < hi; ++e) {
              ++count[bucket_of(edges[e].w)];
            }
          },
          fill_stop)) {
    return stopped(fill_outcome());
  }
  const std::vector<std::uint64_t>& begin = part.begin();
  const std::size_t num_buckets = begin.size() - 1;

  // The records go to chunks of whole buckets, each at most half of them
  // (a larger bucket is a chunk alone), allocated apart and freed as soon
  // as the scan has passed them.  With one block for all the records, the
  // peak RSS of repeated road-20 solves rose 13-26%: the heap served the
  // block past free holes that half-sized blocks fit.
  std::vector<Record*> at(num_buckets);  // where each bucket starts
  const std::size_t hub = std::max(kMinHubBucket, m / kHubBucketShare);
  std::size_t largest = 0;  // of the buckets the radix scratch sorts
  for (std::size_t b0 = 0; b0 < num_buckets;) {
    std::size_t b1 = b0 + 1;
    while (b1 < num_buckets && 2 * (begin[b1 + 1] - begin[b0]) <= m) ++b1;
    Chunk& c = chunks.emplace_back(
        Chunk{b0, b1,
              std::make_unique_for_overwrite<Record[]>(begin[b1] - begin[b0])});
    for (std::size_t b = b0; b < b1; ++b) {
      at[b] = c.recs.get() + (begin[b] - begin[b0]);
      const std::size_t size = begin[b + 1] - begin[b];
      if (size <= hub) largest = std::max(largest, size);
    }
    b0 = b1;
  }
  if (!part.place(
          [&](std::size_t lo, std::size_t hi, std::uint64_t* next) {
            for (std::size_t e = lo; e < hi; ++e) {
              const WeightedEdge& we = edges[e];
              const std::size_t b = bucket_of(we.w);
              at[b][next[b]++ - begin[b]] = {
                  make_priority(we.w, static_cast<EdgeId>(e)), we.u, we.v};
            }
          },
          fill_stop)) {
    return stopped(fill_outcome());
  }
  sort_phase.reset();

  // Walk the buckets in weight order: sort each in cache, then unite its
  // records.  Stable LSD passes over the weight bits below the digit keep
  // the id order the partition left, so each bucket ends in (weight, id)
  // order; a hub is sorted by priority in place instead.  The forest's
  // weight is summed from the records, so no edge is read again.
  MstResult r;
  r.edges.reserve(n > 0 ? n - 1 : 0);
  {
    obs::PhaseTimer scan_phase("scan");
    const auto scratch = std::make_unique_for_overwrite<Record[]>(largest);
    const std::uint64_t below = varying & ((std::uint64_t{1} << shift) - 1);
    UnionFind uf(n);
    std::size_t scanned = 0;
    bool done = false;
    for (Chunk& c : chunks) {
      for (std::size_t b = c.first; b < c.last && !done; ++b) {
        std::span<Record> bucket(at[b], begin[b + 1] - begin[b]);
        if (below == 0) {
          // Every weight in the bucket is equal: id order is sorted order.
        } else if (bucket.size() > hub) {
          sort_in_place(bucket, cancelled);
        } else if (bucket.size() > 1) {
          bucket = lsd_radix_sort(
              bucket, std::span<Record>(scratch.get(), bucket.size()), below,
              [](const Record& x) { return priority_weight(x.priority); },
              cancelled);
        }
        // A sort the token stopped left its bucket unordered; the token
        // latches, so this poll sees it before any record is united.
        if (cancelled()) {
          r.stats.outcome = cancel->reason();
          done = true;
          break;
        }
        for (std::size_t i = 0; i < bucket.size(); ++i, ++scanned) {
          if (scanned % kScanStride == 0) {
            // Chaos hook: the fallback oracle's scan.  This is the window
            // where "user cancel arrives while mst::auto is already falling
            // back" is exercised deterministically — a scripted timeline
            // cancels on a hit of this point, and the poll right after
            // observes it.
            if (LLPMST_FAILPOINT("kruskal/scan") != fail::Action::kNone) {
              r.stats.outcome = RunOutcome::kInjectedFault;
              done = true;
              break;
            }
            if (cancelled()) {
              r.stats.outcome = cancel->reason();
              done = true;
              break;
            }
          }
          if (i + kParentPrefetchDistance < bucket.size()) {
            uf.prefetch(bucket[i + kParentPrefetchDistance].u);
            uf.prefetch(bucket[i + kParentPrefetchDistance].v);
          }
          if (uf.unite(bucket[i].u, bucket[i].v)) {
            const EdgePriority p = bucket[i].priority;
            r.edges.push_back(priority_edge(p));
            if (!checked_weight_add(r.total_weight, priority_weight(p))) {
              r.weight_overflow = true;
            }
            if (r.edges.size() + 1 == n) {  // spanning tree complete
              done = true;
              break;
            }
          }
        }
      }
      // A stopped run leaves this chunk and the ones after it in `chunks`.
      if (r.stats.outcome != RunOutcome::kOk) break;
      c.recs.reset();
    }
  }
  finalize_result(g, r, /*weights_summed=*/true);
  return r;
}
}  // namespace

MstResult kruskal(const CsrGraph& g) { return kruskal_cancellable(g, nullptr); }

MstResult kruskal_cancellable(const CsrGraph& g, const CancelToken* cancel,
                              Executor* ex) {
  std::vector<Chunk> chunks;
  return run_kruskal(g, cancel, ex, chunks);
}

MstResult kruskal(const CsrGraph& g, RunContext& ctx) {
  return run_kruskal(g, ctx.cancel_token(), &ctx.executor(),
                     ctx.scratch().get<RecordChunks>().chunks);
}

MstAlgorithm kruskal_algorithm() {
  return {"kruskal", "Kruskal",
          "partition by the top weight digit, sort each bucket in cache, "
          "grow the forest through union-find (the oracle)",
          {.parallel = true},
          [](const CsrGraph& g, RunContext& ctx) { return kruskal(g, ctx); }};
}

}  // namespace llpmst
