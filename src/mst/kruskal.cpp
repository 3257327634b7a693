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
/// the two bounds.  The partition keys on the top bits of the weight range,
/// so only weights bunched in a narrow band of a wide range take this path.
constexpr std::size_t kMinHubBucket = std::size_t{1} << 16;
constexpr std::size_t kHubBucketShare = 64;

/// How many records ahead the scan prefetches the union-find parent slots
/// of the endpoints it will unite.
constexpr std::size_t kParentPrefetchDistance = 8;

/// The same for the filter pass, which reads the edge array in id order.
constexpr std::size_t kFilterPrefetchDistance = 16;

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

  // The parallel passes stop on the token or a failpoint ("kruskal/fill"
  // for the partition, "kruskal/filter" for the filter), polled every
  // kScanStride edges of every worker's range.
  std::atomic<bool> fault{false};
  const auto stop_on = [&fault, &cancelled](const char* point) {
    return [&fault, &cancelled, point] {
      if (LLPMST_FAILPOINT(point) != fail::Action::kNone) {
        fault.store(true, std::memory_order_relaxed);
        return true;
      }
      return cancelled();
    };
  };
  const auto fill_stop = stop_on("kruskal/fill");
  const auto stop_outcome = [&] {
    return fault.load(std::memory_order_relaxed) ? RunOutcome::kInjectedFault
                                                 : cancel->reason();
  };

  // The edges go, in id order, into buckets of {priority, u, v} records
  // keyed by the top digit of the weight's offset from the lightest one.
  // Buckets hold increasing weight ranges, so sorting each by the offset
  // bits below the digit puts its records in (weight, id) order.
  struct Bits {
    Weight any = 0;
    Weight all = ~Weight{0};
    Weight min = ~Weight{0};
    Weight max = 0;
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
              b.min = std::min(b.min, edges[e].w);
              b.max = std::max(b.max, edges[e].w);
            }
            bits[w] = b;
          },
          fill_stop)) {
    return stopped(stop_outcome());
  }
  Bits total;
  for (const Bits& b : bits) {
    total.any |= b.any;
    total.all &= b.all;
    total.min = std::min(total.min, b.min);
    total.max = std::max(total.max, b.max);
  }
  const Weight base = m > 0 ? total.min : 0;
  const Weight range = m > 0 ? total.max - total.min : 0;
  // About kBucketRecords records per bucket, at most kRadixBuckets
  // buckets, and no digit bits where the weights do not spread.
  const unsigned width = static_cast<unsigned>(std::bit_width(range));
  const unsigned digit_bits =
      std::min({static_cast<unsigned>(std::bit_width(m / kBucketRecords)),
                kRadixDigitBits, width});
  const unsigned shift = width - digit_bits;
  const auto bucket_of = [base, shift](Weight w) {
    // 64-bit: with one bucket and a 32-bit range, shift is 32.
    return static_cast<std::size_t>(std::uint64_t{w - base} >> shift);
  };
  BucketPartition part(ex, m, std::size_t{1} << digit_bits);
  if (!part.count(
          [&](std::size_t lo, std::size_t hi, std::uint64_t* count) {
            for (std::size_t e = lo; e < hi; ++e) {
              ++count[bucket_of(edges[e].w)];
            }
          },
          fill_stop)) {
    return stopped(stop_outcome());
  }
  const std::vector<std::uint64_t>& begin = part.begin();
  const std::size_t num_buckets = begin.size() - 1;

  // The light prefix: the fewest whole buckets that hold 2n records.  A
  // forest has fewer than n edges, so after the light scan few heavy edges
  // still join two trees, and only those get records (the filter below).
  // With m <= 2n every bucket is light.
  std::size_t split = 0;
  while (split < num_buckets && begin[split] < 2 * n) ++split;
  const std::size_t light = begin[split];

  // The light records go to chunks of whole buckets, each at most half of
  // them (a larger bucket is a chunk alone), allocated apart and freed as
  // soon as the scan has passed them.  With one block for all the records,
  // the peak RSS of repeated road-20 solves rose 13-26%: the heap served
  // the block past free holes that half-sized blocks fit.
  std::vector<std::span<Record>> bucket(num_buckets);
  for (std::size_t b0 = 0; b0 < split;) {
    std::size_t b1 = b0 + 1;
    while (b1 < split && 2 * (begin[b1 + 1] - begin[b0]) <= light) ++b1;
    Chunk& c = chunks.emplace_back(
        Chunk{b0, b1,
              std::make_unique_for_overwrite<Record[]>(begin[b1] - begin[b0])});
    for (std::size_t b = b0; b < b1; ++b) {
      bucket[b] = {c.recs.get() + (begin[b] - begin[b0]),
                   begin[b + 1] - begin[b]};
    }
    b0 = b1;
  }
  if (!part.place(
          [&](std::size_t lo, std::size_t hi, std::uint64_t* next) {
            for (std::size_t e = lo; e < hi; ++e) {
              const WeightedEdge& we = edges[e];
              const std::size_t b = bucket_of(we.w);
              if (b >= split) continue;
              bucket[b][next[b]++ - begin[b]] = {
                  make_priority(we.w, static_cast<EdgeId>(e)), we.u, we.v};
            }
          },
          fill_stop)) {
    return stopped(stop_outcome());
  }
  sort_phase.reset();

  // Walk the buckets in weight order: sort each in cache, then unite its
  // records.  Stable LSD passes over the offset bits below the digit keep
  // the id order the partition left, so each bucket ends in (weight, id)
  // order; a hub is sorted by priority in place instead.  The offsets
  // share the low bits that every weight shares, as zeros: those passes
  // are skipped.
  const std::size_t hub = std::max(kMinHubBucket, m / kHubBucketShare);
  const unsigned same_low = static_cast<unsigned>(
      std::countr_zero(total.any & ~total.all));
  const std::uint64_t below = ((std::uint64_t{1} << shift) - 1) &
                              ~((std::uint64_t{1} << same_low) - 1);
  MstResult r;
  r.edges.reserve(n > 0 ? n - 1 : 0);
  UnionFind uf(n);
  std::unique_ptr<Record[]> scratch;
  std::size_t scratch_size = 0;
  std::size_t scanned = 0;
  // Sorts and unites the buckets of `c`, then frees its records.  False
  // when the run is done: the forest is complete, or the run stopped (its
  // outcome set, and `c` left in `chunks`).
  const auto scan = [&](Chunk& c) {
    for (std::size_t b = c.first; b < c.last; ++b) {
      std::span<Record> recs = bucket[b];
      if (below == 0) {
        // Every weight in the bucket is equal: id order is sorted order.
      } else if (recs.size() > hub) {
        sort_in_place(recs, cancelled);
      } else if (recs.size() > 1) {
        if (recs.size() > scratch_size) {
          std::size_t largest = 0;  // of the buckets left, up to the hub
          for (std::size_t k = b; k < num_buckets; ++k) {
            if (bucket[k].size() <= hub) {
              largest = std::max(largest, bucket[k].size());
            }
          }
          scratch = std::make_unique_for_overwrite<Record[]>(largest);
          scratch_size = largest;
        }
        recs = lsd_radix_sort(
            recs, std::span<Record>(scratch.get(), recs.size()), below,
            [base](const Record& x) {
              return priority_weight(x.priority) - base;
            },
            cancelled);
      }
      // A sort the token stopped left its bucket unordered; the token
      // latches, so this poll sees it before any record is united.
      if (cancelled()) {
        r.stats.outcome = cancel->reason();
        return false;
      }
      for (std::size_t i = 0; i < recs.size(); ++i, ++scanned) {
        if (scanned % kScanStride == 0) {
          // Chaos hook: the fallback oracle's scan.  This is the window
          // where "user cancel arrives while mst::auto is already falling
          // back" is exercised deterministically — a scripted timeline
          // cancels on a hit of this point, and the poll right after
          // observes it.
          if (LLPMST_FAILPOINT("kruskal/scan") != fail::Action::kNone) {
            r.stats.outcome = RunOutcome::kInjectedFault;
            return false;
          }
          if (cancelled()) {
            r.stats.outcome = cancel->reason();
            return false;
          }
        }
        if (i + kParentPrefetchDistance < recs.size()) {
          uf.prefetch(recs[i + kParentPrefetchDistance].u);
          uf.prefetch(recs[i + kParentPrefetchDistance].v);
        }
        if (uf.unite(recs[i].u, recs[i].v)) {
          r.edges.push_back(priority_edge(recs[i].priority));
          if (r.edges.size() + 1 == n) return false;  // spanning tree
        }
      }
    }
    c.recs.reset();
    return true;
  };
  const auto finish = [&] {
    // A stopped run leaves its unscanned chunks in `chunks`.
    if (r.stats.outcome == RunOutcome::kOk) chunks.clear();
    finalize_result(g, r);
    return std::move(r);
  };

  bool more = true;
  {
    obs::PhaseTimer scan_phase("scan");
    for (std::size_t i = 0; i < chunks.size() && more; ++i) {
      more = scan(chunks[i]);
    }
  }
  if (!more || light == m) return finish();

  // The filter: every heavy edge whose endpoints the light scan already
  // joined is dropped.  It is heavier than every light edge, and
  // connectivity only grows, so Kruskal would reject it too.  The workers
  // read the flattened union-find's roots, which no one writes until they
  // are done, and each keeps the survivors of its own contiguous id range,
  // so their concatenation is in id order at any worker count.
  {
    obs::PhaseTimer filter_phase("filter");
    const std::span<const VertexId> root = uf.flatten();
    std::vector<std::vector<Record>> kept(bits.size());
    if (!parallel_strides(
            ex, m,
            [&](std::size_t lo, std::size_t hi, std::size_t w) {
              std::vector<Record>& out = kept[w];
              for (std::size_t e = lo; e < hi; ++e) {
                if (e + kFilterPrefetchDistance < hi) {
                  const WeightedEdge& next = edges[e + kFilterPrefetchDistance];
                  __builtin_prefetch(&root[next.u]);
                  __builtin_prefetch(&root[next.v]);
                }
                const WeightedEdge& we = edges[e];
                if (bucket_of(we.w) >= split && root[we.u] != root[we.v]) {
                  out.push_back({make_priority(we.w, static_cast<EdgeId>(e)),
                                 we.u, we.v});
                }
              }
            },
            stop_on("kruskal/filter"))) {
      r.stats.outcome = stop_outcome();
      return finish();
    }
    // The survivors go to their buckets in one chunk, id order kept.
    const auto heavy_of = [&](const Record& x) {
      return bucket_of(priority_weight(x.priority)) - split;
    };
    std::vector<std::size_t> at(num_buckets - split + 1, 0);
    for (const std::vector<Record>& k : kept) {
      for (const Record& x : k) ++at[heavy_of(x) + 1];
    }
    for (std::size_t b = 1; b < at.size(); ++b) at[b] += at[b - 1];
    Chunk& c = chunks.emplace_back(
        Chunk{split, num_buckets,
              std::make_unique_for_overwrite<Record[]>(at.back())});
    for (std::size_t b = split; b < num_buckets; ++b) {
      bucket[b] = {c.recs.get() + at[b - split],
                   at[b - split + 1] - at[b - split]};
    }
    for (std::vector<Record>& k : kept) {
      for (const Record& x : k) c.recs[at[heavy_of(x)]++] = x;
      std::vector<Record>().swap(k);
    }
  }
  {
    obs::PhaseTimer scan_phase("survivor_scan");
    scan(chunks.back());
  }
  return finish();
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
          "bucket by the top weight digit, sort and scan the lightest 2n "
          "edges in cache, then only the heavier edges that still join two "
          "trees (the oracle)",
          {.parallel = true},
          [](const CsrGraph& g, RunContext& ctx) { return kruskal(g, ctx); }};
}

}  // namespace llpmst
