#include "graph/csr_graph.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "parallel/parallel_for.hpp"
#include "parallel/partition.hpp"
#include "parallel/thread_pool.hpp"
#include "support/radix_sort.hpp"

namespace llpmst {

namespace {

/// Level 2's working record: one arc of a block, gathered from the level-1
/// slices so the radix passes move it as a unit.
struct BlockArc {
  EdgePriority priority;
  VertexId target;
  std::uint32_t row;  // the source's offset inside its block
};

/// A source's offset inside its block is parked in its arc's one-byte
/// mwe_flags slot between the two levels, so a block spans at most 2^8
/// sources.
constexpr unsigned kMaxBlockShift = 8;
constexpr std::size_t kMaxBlockRows = std::size_t{1} << kMaxBlockShift;

/// Blocks hold about this many arcs on average: two 16-byte BlockArc
/// buffers of that size stay in L2.
constexpr std::size_t kTargetBlockArcs = std::size_t{1} << 14;

/// A block with more arcs than this holds a hub.  It is sorted in place by
/// comparator instead, so its temporary is one copy of the block (16 B per
/// arc) rather than two.  Blocks average at most kTargetBlockArcs arcs, so
/// only hubs take this path.
constexpr std::size_t kHubBlockArcs = std::size_t{1} << 18;

/// How many arcs ahead the flag pass prefetches its target's minimum.
constexpr std::size_t kFlagPrefetch = 16;

/// log2 of the sources per block: the largest shift <= kMaxBlockShift whose
/// blocks average at most kTargetBlockArcs arcs.
unsigned block_shift(std::size_t n, std::size_t arcs) {
  unsigned sh = 0;
  while (sh < kMaxBlockShift && (arcs << (sh + 1)) <= kTargetBlockArcs * n) {
    ++sh;
  }
  return sh;
}

}  // namespace

CsrGraph CsrGraph::build(const EdgeList& list, Executor* pool) {
  LLPMST_CHECK_MSG(list.is_normalized(),
                   "CsrGraph::build requires a normalized EdgeList "
                   "(call EdgeList::normalize() first)");
  LLPMST_CHECK_MSG(list.num_edges() < kInvalidEdge,
                   "edge count exceeds 32-bit edge id space");

  const std::size_t n = list.num_vertices();
  const std::size_t m = list.num_edges();
  // Offsets are u64 regardless of platform so heap- and mmap-backed sections
  // share one span type.
  std::vector<WeightedEdge> edges = list.edges();
  std::vector<std::uint64_t> offsets(n + 1);
  std::vector<VertexId> targets(2 * m);
  std::vector<EdgePriority> priorities(2 * m);
  std::vector<EdgePriority> mwe(n);
  std::vector<std::uint8_t> mwe_flags(2 * m);

  // The build is one stable sort of the 2m arcs by (source, weight); arcs
  // are produced in edge-id order, so stability leaves every row in
  // (weight, id) == priority order.  It runs in two cache-sized levels over
  // blocks of 2^sh consecutive sources.
  const unsigned sh = block_shift(n, 2 * m);
  const std::size_t num_blocks = (n + (std::size_t{1} << sh) - 1) >> sh;
  // Without a pool the same code runs on a one-thread pool, which spawns no
  // thread and runs every loop inline.
  ThreadPool inline_pool(1);
  Executor& ex = pool != nullptr ? *pool : inline_pool;
  const std::size_t workers = ex.num_threads();

  // Level 1: a stable partition of the arcs into blocks, in edge-id order
  // (see BucketPartition).  Each arc lands with its (target, priority) and
  // its source's row inside the block, parked in mwe_flags.
  BucketPartition level1(&ex, m, num_blocks);
  level1.count([&](std::size_t lo, std::size_t hi, std::uint64_t* count) {
    for (std::size_t i = lo; i < hi; ++i) {
      ++count[edges[i].u >> sh];
      ++count[edges[i].v >> sh];
    }
  });
  const std::vector<std::uint64_t>& block_begin = level1.begin();
  const VertexId row_mask = (VertexId{1} << sh) - 1;
  level1.place([&](std::size_t lo, std::size_t hi, std::uint64_t* next) {
    for (std::size_t i = lo; i < hi; ++i) {
      const WeightedEdge& e = edges[i];
      const EdgePriority p = make_priority(e.w, static_cast<EdgeId>(i));
      const std::uint64_t cu = next[e.u >> sh]++;
      targets[cu] = e.v;
      priorities[cu] = p;
      mwe_flags[cu] = static_cast<std::uint8_t>(e.u & row_mask);
      const std::uint64_t cv = next[e.v >> sh]++;
      targets[cv] = e.u;
      priorities[cv] = p;
      mwe_flags[cv] = static_cast<std::uint8_t>(e.v & row_mask);
    }
  });

  // Level 2, per block and in cache: gather the slice, LSD-radix it by the
  // weight digits that vary inside the block, then scatter it by row into
  // the same slice (a hub's block is sorted by row and priority in place).
  // Rows come out in priority order, so each row's first arc is its
  // vertex's minimum incident priority.
  std::vector<std::vector<BlockArc>> buffers(workers);
  const auto sort_block = [&](std::size_t b, std::size_t w) {
    std::vector<BlockArc>& buf = buffers[w];
    const std::uint64_t lo = block_begin[b];
    const std::size_t len = block_begin[b + 1] - lo;
    const bool hub = len > kHubBlockArcs;
    if (buf.size() < (hub ? len : 2 * len)) buf.resize(hub ? len : 2 * len);
    const std::size_t first = b << sh;
    const std::size_t rows = std::min(std::size_t{1} << sh, n - first);
    std::array<std::uint64_t, kMaxBlockRows + 1> row_begin{};
    Weight any = 0;
    Weight all = ~Weight{0};
    for (std::size_t i = 0; i < len; ++i) {
      const BlockArc a{priorities[lo + i], targets[lo + i], mwe_flags[lo + i]};
      buf[i] = a;
      ++row_begin[a.row + 1];
      any |= priority_weight(a.priority);
      all &= priority_weight(a.priority);
    }
    row_begin[0] = lo;
    for (std::size_t r = 0; r < rows; ++r) {
      row_begin[r + 1] += row_begin[r];
      offsets[first + r] = row_begin[r];
    }
    if (hub) {
      // Priorities are unique, so (row, priority) is a total order.
      std::sort(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(len),
                [](const BlockArc& x, const BlockArc& y) {
                  return x.row != y.row ? x.row < y.row
                                        : x.priority < y.priority;
                });
      for (std::size_t i = 0; i < len; ++i) {
        targets[lo + i] = buf[i].target;
        priorities[lo + i] = buf[i].priority;
      }
    } else {
      const std::span<BlockArc> sorted = lsd_radix_sort(
          std::span<BlockArc>(buf.data(), len),
          std::span<BlockArc>(buf.data() + len, len), any & ~all,
          [](const BlockArc& a) { return priority_weight(a.priority); });
      std::array<std::uint64_t, kMaxBlockRows> next;
      std::copy_n(row_begin.begin(), rows, next.begin());
      for (const BlockArc& a : sorted) {
        const std::uint64_t c = next[a.row]++;
        targets[c] = a.target;
        priorities[c] = a.priority;
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      mwe[first + r] = row_begin[r] == row_begin[r + 1]
                           ? kInfinitePriority
                           : priorities[row_begin[r]];
    }
  };
  parallel_for_worker(ex, 0, num_blocks, sort_block, /*chunk=*/1);
  offsets[n] = 2 * m;

  // Per-arc MWE flags (see arc_mwe_flags): arc from v is flagged when its
  // edge is the MWE of v or of the target.  This overwrites the rows parked
  // in mwe_flags, and needs every block's minima.
  const auto fill_flags = [&](std::size_t v) {
    for (std::size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (i + kFlagPrefetch < 2 * m) {
        __builtin_prefetch(&mwe[targets[i + kFlagPrefetch]]);
      }
      const EdgePriority p = priorities[i];
      mwe_flags[i] = (p == mwe[v] || p == mwe[targets[i]]) ? 1 : 0;
    }
  };
  parallel_for(ex, 0, n, fill_flags, /*chunk=*/256);

  return from_storage(std::make_shared<HeapStorage>(
      std::move(offsets), std::move(targets), std::move(priorities),
      std::move(mwe), std::move(mwe_flags), std::move(edges)));
}

CsrGraph CsrGraph::from_storage(StoragePtr storage) {
  LLPMST_CHECK_MSG(storage != nullptr,
                   "CsrGraph::from_storage requires a storage backend");
  const CsrSections& s = storage->sections();
  const std::size_t n = s.offsets.empty() ? 0 : s.offsets.size() - 1;
  const std::size_t m = s.edges.size();
  LLPMST_CHECK_MSG(s.targets.size() == 2 * m &&
                       s.priorities.size() == 2 * m &&
                       s.mwe_flags.size() == 2 * m && s.mwe.size() == n,
                   "storage sections violate the CSR shape contract");
  CsrGraph g;
  g.sec_ = s;
  g.storage_ = std::move(storage);
  return g;
}

TotalWeight CsrGraph::total_weight() const {
  TotalWeight sum = 0;
  for (const WeightedEdge& e : sec_.edges) sum += e.w;
  return sum;
}

}  // namespace llpmst
