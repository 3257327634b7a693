#include "mst/boruvka_engine.hpp"

#include <atomic>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/run_context.hpp"
#include "obs/hw_counters.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "obs/recorder.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/scan.hpp"
#include "parallel/work_stealing.hpp"
#include "support/assert.hpp"
#include "support/failpoint.hpp"

namespace llpmst {

namespace {

// Relaxed atomic accessors over plain scratch arrays.  The engine's arrays
// are plain vectors so the scratch can be resized and reused; the few
// genuinely concurrent accesses (pointer jumping, live marks, fused MWE
// minima) go through std::atomic_ref, everything else relies on the team
// join's happens-before and uses plain loads/stores.
inline VertexId rel_load(VertexId& slot) {
  return std::atomic_ref<VertexId>(slot).load(std::memory_order_relaxed);
}

inline void rel_store(VertexId& slot, VertexId v) {
  std::atomic_ref<VertexId>(slot).store(v, std::memory_order_relaxed);
}

/// Lowers `slot` to min(slot, p); relaxed CAS loop (see atomic_utils.hpp for
/// the std::atomic flavour — this one targets reusable plain arrays).
inline void prio_fetch_min(EdgePriority& slot, EdgePriority p) {
  std::atomic_ref<EdgePriority> ref(slot);
  EdgePriority cur = ref.load(std::memory_order_relaxed);
  while (p < cur &&
         !ref.compare_exchange_weak(cur, p, std::memory_order_relaxed,
                                    std::memory_order_relaxed)) {
  }
}

/// Round-1 edge source: the CSR's original edge list, viewed in place — the
/// engine never materializes a copy of the input edges.
struct CsrEdgeView {
  const CsrGraph* g;
  [[nodiscard]] std::size_t size() const { return g->num_edges(); }
  [[nodiscard]] VertexId u(std::size_t i) const {
    return g->edge(static_cast<EdgeId>(i)).u;
  }
  [[nodiscard]] VertexId v(std::size_t i) const {
    return g->edge(static_cast<EdgeId>(i)).v;
  }
  [[nodiscard]] EdgePriority prio(std::size_t i) const {
    return g->edge_priority(static_cast<EdgeId>(i));
  }
};

/// Later rounds: the contracted multigraph's compact edge list.
struct ActiveEdgeView {
  const BoruvkaActiveEdge* e;
  std::size_t n;
  [[nodiscard]] std::size_t size() const { return n; }
  [[nodiscard]] VertexId u(std::size_t i) const { return e[i].u; }
  [[nodiscard]] VertexId v(std::size_t i) const { return e[i].v; }
  [[nodiscard]] EdgePriority prio(std::size_t i) const { return e[i].prio; }
};

/// Slot of the component pair (a, b), a < b, in the row-major triangular
/// pair table: row b holds the b pairs (0, b) .. (b - 1, b).
[[nodiscard]] inline std::size_t pair_slot(std::size_t a, std::size_t b) {
  return b * (b - 1) / 2 + a;
}

/// One engine run.  Holds the per-run state so the round phases read as
/// small member functions instead of one page-long loop body.
struct Engine {
  const CsrGraph& g;
  Executor& pool;
  const BoruvkaConfig& cfg;
  BoruvkaScratch& s;
  MstResult r;

  std::size_t threads;
  std::size_t k = 0;  // live components in the current (dense) id space
  bool steal_fallback = false;  // extract sweep rerouted after measured skew
  /// max/mean per-worker busy time of the last extract() sweep; 0.0 on
  /// paths that do not time per-worker shares (serial, steal, fixed-chunk).
  double last_extract_imbalance = 0.0;
  std::atomic<std::uint32_t> emit_pos{0};  // cursor into s.msf_edges
  std::atomic<std::uint64_t> jump_count{0};
  std::uint64_t jump_rounds = 0;

  // Outputs of the most recent contract() call.
  std::size_t kept = 0;
  std::size_t self_loops = 0;
  std::size_t bundle_dropped = 0;
  std::size_t k_new = 0;
  bool pair_table = false;  // the bundle minimum ran through the pair table

  Engine(const CsrGraph& graph, Executor& p, const BoruvkaConfig& c,
         BoruvkaScratch& scratch)
      : g(graph), pool(p), cfg(c), s(scratch), threads(p.num_threads()) {}

  /// Round 1 setup: identity parents and the CSR's precomputed per-vertex
  /// minima ("the MWE set can be computed when the graph is input").
  void init_round1() {
    const std::size_t n = g.num_vertices();
    k = n;
    s.parent.resize(n);
    s.best.resize(n);
    s.partner.resize(n);
    s.msf_edges.resize(n == 0 ? 0 : n - 1);  // an MSF has at most n-1 edges
    parallel_for_static(pool, 0, n, [this](std::size_t v) {
      s.parent[v] = static_cast<VertexId>(v);
      s.best[v] = g.min_incident_priority(static_cast<VertexId>(v));
    });
  }

  /// MWE extract: recover, for every component whose minimum is known in
  /// best[], the partner component across that winning edge.  Exactly one
  /// edge matches best[c] (priorities are unique), so each partner slot has
  /// a single writer and the sweep is read-mostly and race-free.
  template <typename View>
  void extract(const View& ev) {
    obs::PhaseTimer span("mwe_select");
    last_extract_imbalance = 0.0;
    const std::size_t me = ev.size();
    auto body = [this, &ev](std::size_t i) {
      const EdgePriority p = ev.prio(i);
      const VertexId a = ev.u(i);
      const VertexId b = ev.v(i);
      if (p == s.best[a]) s.partner[a] = b;
      if (p == s.best[b]) s.partner[b] = a;
    };
    const bool steal = cfg.load_balance == BoruvkaLoadBalance::kWorkStealing ||
                       steal_fallback;
    if (steal) {
      parallel_for_stealing(pool, 0, me, s.extract_grain.grain(me, threads),
                            body);
      return;
    }
    if (cfg.load_balance == BoruvkaLoadBalance::kFixedChunk) {
      parallel_for(pool, 0, me, body);
      return;
    }
    // Adaptive: chunked with a utilization probe.  A sweep that ends with
    // most workers idle (stragglers holding hot, contended components)
    // reroutes the remaining rounds to the work-stealing path, whose lazy
    // splitting peels a straggler's tail in halves.
    if (threads == 1 || s.extract_grain.prefers_serial(me)) {
      const std::uint64_t t0 = detail::grain_clock_ns();
      for (std::size_t i = 0; i < me; ++i) body(i);
      s.extract_grain.update(me,
                             static_cast<double>(detail::grain_clock_ns() - t0));
      return;
    }
    s.worker_ns.assign(threads, 0);
    const std::size_t grain = s.extract_grain.grain(me, threads);
    const std::uint64_t t0 = detail::grain_clock_ns();
    parallel_chunks(pool, 0, me, grain,
                    [this, &body](std::size_t lo, std::size_t hi,
                                  std::size_t w) {
                      const std::uint64_t c0 = detail::grain_clock_ns();
                      for (std::size_t i = lo; i < hi; ++i) body(i);
                      s.worker_ns[w] += detail::grain_clock_ns() - c0;
                    });
    const std::uint64_t wall = detail::grain_clock_ns() - t0;
    s.extract_grain.update(me, static_cast<double>(wall));
    std::uint64_t busy = 0;
    std::uint64_t busy_max = 0;
    for (std::size_t w = 0; w < threads; ++w) {
      busy += s.worker_ns[w];
      if (s.worker_ns[w] > busy_max) busy_max = s.worker_ns[w];
    }
    if (busy > 0) {
      // max/mean: 1.0 = perfectly balanced; feeds the round telemetry.
      last_extract_imbalance = static_cast<double>(busy_max) *
                               static_cast<double>(threads) /
                               static_cast<double>(busy);
    }
    // utilization = busy / (wall * threads); below ~55% on a sweep that is
    // long enough to matter (>100us) means stragglers, not noise.
    if (wall > 100'000 && busy * 100 < wall * threads * 55) {
      steal_fallback = true;
      if (obs::kCompiledIn) {
        obs::counter(std::string(cfg.obs_label) + "/mwe_steal_fallbacks")
            .add(1);
      }
    }
  }

  /// Hook: every component with an outgoing MWE picks its parent across it;
  /// mutual choices are broken by id (smaller id stays root).  The hooking
  /// side emits the edge (into a unique cursor slot), so each MSF edge is
  /// emitted exactly once; finalize_result orders the ids, so order is free.
  void hook() {
    obs::PhaseTimer span("hook");
    parallel_for_adaptive(pool, 0, k, s.vertex_grain, [this](std::size_t c) {
      const EdgePriority p = s.best[c];
      if (p == kInfinitePriority) return;  // no incident edges (round 1 only)
      const VertexId pw = s.partner[c];
      LLPMST_ASSERT(pw < k && pw != static_cast<VertexId>(c));
      if (s.best[pw] == p && static_cast<VertexId>(c) < pw) {
        return;  // mutual MWE: c stays the root of the merged component
      }
      s.parent[c] = pw;
      s.msf_edges[emit_pos.fetch_add(1, std::memory_order_relaxed)] =
          priority_edge(p);
    });
  }

  /// Pointer jumping: collapse every component to a rooted star.
  void jump() {
    obs::PhaseTimer span("pointer_jump");
    if (cfg.jumping == PointerJumping::kAsynchronous) {
      // One chaotic pass.  parent chains always lead to a root (roots are
      // stable during this phase), and concurrent shortcuts only replace a
      // pointer with a later node on the same path, so chasing terminates.
      // Full path compression: the discovered root is written back into
      // EVERY node on the chase path, not just the starting vertex — the
      // next vertex sharing a suffix of the path finds its root in O(1).
      ++jump_rounds;
      parallel_for_adaptive(pool, 0, k, s.vertex_grain, [this](std::size_t v) {
        VertexId root = rel_load(s.parent[v]);
        if (root == static_cast<VertexId>(v)) return;
        std::uint64_t steps = 0;
        for (;;) {
          const VertexId up = rel_load(s.parent[root]);
          if (up == root) break;
          root = up;
          ++steps;
        }
        VertexId cur = static_cast<VertexId>(v);
        while (cur != root) {
          const VertexId nxt = rel_load(s.parent[cur]);
          rel_store(s.parent[cur], root);
          cur = nxt;
        }
        if (steps != 0) {
          jump_count.fetch_add(steps, std::memory_order_relaxed);
        }
      });
    } else {
      // Bulk-synchronous double-buffered jumping; each iteration is a full
      // team barrier (this is the synchronization LLP-Boruvka removes).
      s.jump_buf.resize(k);
      for (;;) {
        ++jump_rounds;
        std::atomic<bool> changed{false};
        parallel_for(pool, 0, k, [this, &changed](std::size_t v) {
          const VertexId p = s.parent[v];
          const VertexId pp = s.parent[p];
          s.jump_buf[v] = pp;
          if (pp != p) changed.store(true, std::memory_order_relaxed);
        });
        parallel_for(pool, 0, k, [this](std::size_t v) {
          if (s.parent[v] != s.jump_buf[v]) {
            s.parent[v] = s.jump_buf[v];
            jump_count.fetch_add(1, std::memory_order_relaxed);
          }
        });
        if (!changed.load(std::memory_order_relaxed)) break;
      }
    }
  }

  /// Contraction: relabel surviving edges to the next round's dense root
  /// space, dropping self-loops, and fold the next round's per-component MWE
  /// minima into the emit pass while the edge is in cache.  When the
  /// triangular pair table over the new ids is no larger than the surviving
  /// edge list, only each component pair's lightest edge survives (the cycle
  /// property makes the heavier ones provably non-MSF); otherwise every
  /// survivor is relabeled as is.  Both paths are exact and their output
  /// does not depend on the thread count.
  template <typename View>
  void contract(const View& ev) {
    obs::PhaseTimer span("contract");
    const std::size_t me = ev.size();
    const std::size_t grain = s.contract_grain.grain(me, threads);
    const std::uint64_t t0 = detail::grain_clock_ns();
    s.chunk_count.assign((me + grain - 1) / grain, 0);
    s.dense.assign(k, 0);  // live-root marks, scanned into dense ids below

    // Pass A: count survivors per chunk and mark live roots.  A mark is
    // stored only while it still reads 0: with few live roots, a store per
    // edge would keep every worker writing the same cache lines.
    parallel_chunks(pool, 0, me, grain,
                    [this, &ev, grain](std::size_t lo, std::size_t hi,
                                       std::size_t) {
                      std::size_t alive = 0;
                      for (std::size_t i = lo; i < hi; ++i) {
                        const VertexId cu = s.parent[ev.u(i)];
                        const VertexId cv = s.parent[ev.v(i)];
                        if (cu == cv) continue;
                        ++alive;
                        mark_live(cu);
                        mark_live(cv);
                      }
                      s.chunk_count[lo / grain] = alive;
                    });
    std::size_t alive_total = 0;
    for (const std::size_t c : s.chunk_count) alive_total += c;
    self_loops = me - alive_total;

    // Dense relabeling: scan the live marks into the next round's component
    // ids.  Every per-component array of the next round is k_new long — the
    // whole working set shrinks at least geometrically with the rounds.
    k_new = static_cast<std::size_t>(exclusive_scan_inplace(pool, s.dense));
    s.best.assign(k_new, kInfinitePriority);
    const std::size_t pairs = pair_slot(0, k_new);
    pair_table = k_new >= 2 && pairs <= alive_total;
    if (pair_table) {
      bundle_min(ev, grain, pairs);
    } else {
      relabel(ev, grain);
    }
    bundle_dropped = alive_total - kept;

    // Testing hook: gather the dropped original edge ids (sequential; the
    // observer path is cold by contract).
    if (cfg.collect_dropped_edges) {
      s.dropped.clear();
      for (std::size_t i = 0; i < me; ++i) {
        const VertexId cu = s.parent[ev.u(i)];
        const VertexId cv = s.parent[ev.v(i)];
        if (cu == cv ||
            (pair_table && s.pair_min[slot_of(cu, cv)] != ev.prio(i))) {
          s.dropped.push_back(priority_edge(ev.prio(i)));
        }
      }
    }

    // The old component space is dead: shrink the per-component arrays and
    // re-establish identity parents for the dense space.
    s.parent.resize(k_new);
    s.partner.resize(k_new);
    parallel_for_adaptive(pool, 0, k_new, s.vertex_grain, [this](std::size_t c) {
      s.parent[c] = static_cast<VertexId>(c);
    });
    s.contract_grain.update(me,
                            static_cast<double>(detail::grain_clock_ns() - t0));
  }

  void mark_live(VertexId c) {
    if (rel_load(s.dense[c]) == 0) rel_store(s.dense[c], 1);
  }

  /// Pair-table slot of the edge between live roots cu != cv.
  [[nodiscard]] std::size_t slot_of(VertexId cu, VertexId cv) const {
    const VertexId du = s.dense[cu];
    const VertexId dv = s.dense[cv];
    return du < dv ? pair_slot(du, dv) : pair_slot(dv, du);
  }

  /// Turns the per-chunk counts into exclusive output offsets (the chunk
  /// count is tiny) and sizes the output list to their total.
  void scan_chunk_counts() {
    kept = 0;
    for (std::size_t& c : s.chunk_count) kept += std::exchange(c, kept);
    s.next_edges.resize(kept);
  }

  /// Relabel path: emit every survivor at its chunk's scanned offset, so the
  /// output keeps input order.
  template <typename View>
  void relabel(const View& ev, std::size_t grain) {
    scan_chunk_counts();
    parallel_chunks(pool, 0, ev.size(), grain,
                    [this, &ev, grain](std::size_t lo, std::size_t hi,
                                       std::size_t) {
                      std::size_t pos = s.chunk_count[lo / grain];
                      for (std::size_t i = lo; i < hi; ++i) {
                        const VertexId cu = s.parent[ev.u(i)];
                        const VertexId cv = s.parent[ev.v(i)];
                        if (cu == cv) continue;
                        const EdgePriority p = ev.prio(i);
                        const VertexId du = s.dense[cu];
                        const VertexId dv = s.dense[cv];
                        s.next_edges[pos++] = {du, dv, p};
                        prio_fetch_min(s.best[du], p);
                        prio_fetch_min(s.best[dv], p);
                      }
                    });
  }

  /// Bundle-minimum path: every survivor lowers its pair's slot, then the
  /// finite slots are emitted in row order.  The table's init and scans are
  /// bounded by the surviving edges it replaces.
  template <typename View>
  void bundle_min(const View& ev, std::size_t grain, std::size_t pairs) {
    if (s.pair_min.size() < pairs) s.pair_min.resize(pairs);
    parallel_for_static(pool, 0, pairs, [this](std::size_t i) {
      s.pair_min[i] = kInfinitePriority;
    });
    parallel_chunks(pool, 0, ev.size(), grain,
                    [this, &ev](std::size_t lo, std::size_t hi, std::size_t) {
                      for (std::size_t i = lo; i < hi; ++i) {
                        const VertexId cu = s.parent[ev.u(i)];
                        const VertexId cv = s.parent[ev.v(i)];
                        if (cu == cv) continue;
                        prio_fetch_min(s.pair_min[slot_of(cu, cv)], ev.prio(i));
                      }
                    });

    const std::size_t tg = s.contract_grain.grain(pairs, threads);
    s.chunk_count.assign((pairs + tg - 1) / tg, 0);
    parallel_chunks(pool, 0, pairs, tg,
                    [this, tg](std::size_t lo, std::size_t hi, std::size_t) {
                      std::size_t cnt = 0;
                      for (std::size_t i = lo; i < hi; ++i) {
                        cnt += s.pair_min[i] != kInfinitePriority;
                      }
                      s.chunk_count[lo / tg] = cnt;
                    });
    scan_chunk_counts();
    parallel_chunks(
        pool, 0, pairs, tg,
        [this, tg](std::size_t lo, std::size_t hi, std::size_t) {
          std::size_t pos = s.chunk_count[lo / tg];
          // Row b of the chunk's first slot: b(b-1)/2 <= lo < b(b+1)/2.
          auto b = static_cast<std::size_t>(
              (1.0 + std::sqrt(1.0 + 8.0 * static_cast<double>(lo))) / 2.0);
          while (pair_slot(0, b) > lo) --b;
          while (pair_slot(0, b + 1) <= lo) ++b;
          std::size_t a = lo - pair_slot(0, b);
          for (std::size_t i = lo; i < hi; ++i) {
            const EdgePriority p = s.pair_min[i];
            if (p != kInfinitePriority) {
              const auto da = static_cast<VertexId>(a);
              const auto db = static_cast<VertexId>(b);
              s.next_edges[pos++] = {da, db, p};
              prio_fetch_min(s.best[da], p);
              prio_fetch_min(s.best[db], p);
            }
            if (++a == b) {
              ++b;
              a = 0;
            }
          }
        });
  }

  MstResult run() {
    const std::size_t n = g.num_vertices();
    const std::size_t m = g.num_edges();
    std::string active_label;
    if (obs::kCompiledIn) {
      active_label = std::string(cfg.obs_label) + "/active_edges";
    }

    std::size_t active = m;
    bool first_round = true;
    const bool rounds_on = obs::kCompiledIn && obs::enabled();
    while (active > 0) {
      // Cancellation checkpoint, once per round: every edge already drained
      // into `chosen` was a genuine MSF edge, so stopping between rounds
      // yields a valid partial forest.
      if (cfg.cancel != nullptr && cfg.cancel->cancelled()) {
        r.stats.outcome = cfg.cancel->reason();
        break;
      }
      // Chaos hook, once per round.  Sleep/yield here widens the window
      // between a round's barriers; a failure spec aborts mid-contraction.
      if (LLPMST_FAILPOINT("boruvka/contract") != fail::Action::kNone) {
        r.stats.outcome = RunOutcome::kInjectedFault;
        break;
      }
      ++r.stats.rounds;
      // Per-round visibility: the geometric shrink of the active edge list
      // is the paper's Section VII story for Boruvka — one span per round
      // plus a counter track ("<label>/active_edges") the viewer plots.
      obs::PhaseTimer round_span("round");
      if (obs::trace_collecting()) {
        obs::trace_emit_counter(active_label, obs::now_us(), active);
      }
      const std::uint64_t round_t0 = rounds_on ? obs::now_us() : 0;

      BoruvkaRoundStats info;
      info.round = r.stats.rounds;
      info.active_edges = active;

      const std::size_t emitted_before =
          emit_pos.load(std::memory_order_relaxed);
      if (first_round) {
        info.components = n;
        init_round1();
        extract(CsrEdgeView{&g});
      } else {
        info.components = k;
        extract(ActiveEdgeView{s.edges.data(), s.edges.size()});
      }
      hook();
      info.msf_edges_emitted =
          emit_pos.load(std::memory_order_relaxed) - emitted_before;
      jump();
      if (first_round) {
        contract(CsrEdgeView{&g});
      } else {
        contract(ActiveEdgeView{s.edges.data(), s.edges.size()});
      }
      s.edges.swap(s.next_edges);
      active = kept;
      k = k_new;
      first_round = false;

      if (rounds_on) {
        obs::RoundRecord rr;
        rr.label = cfg.obs_label;
        rr.round = r.stats.rounds;
        rr.components = info.components;
        rr.edges = info.active_edges;
        rr.advances = info.msf_edges_emitted;
        rr.wall_ms = static_cast<double>(obs::now_us() - round_t0) * 1e-3;
        rr.imbalance = last_extract_imbalance;
        obs::record_round(rr);
      }

      if (cfg.round_observer) {
        info.self_loops_dropped = self_loops;
        info.bundle_edges_dropped = bundle_dropped;
        info.pair_table = pair_table;
        info.components_after = k_new;
        info.edges_after = kept;
        info.dropped_edge_ids = cfg.collect_dropped_edges ? &s.dropped : nullptr;
        cfg.round_observer(info);
      }
    }

    const std::size_t emitted = emit_pos.load(std::memory_order_relaxed);
    LLPMST_ASSERT(emitted <= s.msf_edges.size());
    r.edges.assign(s.msf_edges.begin(),
                   s.msf_edges.begin() + static_cast<std::ptrdiff_t>(emitted));
    r.stats.pointer_jumps = jump_count.load(std::memory_order_relaxed);
    if (obs::kCompiledIn) {
      obs::counter(std::string(cfg.obs_label) + "/jump_rounds")
          .add(jump_rounds);
      obs::gauge(std::string(cfg.obs_label) + "/last_run_rounds")
          .set(r.stats.rounds);
    }
    record_algo_metrics(cfg.obs_label, r.stats);
    finalize_result(g, r);
    return r;
  }
};

}  // namespace

MstResult boruvka_engine(const CsrGraph& g, RunContext& ctx,
                         const BoruvkaConfig& config) {
  obs::PhaseTimer algo_span(config.obs_label);
  obs::ScopedHwCounters hw_scope(config.obs_label);
  // Config fields override the context: an explicit cancel token wins over
  // ctx.cancel_token(), and scratch deliberately does NOT default to the
  // context's arena (the ablation bench measures fresh-vs-reused scratch;
  // the named entry points opt in explicitly).
  BoruvkaConfig cfg = config;
  if (cfg.cancel == nullptr) cfg.cancel = ctx.cancel_token();
  BoruvkaScratch local_scratch;
  BoruvkaScratch& s = cfg.scratch != nullptr ? *cfg.scratch : local_scratch;
  Engine engine(g, ctx.executor(), cfg, s);
  return engine.run();
}

}  // namespace llpmst
