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
#include "support/assert.hpp"
#include "support/cancel.hpp"
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
  const CancelToken* cancel;  // null: the run cannot be stopped
  MstResult r;

  std::size_t threads;
  std::size_t k = 0;  // live components in the current (dense) id space
  std::atomic<std::uint32_t> emit_pos{0};  // cursor into s.msf_edges
  std::atomic<std::uint64_t> jump_count{0};
  std::uint64_t jump_rounds = 0;

  // Outputs of the most recent contract() call.
  std::size_t kept = 0;
  std::size_t self_loops = 0;
  std::size_t bundle_dropped = 0;
  std::size_t k_new = 0;
  bool pair_table = false;  // the bundle minimum ran through the pair table

  Engine(const CsrGraph& graph, RunContext& ctx, const BoruvkaConfig& c)
      : g(graph),
        pool(ctx.executor()),
        cfg(c),
        s(ctx.scratch().get<BoruvkaScratch>()),
        cancel(ctx.cancel_token()),
        threads(pool.num_threads()) {}

  [[nodiscard]] bool stopping() const {
    return cancel != nullptr && cancel->cancelled();
  }
  /// The stop predicate every sweep polls once per chunk.
  [[nodiscard]] auto stop() const {
    return [this] { return stopping(); };
  }

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
  /// a single writer and the sweep is read-mostly and race-free.  Like every
  /// sweep below, returns false iff the token stopped it.
  template <typename View>
  bool extract(const View& ev) {
    obs::PhaseTimer span("mwe_select");
    const auto body = [this, &ev](std::size_t i) {
      const EdgePriority p = ev.prio(i);
      const VertexId a = ev.u(i);
      const VertexId b = ev.v(i);
      if (p == s.best[a]) s.partner[a] = b;
      if (p == s.best[b]) s.partner[b] = a;
    };
    return !parallel_for_adaptive(pool, 0, ev.size(), s.extract_grain, body,
                                  stop())
                .stopped;
  }

  /// Hook: every component with an outgoing MWE picks its parent across it;
  /// mutual choices are broken by id (smaller id stays root).  The hooking
  /// side emits the edge (into a unique cursor slot), so each MSF edge is
  /// emitted exactly once; finalize_result orders the ids, so order is free.
  bool hook() {
    obs::PhaseTimer span("hook");
    const auto body = [this](std::size_t c) {
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
    };
    return !parallel_for_adaptive(pool, 0, k, s.vertex_grain, body, stop())
                .stopped;
  }

  /// Pointer jumping: collapse every component to a rooted star.
  bool jump() {
    obs::PhaseTimer span("pointer_jump");
    if (cfg.jumping == PointerJumping::kAsynchronous) {
      // One chaotic pass.  parent chains always lead to a root (roots are
      // stable during this phase), and concurrent shortcuts only replace a
      // pointer with a later node on the same path, so chasing terminates.
      // Full path compression: the discovered root is written back into
      // EVERY node on the chase path, not just the starting vertex — the
      // next vertex sharing a suffix of the path finds its root in O(1).
      ++jump_rounds;
      const auto chase = [this](std::size_t v) {
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
      };
      return !parallel_for_adaptive(pool, 0, k, s.vertex_grain, chase, stop())
                  .stopped;
    }
    // Bulk-synchronous double-buffered jumping; each iteration is a full
    // team barrier (this is the synchronization LLP-Boruvka removes), and
    // the token is polled between iterations.
    s.jump_buf.resize(k);
    for (;;) {
      if (stopping()) return false;
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
      if (!changed.load(std::memory_order_relaxed)) return true;
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
  bool contract(const View& ev) {
    obs::PhaseTimer span("contract");
    const std::size_t me = ev.size();
    const std::size_t grain = s.contract_grain.grain(me, threads);
    const std::uint64_t t0 = detail::grain_clock_ns();
    s.chunk_count.assign((me + grain - 1) / grain, 0);
    s.dense.assign(k, 0);  // live-root marks, scanned into dense ids below

    // Pass A: count survivors per chunk and mark live roots.  A mark is
    // stored only while it still reads 0: with few live roots, a store per
    // edge would keep every worker writing the same cache lines.
    const auto count = [this, &ev, grain](std::size_t lo, std::size_t hi,
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
    };
    if (!parallel_chunks(pool, 0, me, grain, count, stop())) return false;
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
    if (!(pair_table ? bundle_min(ev, grain, pairs) : relabel(ev, grain))) {
      return false;
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
    return true;
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
  bool relabel(const View& ev, std::size_t grain) {
    scan_chunk_counts();
    const auto emit = [this, &ev, grain](std::size_t lo, std::size_t hi,
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
    };
    return parallel_chunks(pool, 0, ev.size(), grain, emit, stop());
  }

  /// Bundle-minimum path: every survivor lowers its pair's slot, then the
  /// finite slots are emitted in row order.  The table's init and scans are
  /// bounded by the surviving edges it replaces.
  template <typename View>
  bool bundle_min(const View& ev, std::size_t grain, std::size_t pairs) {
    if (s.pair_min.size() < pairs) s.pair_min.resize(pairs);
    parallel_for_static(pool, 0, pairs, [this](std::size_t i) {
      s.pair_min[i] = kInfinitePriority;
    });
    const auto lower = [this, &ev](std::size_t lo, std::size_t hi,
                                   std::size_t) {
      for (std::size_t i = lo; i < hi; ++i) {
        const VertexId cu = s.parent[ev.u(i)];
        const VertexId cv = s.parent[ev.v(i)];
        if (cu == cv) continue;
        prio_fetch_min(s.pair_min[slot_of(cu, cv)], ev.prio(i));
      }
    };
    if (!parallel_chunks(pool, 0, ev.size(), grain, lower, stop())) {
      return false;
    }

    const std::size_t tg = s.contract_grain.grain(pairs, threads);
    s.chunk_count.assign((pairs + tg - 1) / tg, 0);
    const auto count = [this, tg](std::size_t lo, std::size_t hi,
                                  std::size_t) {
      std::size_t cnt = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        cnt += s.pair_min[i] != kInfinitePriority;
      }
      s.chunk_count[lo / tg] = cnt;
    };
    if (!parallel_chunks(pool, 0, pairs, tg, count, stop())) return false;
    scan_chunk_counts();
    return parallel_chunks(
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
        },
        stop());
  }

  /// One round's sweeps over the round's edge list; false iff the token
  /// stopped one of them.
  template <typename View>
  bool sweep(const View& ev, BoruvkaRoundStats& info) {
    if (!extract(ev)) return false;
    const std::size_t emitted_before = emit_pos.load(std::memory_order_relaxed);
    const bool hooked = hook();
    info.msf_edges_emitted =
        emit_pos.load(std::memory_order_relaxed) - emitted_before;
    return hooked && jump() && contract(ev);
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
      // An already-triggered token (an expired budget) stops the run before
      // round 1's O(n) setup; from there on, every sweep polls it per chunk.
      if (first_round && stopping()) {
        r.stats.outcome = cancel->reason();
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

      info.components = first_round ? n : k;
      if (first_round) init_round1();
      const bool swept =
          first_round
              ? sweep(CsrEdgeView{&g}, info)
              : sweep(ActiveEdgeView{s.edges.data(), s.edges.size()}, info);
      if (!swept) {
        // Every edge emitted so far is a component MWE, hence an MSF edge:
        // the run returns that partial forest with the token's outcome.
        r.stats.outcome = cancel->reason();
        break;
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
  Engine engine(g, ctx, config);
  return engine.run();
}

}  // namespace llpmst
