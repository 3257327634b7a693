#include "obs/recorder.hpp"

#if LLPMST_OBS

#include <algorithm>
#include <bit>
#include <mutex>

namespace llpmst::obs {

namespace {

using detail::Record;
using detail::RecordKind;

/// Distinct phase paths (interned nodes).  Beyond it new paths are not
/// aggregated; real code has well under a hundred.
constexpr std::size_t kMaxPhaseNodes = 1024;
/// Registered counters + gauges that get per-scope values.
constexpr std::size_t kMaxMetrics = 512;

// -- interned phase paths ---------------------------------------------------

// One node per distinct path.  A node is published (release) before its id
// is handed out and never changes afterwards, except that new children are
// pushed onto `children` — so lookups walk the tree without a lock.
struct Node {
  std::uint32_t id;
  std::uint32_t parent;
  std::string name;
  std::string path;  // '/'-joined from the top level
  std::string fold;  // ';'-joined, as folded stacks spell it
  const Node* next = nullptr;  // next sibling
  mutable std::atomic<const Node*> children{nullptr};
};

struct Interner {
  Interner() { nodes[0].store(new Node{0, 0, "", "", ""}); }
  std::mutex mu;  // serializes insertions
  std::atomic<Node*> nodes[kMaxPhaseNodes] = {};
  std::atomic<std::uint32_t> count{1};
};

Interner& interner() {
  static Interner* in = new Interner;  // leaked: ids outlive every thread
  return *in;
}

const Node& node_at(std::uint32_t id) {
  return *interner().nodes[id].load(std::memory_order_acquire);
}

const Node* find_child(const Node& parent, std::string_view name) {
  for (const Node* c = parent.children.load(std::memory_order_acquire);
       c != nullptr; c = c->next) {
    if (c->name == name) return c;
  }
  return nullptr;
}

// -- per-thread logs --------------------------------------------------------

constexpr std::size_t kLogSlots = 8;  // scopes one thread holds at once
constexpr std::uint64_t kFirstChunk = 64;
constexpr std::size_t kNumChunks = 15;  // 64 * (2^15 - 1) records in total
constexpr std::uint64_t kCapacity[detail::kNumRecordKinds] = {
    kMaxTraceRecords, kMaxTraceRecords, kMaxRoundRecords, kMaxSchedEvents};
constexpr unsigned kAllKinds = (1u << detail::kNumRecordKinds) - 1;

/// Only the owner writes a segment, so a plain load + store keeps every
/// field a relaxed atomic (readable by views) without paying for an RMW.
void bump(std::atomic<std::uint64_t>& a, std::uint64_t delta) {
  a.store(a.load(std::memory_order_relaxed) + delta,
          std::memory_order_relaxed);
}

struct PhaseAgg {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_us{0};
};

struct MetricAgg {
  std::atomic<std::uint64_t> value{0};
  std::atomic<bool> touched{false};
};

/// One thread's records for one scope.  Raw records live in chunks of
/// doubling size; `size` publishes them (release) to views.
struct Segment {
  ~Segment() {
    for (auto& c : chunks) delete[] c.load(std::memory_order_relaxed);
  }
  std::atomic<bool> closed{false};
  PhaseAgg phases[kMaxPhaseNodes];
  MetricAgg metrics[kMaxMetrics];
  std::atomic<Record*> chunks[kNumChunks] = {};
  std::atomic<std::uint64_t> size{0};
  std::uint64_t kept[detail::kNumRecordKinds] = {};
  std::atomic<std::uint64_t> dropped[detail::kNumRecordKinds] = {};

  Record& at(std::uint64_t i) {
    const std::uint64_t j = i + kFirstChunk;
    const int c = std::bit_width(j) - std::bit_width(kFirstChunk);
    return chunks[c].load(std::memory_order_acquire)[j - (kFirstChunk << c)];
  }

  void append(const Record& r) {
    const auto k = static_cast<int>(r.kind);
    if (kept[k] >= kCapacity[k]) return bump(dropped[k], 1);
    const std::uint64_t i = size.load(std::memory_order_relaxed);
    const int c = std::bit_width(i + kFirstChunk) - std::bit_width(kFirstChunk);
    if (chunks[c].load(std::memory_order_relaxed) == nullptr) {
      chunks[c].store(new Record[kFirstChunk << c], std::memory_order_release);
    }
    at(i) = r;
    ++kept[k];
    size.store(i + 1, std::memory_order_release);
  }
};

struct ThreadLog {
  explicit ThreadLog(std::uint32_t i) : index(i) {}
  const std::uint32_t index;
  std::atomic<bool> owned{true};
  // Slot i holds the segment of scope slot_scope[i] (0 = free).  The owner
  // fills a slot by storing the segment, then the scope (release).
  std::atomic<std::uint32_t> slot_scope[kLogSlots] = {};
  std::atomic<Segment*> slot_seg[kLogSlots] = {};
  detail::PhaseStack stack;
  std::uint32_t cached_scope = 0;  // owner-only
  Segment* cached = nullptr;
};

struct Logs {
  std::mutex mu;
  std::vector<ThreadLog*> all;  // leaked: views may read a dead thread's log
};

Logs& logs() {
  static Logs* l = new Logs;
  return *l;
}

/// A starting thread adopts the log of one that exited (so the log count
/// stays at the peak thread count) or registers a new one.
ThreadLog* acquire_log() {
  Logs& l = logs();
  std::lock_guard lock(l.mu);
  for (ThreadLog* log : l.all) {
    bool owned = false;
    if (log->owned.compare_exchange_strong(owned, true,
                                           std::memory_order_acquire)) {
      log->cached_scope = 0;
      return log;
    }
  }
  l.all.push_back(new ThreadLog(static_cast<std::uint32_t>(l.all.size())));
  return l.all.back();
}

struct LogHolder {
  ThreadLog* log = nullptr;
  ~LogHolder() {
    if (log != nullptr) log->owned.store(false, std::memory_order_release);
  }
};
thread_local LogHolder tls_log;

ThreadLog& local_log() {
  if (tls_log.log == nullptr) tls_log.log = acquire_log();
  return *tls_log.log;
}

/// Finds or creates the owner's segment for `scope`, freeing segments of
/// closed scopes on the way.  Null when every slot holds a live scope.
Segment* attach(ThreadLog& log, std::uint32_t scope) {
  Segment* seg = nullptr;
  std::size_t free_slot = kLogSlots;
  for (std::size_t i = 0; i < kLogSlots && seg == nullptr; ++i) {
    std::uint32_t s = log.slot_scope[i].load(std::memory_order_relaxed);
    Segment* held = log.slot_seg[i].load(std::memory_order_relaxed);
    if (s == scope) {
      seg = held;
    } else if (s != 0 && held->closed.load(std::memory_order_acquire)) {
      log.slot_scope[i].store(0, std::memory_order_release);
      log.slot_seg[i].store(nullptr, std::memory_order_relaxed);
      delete held;
      s = 0;
    }
    if (s == 0 && free_slot == kLogSlots) free_slot = i;
  }
  if (seg == nullptr && free_slot < kLogSlots) {
    seg = new Segment;
    log.slot_seg[free_slot].store(seg, std::memory_order_relaxed);
    log.slot_scope[free_slot].store(scope, std::memory_order_release);
  }
  log.cached_scope = scope;
  log.cached = seg;
  return seg;
}

Segment* current_segment(ThreadLog& log) {
  const std::uint32_t scope = detail::current_scope();
  return log.cached_scope == scope ? log.cached : attach(log, scope);
}

/// Calls fn(log, segment) for every thread's segment of `scope`.
template <typename Fn>
void for_each_segment(std::uint32_t scope, Fn&& fn) {
  Logs& l = logs();
  std::lock_guard lock(l.mu);
  for (ThreadLog* log : l.all) {
    for (std::size_t i = 0; i < kLogSlots; ++i) {
      if (log->slot_scope[i].load(std::memory_order_acquire) == scope) {
        fn(*log, *log->slot_seg[i].load(std::memory_order_relaxed));
      }
    }
  }
}

/// Drops the current scope's records of the kinds in `kinds` (a
/// coordinator call, see the header's concurrency contract).
void discard(unsigned kinds) {
  for_each_segment(detail::current_scope(), [kinds](ThreadLog&, Segment& s) {
    const std::uint64_t n = s.size.load(std::memory_order_relaxed);
    std::uint64_t kept = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const Record r = s.at(i);
      if ((kinds & detail::kind_bit(r.kind)) == 0) s.at(kept++) = r;
    }
    for (int k = 0; k < detail::kNumRecordKinds; ++k) {
      if ((kinds & (1u << k)) == 0) continue;
      s.kept[k] = 0;
      s.dropped[k].store(0, std::memory_order_relaxed);
    }
    s.size.store(kept, std::memory_order_release);
  });
}

std::uint32_t top_node(const detail::PhaseStack& st) {
  const std::uint32_t d = std::min<std::uint32_t>(
      st.depth.load(std::memory_order_relaxed), detail::kMaxPhaseDepth);
  return d == 0 ? 0 : st.frames[d - 1];
}

void append_local(const Record& r) {
  if (Segment* seg = current_segment(local_log())) seg->append(r);
}

}  // namespace

std::size_t shard_id() { return local_log().index; }

namespace detail {

// -- interning, scopes, metrics ---------------------------------------------

std::uint32_t intern(std::uint32_t parent, std::string_view name) {
  const Node& p = node_at(parent);
  if (const Node* hit = find_child(p, name)) return hit->id;
  Interner& in = interner();
  std::lock_guard lock(in.mu);
  if (const Node* hit = find_child(p, name)) return hit->id;
  const std::uint32_t id = in.count.load(std::memory_order_relaxed);
  if (id >= kMaxPhaseNodes) return 0;
  const std::string n(name);
  auto* node = new Node{id, parent, n, parent == 0 ? n : p.path + "/" + n,
                        parent == 0 ? n : p.fold + ";" + n};
  node->next = p.children.load(std::memory_order_relaxed);
  in.nodes[id].store(node, std::memory_order_release);
  in.count.store(id + 1, std::memory_order_release);
  p.children.store(node, std::memory_order_release);
  return id;
}

std::string node_path(std::uint32_t node, char sep) {
  return sep == ';' ? node_at(node).fold : node_at(node).path;
}

void close_scope(std::uint32_t scope) {
  for_each_segment(scope, [](ThreadLog&, Segment& s) {
    s.closed.store(true, std::memory_order_release);
  });
}

void scope_metric_set(std::uint32_t id, std::uint64_t value, MetricOp op) {
  Segment* seg = id < kMaxMetrics ? current_segment(local_log()) : nullptr;
  if (seg == nullptr) return;
  MetricAgg& m = seg->metrics[id];
  const bool touched = m.touched.load(std::memory_order_relaxed);
  const std::uint64_t cur = m.value.load(std::memory_order_relaxed);
  if (op == MetricOp::kAdd && touched) value += cur;
  if (op == MetricOp::kMax && touched && cur >= value) return;
  m.value.store(value, std::memory_order_relaxed);
  m.touched.store(true, std::memory_order_relaxed);
}

void reset_scope() {
  for_each_segment(current_scope(), [](ThreadLog&, Segment& s) {
    for (PhaseAgg& p : s.phases) {
      p.count.store(0, std::memory_order_relaxed);
      p.total_us.store(0, std::memory_order_relaxed);
    }
    for (MetricAgg& m : s.metrics) m.touched.store(false);
  });
  discard(kAllKinds);
}

// -- the phase stack --------------------------------------------------------

PhaseStack& phase_stack() { return local_log().stack; }

std::string phase_path() { return node_path(top_node(local_log().stack)); }

std::uint32_t phase_push(const char* name) {
  PhaseStack& st = local_log().stack;
  const std::uint32_t d = st.depth.load(std::memory_order_relaxed);
  const std::uint32_t node = intern(top_node(st), name);
  if (d < kMaxPhaseDepth) st.frames[d] = node;
  // Release: a SIGPROF handler that observes d+1 must see frames[d].
  st.depth.store(d + 1, std::memory_order_release);
  return node;
}

void phase_pop(std::uint32_t node, std::uint64_t start_us) {
  const std::uint64_t dur_us = now_us() - start_us;
  phase_pop_fast();
  Segment* seg = current_segment(local_log());
  if (seg == nullptr || node == 0) return;
  bump(seg->phases[node].count, 1);
  bump(seg->phases[node].total_us, dur_us);
  if (trace_collecting()) {
    seg->append(Record{RecordKind::kSpan, 0, node, start_us, {dur_us}});
  }
}

void phase_pop_fast() {
  PhaseStack& st = local_log().stack;
  st.depth.store(st.depth.load(std::memory_order_relaxed) - 1,
                 std::memory_order_relaxed);
}

// -- team regions -----------------------------------------------------------

RegionContext region_context() {
  ThreadLog& log = local_log();
  return RegionContext{current_scope(), top_node(log.stack), &log};
}

RegionWorker::RegionWorker(const RegionContext& ctx) {
  ThreadLog& log = local_log();
  if (&log != ctx.origin) {
    installed_ = true;
    prev_scope_ = current_scope();
    set_current_scope(ctx.scope);
    prev_depth_ = log.stack.depth.load(std::memory_order_relaxed);
    if (ctx.node != 0) {
      if (prev_depth_ < kMaxPhaseDepth) log.stack.frames[prev_depth_] = ctx.node;
      log.stack.depth.store(prev_depth_ + 1, std::memory_order_release);
    }
  }
  timed_ = (gates() & (kGateSched | kGateTrace)) != 0;
  if (timed_) t0_ = now_us();
}

RegionWorker::~RegionWorker() {
  if (timed_) {
    const std::uint64_t dur = now_us() - t0_;
    if (trace_collecting()) {
      static const std::uint32_t region = intern(0, "pool/region");
      append_local(Record{RecordKind::kSpan, 0, region, t0_, {dur}});
    }
    sched_record(SchedEventKind::kTask, t0_, dur);
  }
  if (installed_) {
    local_log().stack.depth.store(prev_depth_, std::memory_order_relaxed);
    set_current_scope(prev_scope_);
  }
}

// -- views ------------------------------------------------------------------

void visit_records(
    unsigned kinds,
    const std::function<void(std::uint32_t, const Record&)>& fn) {
  for_each_segment(current_scope(), [&](ThreadLog& log, Segment& s) {
    const std::uint64_t n = s.size.load(std::memory_order_acquire);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Record& r = s.at(i);
      if ((kinds & kind_bit(r.kind)) != 0) fn(log.index, r);
    }
  });
}

std::uint64_t dropped_records(RecordKind kind) {
  std::uint64_t n = 0;
  for_each_segment(current_scope(), [&](ThreadLog&, Segment& s) {
    n += s.dropped[static_cast<int>(kind)].load(std::memory_order_relaxed);
  });
  return n;
}

}  // namespace detail

std::vector<PhaseSample> snapshot_phases() {
  const std::uint32_t nodes = interner().count.load(std::memory_order_acquire);
  std::vector<PhaseSample> sum(nodes);
  for_each_segment(detail::current_scope(), [&](ThreadLog&, Segment& s) {
    for (std::uint32_t i = 1; i < nodes; ++i) {
      sum[i].count += s.phases[i].count.load(std::memory_order_relaxed);
      sum[i].total_us += s.phases[i].total_us.load(std::memory_order_relaxed);
    }
  });
  std::vector<PhaseSample> out;
  for (std::uint32_t i = 1; i < nodes; ++i) {
    if (sum[i].count == 0) continue;
    sum[i].name = node_at(i).path;
    out.push_back(std::move(sum[i]));
  }
  std::sort(out.begin(), out.end(),
            [](const PhaseSample& a, const PhaseSample& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<MetricSample> snapshot_scope_metrics() {
  std::vector<MetricSample> out;
  for (auto& [id, m] : detail::registered_metrics()) {
    if (id >= kMaxMetrics) continue;
    m.value = 0;  // the process-wide value, replaced by the scope's
    bool touched = false;
    for_each_segment(detail::current_scope(), [&](ThreadLog&, Segment& s) {
      const MetricAgg& a = s.metrics[id];
      if (!a.touched.load(std::memory_order_relaxed)) return;
      const std::uint64_t v = a.value.load(std::memory_order_relaxed);
      m.value = m.is_gauge ? std::max(m.value, v) : m.value + v;
      touched = true;
    });
    if (touched) out.push_back(std::move(m));
  }
  return out;
}

void record_round(const RoundRecord& rr) {
  if (!enabled()) return;
  ThreadLog& log = local_log();
  const std::uint32_t node =
      rr.label.empty() ? top_node(log.stack) : detail::intern(0, rr.label);
  append_local(Record{RecordKind::kRound, 0, node, rr.round,
                      {rr.components, rr.edges, rr.advances,
                       std::bit_cast<std::uint64_t>(rr.wall_ms),
                       std::bit_cast<std::uint64_t>(rr.imbalance)}});
}

std::vector<RoundRecord> snapshot_rounds() {
  std::vector<RoundRecord> out;
  detail::visit_records(detail::kind_bit(RecordKind::kRound),
                        [&out](std::uint32_t, const Record& r) {
                          out.push_back(RoundRecord{
                              node_at(r.node).path, r.ts_us, r.v[0], r.v[1],
                              r.v[2], std::bit_cast<double>(r.v[3]),
                              std::bit_cast<double>(r.v[4])});
                        });
  return out;
}

void sched_start() {
  discard(detail::kind_bit(RecordKind::kSched));
  detail::set_gate(detail::kGateSched, true);
}

void sched_stop() { detail::set_gate(detail::kGateSched, false); }

void sched_record(SchedEventKind kind, std::uint64_t ts_us,
                  std::uint64_t value) {
  if (!sched_collecting()) return;
  append_local(Record{RecordKind::kSched, static_cast<std::uint8_t>(kind), 0,
                      ts_us, {value}});
}

SchedSnapshot snapshot_sched_events() {
  SchedSnapshot snap;
  detail::visit_records(detail::kind_bit(RecordKind::kSched),
                        [&snap](std::uint32_t tid, const Record& r) {
                          snap.events.push_back(SchedEvent{
                              static_cast<SchedEventKind>(r.sched), tid,
                              r.ts_us, r.v[0]});
                        });
  snap.dropped = detail::dropped_records(RecordKind::kSched);
  return snap;
}

void trace_start() {
  discard(detail::kind_bit(RecordKind::kSpan) |
          detail::kind_bit(RecordKind::kSample));
  detail::set_gate(detail::kGateTrace, true);
}

void trace_stop() { detail::set_gate(detail::kGateTrace, false); }

void trace_emit_counter(std::string_view name, std::uint64_t ts_us,
                        std::uint64_t value) {
  if (!trace_collecting()) return;
  append_local(Record{RecordKind::kSample, 0, detail::intern(0, name), ts_us,
                      {value}});
}

}  // namespace llpmst::obs

#endif  // LLPMST_OBS
