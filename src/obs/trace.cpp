#include "obs/trace.hpp"

#include <cstdio>
#include <utility>

namespace llpmst::obs {

namespace {

#if LLPMST_OBS

using detail::Record;
using detail::RecordKind;

constexpr unsigned kTraceKinds = detail::kind_bit(RecordKind::kSpan) |
                                 detail::kind_bit(RecordKind::kSample) |
                                 detail::kind_bit(RecordKind::kSched);

/// The pid-1 track of a scheduler event ({name, ph}), or {null, 0} for the
/// aggregate-only points (steal attempts, grain decisions).
std::pair<const char*, char> sched_track(const Record& r) {
  switch (static_cast<SchedEventKind>(r.sched)) {
    case SchedEventKind::kTask: return {"sched/task", 'X'};
    case SchedEventKind::kIdle: return {"sched/idle", 'X'};
    case SchedEventKind::kStealSuccess: return {"sched/steal", 'i'};
    default: return {nullptr, 0};
  }
}

/// Calls fn(name, ph, pid, tid, record) for every event of the trace.
template <typename Fn>
void for_each_event(Fn&& fn) {
  detail::visit_records(kTraceKinds, [&](std::uint32_t tid, const Record& r) {
    if (r.kind == RecordKind::kSched) {
      const auto [name, ph] = sched_track(r);
      if (name != nullptr) fn(name, ph, 1u, tid, r);
    } else {
      fn(detail::node_path(r.node),
         r.kind == RecordKind::kSample ? 'C' : 'X', 0u, tid, r);
    }
  });
}

#endif  // LLPMST_OBS

}  // namespace

std::string trace_json() {
  std::string out = "{\"traceEvents\":[";
#if LLPMST_OBS
  bool first = true;
  char line[160];
  for_each_event([&](const std::string& name, char ph, unsigned pid,
                     std::uint32_t tid, const Record& r) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    out += json_quote(name);
    const auto ts = static_cast<unsigned long long>(r.ts_us);
    const auto v = static_cast<unsigned long long>(r.v[0]);
    if (ph == 'C') {
      std::snprintf(line, sizeof(line),
                    ",\"cat\":\"llpmst\",\"ph\":\"C\",\"ts\":%llu,"
                    "\"pid\":%u,\"tid\":%u,\"args\":{\"value\":%llu}}",
                    ts, pid, tid, v);
    } else if (ph == 'i') {
      // Instant event, thread-scoped ("s":"t").
      std::snprintf(line, sizeof(line),
                    ",\"cat\":\"llpmst\",\"ph\":\"i\",\"ts\":%llu,"
                    "\"s\":\"t\",\"pid\":%u,\"tid\":%u}",
                    ts, pid, tid);
    } else {
      std::snprintf(line, sizeof(line),
                    ",\"cat\":\"llpmst\",\"ph\":\"X\",\"ts\":%llu,"
                    "\"dur\":%llu,\"pid\":%u,\"tid\":%u}",
                    ts, v, pid, tid);
    }
    out += line;
  });
#endif
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::size_t trace_event_count() {
  std::size_t n = 0;
#if LLPMST_OBS
  for_each_event([&n](const auto&, char, unsigned, std::uint32_t,
                      const Record&) { ++n; });
#endif
  return n;
}

}  // namespace llpmst::obs
