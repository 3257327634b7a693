#include "obs/trace.hpp"

#include <cstdio>

namespace llpmst::obs {

namespace {

#if LLPMST_OBS

using detail::Record;
using detail::RecordKind;

constexpr unsigned kTraceKinds = detail::kind_bit(RecordKind::kSpan) |
                                 detail::kind_bit(RecordKind::kSample) |
                                 detail::kind_bit(RecordKind::kSched);

/// Calls fn(name, ph, pid, tid, record) for every event of the trace.
template <typename Fn>
void for_each_event(Fn&& fn) {
  detail::visit_records(kTraceKinds, [&](std::uint32_t tid, const Record& r) {
    if (r.kind == RecordKind::kSched) {
      // Task spans get a pid-1 track; grain decisions are aggregate-only.
      if (static_cast<SchedEventKind>(r.sched) == SchedEventKind::kTask) {
        fn("sched/task", 'X', 1u, tid, r);
      }
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
