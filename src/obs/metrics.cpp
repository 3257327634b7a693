#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <cstdio>
#include <mutex>
#include <unordered_map>

#include "obs/recorder.hpp"

namespace llpmst::obs {

namespace {

// Warnings live outside the #if: non-convergence and overflow conditions
// must surface in reports even in an LLPMST_OBS=0 build.  Each carries the
// scope it was raised in.
struct WarningStore {
  std::mutex mu;
  std::vector<std::pair<std::uint32_t, std::string>> messages;
};

WarningStore& warnings() {
  static WarningStore* w = new WarningStore;  // leaked: outlives all threads
  return *w;
}

void erase_warnings(std::uint32_t scope) {
  WarningStore& w = warnings();
  std::lock_guard lock(w.mu);
  std::erase_if(w.messages,
                [scope](const auto& m) { return m.first == scope; });
}

constexpr std::uint32_t kDefaultScope = 1;
thread_local std::uint32_t tls_scope = kDefaultScope;
std::atomic<std::uint32_t> g_next_scope{kDefaultScope + 1};

}  // namespace

std::uint32_t detail::current_scope() { return tls_scope; }
void detail::set_current_scope(std::uint32_t scope) { tls_scope = scope; }

RunScope::RunScope()
    : id_(g_next_scope.fetch_add(1, std::memory_order_relaxed)),
      prev_(tls_scope) {
  tls_scope = id_;
}

RunScope::~RunScope() {
#if LLPMST_OBS
  detail::close_scope(id_);
#endif
  erase_warnings(id_);
  tls_scope = prev_;
}

void add_warning(std::string message) {
  WarningStore& w = warnings();
  std::lock_guard lock(w.mu);
  w.messages.emplace_back(tls_scope, std::move(message));
}

std::vector<std::string> snapshot_warnings() {
  WarningStore& w = warnings();
  std::vector<std::string> out;
  std::lock_guard lock(w.mu);
  for (const auto& [scope, message] : w.messages) {
    if (scope == tls_scope) out.push_back(message);
  }
  return out;
}

void clear_warnings() { erase_warnings(tls_scope); }

std::uint64_t now_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            epoch)
          .count());
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

bool write_file(const std::string& path, const std::string& content,
                std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  std::fclose(f);
  if (!ok && error != nullptr) *error = "short write to " + path;
  return ok;
}

#if LLPMST_OBS

namespace {

// Registry of every named metric.  Intentionally leaked (metrics are
// process-lifetime; cached Counter& references in algorithm code must never
// dangle, including during static destruction).  Counters and gauges share
// one id space: the id indexes a scope segment's metric slots.
struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters;
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges;
  std::uint32_t next_id = 0;
};

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

template <typename T, typename Map>
T& get_or_create(Map& map, std::string_view name) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  auto it = map.find(std::string(name));
  if (it == map.end()) {
    it = map.emplace(std::string(name), std::make_unique<T>(r.next_id++)).first;
  }
  return *it->second;
}

}  // namespace

void detail::set_gate(Gate gate, bool on) {
  if (on) {
    g_gates.fetch_or(gate, std::memory_order_relaxed);
  } else {
    g_gates.fetch_and(~static_cast<std::uint32_t>(gate),
                      std::memory_order_relaxed);
  }
}

void Gauge::set_max(std::uint64_t v) {
  std::uint64_t cur = value_.load(std::memory_order_relaxed);
  while (cur < v && !value_.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
  if (enabled()) detail::scope_metric_set(id_, v, detail::MetricOp::kMax);
}

Counter& counter(std::string_view name) {
  return get_or_create<Counter>(registry().counters, name);
}

Gauge& gauge(std::string_view name) {
  return get_or_create<Gauge>(registry().gauges, name);
}

std::vector<std::pair<std::uint32_t, MetricSample>>
detail::registered_metrics() {
  Registry& r = registry();
  std::vector<std::pair<std::uint32_t, MetricSample>> out;
  {
    std::lock_guard lock(r.mu);
    for (const auto& [name, c] : r.counters) {
      out.push_back({c->id(), MetricSample{name, c->value(), false}});
    }
    for (const auto& [name, g] : r.gauges) {
      out.push_back({g->id(), MetricSample{name, g->value(), true}});
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second.name < b.second.name;
  });
  return out;
}

std::vector<MetricSample> snapshot_metrics() {
  std::vector<MetricSample> out;
  for (auto& [id, m] : detail::registered_metrics()) out.push_back(std::move(m));
  return out;
}

void reset_metrics() {
  Registry& r = registry();
  {
    std::lock_guard lock(r.mu);
    for (auto& [name, c] : r.counters) c->reset();
    for (auto& [name, g] : r.gauges) g->reset();
  }
  detail::reset_scope();
}

#else  // !LLPMST_OBS

namespace {
// Shared dummies so counter()/gauge() can hand out references.
Counter g_dummy_counter;
Gauge g_dummy_gauge;
}  // namespace

Counter& counter(std::string_view) { return g_dummy_counter; }
Gauge& gauge(std::string_view) { return g_dummy_gauge; }
std::vector<MetricSample> snapshot_metrics() { return {}; }
std::vector<MetricSample> snapshot_scope_metrics() { return {}; }
void reset_metrics() {}

#endif  // LLPMST_OBS

}  // namespace llpmst::obs
