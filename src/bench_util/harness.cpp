#include "bench_util/harness.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "bench_util/table.hpp"
#include "obs/bandwidth.hpp"
#include "obs/critical_path.hpp"
#include "obs/hw_counters.hpp"
#include "obs/mem_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace llpmst {

namespace {

// One structured datapoint, buffered until ObsCli::finish() writes the
// JSONL file.  Collection is opt-in (--bench-json) and guarded by a mutex
// only on the record path — the timed region itself is untouched.
struct BenchRecord {
  std::string workload;
  std::size_t threads = 0;
  std::string algo;
  int warmup = 0;
  bool verified = false;
  std::vector<double> samples_ms;
  obs::HwSample hw;       // delta across the timed reps; available=false
  bool has_hw = false;    // ... unless the group was running
  obs::MemSample mem;     // alloc_* are deltas across the timed reps;
  bool has_mem = false;   // ... unless the allocator hooks are compiled out
  double sched_util = 0;   // scheduler utilization across the timed reps,
  bool has_sched = false;  // ... unless obs is compiled out / no events
  // --profile: the top-3 hottest phase paths by profiler samples across
  // the timed reps, and the estimated DRAM bandwidth (needs hw).
  std::vector<obs::ProfPhaseCount> prof_top;
  std::uint64_t prof_samples = 0;
  unsigned prof_hz = 0;
  bool has_prof = false;
  double est_gbps = -1.0;  // < 0 means not computable (no hw / no wall)
};

struct RecordStore {
  std::mutex mu;
  bool recording = false;
  bool profile = false;  // bracket timed reps with the sampling profiler
  unsigned profile_hz = obs::kDefaultProfileHz;
  std::string ctx_workload;
  std::size_t ctx_threads = 0;
  std::vector<BenchRecord> records;
};

RecordStore& store() {
  static RecordStore* s = new RecordStore;
  return *s;
}

void append_json_f(std::string& out, const char* key, double v,
                   bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"%s\":%.6g%s", key, v, comma ? "," : "");
  out += buf;
}

void append_hw_or_null(std::string& out, const char* key, std::uint64_t v,
                       bool comma = true) {
  char buf[96];
  if (v == obs::kHwAbsent) {
    std::snprintf(buf, sizeof buf, "\"%s\":null%s", key, comma ? "," : "");
  } else {
    std::snprintf(buf, sizeof buf, "\"%s\":%" PRIu64 "%s", key, v,
                  comma ? "," : "");
  }
  out += buf;
}

/// One llpmst-bench document (single line, no trailing newline).
std::string render_record(const std::string& bench, const BenchRecord& r) {
  const Summary s = summarize(r.samples_ms);
  std::string out;
  out.reserve(512);
  out += "{\"schema\":\"llpmst-bench\",\"schema_version\":1,\"bench\":";
  out += obs::json_quote(bench);
  out += ",\"workload\":";
  out += obs::json_quote(r.workload);
  out += ",\"algo\":";
  out += obs::json_quote(r.algo);
  char buf[128];
  std::snprintf(buf, sizeof buf,
                ",\"threads\":%zu,\"warmup\":%d,\"repetitions\":%zu,"
                "\"verified\":%s,\"ms\":{",
                r.threads, r.warmup, r.samples_ms.size(),
                r.verified ? "true" : "false");
  out += buf;
  append_json_f(out, "median", s.median);
  append_json_f(out, "p25", s.p25);
  append_json_f(out, "p75", s.p75);
  append_json_f(out, "iqr", s.p75 - s.p25);
  append_json_f(out, "min", s.min);
  append_json_f(out, "max", s.max);
  append_json_f(out, "mean", s.mean);
  append_json_f(out, "stddev", s.stddev, false);
  out += "},\"samples_ms\":[";
  for (std::size_t i = 0; i < r.samples_ms.size(); ++i) {
    if (i != 0) out.push_back(',');
    std::snprintf(buf, sizeof buf, "%.6g", r.samples_ms[i]);
    out += buf;
  }
  out += "],\"hw\":";
  if (r.has_hw && r.hw.available) {
    out += "{\"available\":true,";
    append_hw_or_null(out, "cycles", r.hw.cycles);
    append_hw_or_null(out, "instructions", r.hw.instructions);
    append_hw_or_null(out, "cache_references", r.hw.cache_references);
    append_hw_or_null(out, "cache_misses", r.hw.cache_misses);
    append_hw_or_null(out, "branch_misses", r.hw.branch_misses);
    if (r.hw.task_clock_ms < 0) {
      out += "\"task_clock_ms\":null}";
    } else {
      append_json_f(out, "task_clock_ms", r.hw.task_clock_ms, false);
      out += "}";
    }
  } else {
    out += "null";
  }
  const obs::MemSample mem = obs::mem_sample();
  out += ",\"mem\":{";
  std::snprintf(buf, sizeof buf, "\"peak_rss_bytes\":%" PRIu64 ",",
                mem.peak_rss_bytes);
  out += buf;
  if (mem.alloc_tracking) {
    std::snprintf(buf, sizeof buf,
                  "\"alloc\":{\"count\":%" PRIu64 ",\"bytes\":%" PRIu64
                  ",\"frees\":%" PRIu64 "},",
                  mem.alloc_count, mem.alloc_bytes, mem.free_count);
    out += buf;
  } else {
    out += "\"alloc\":null,";
  }
  // Unlike "alloc" (process-cumulative at write time, useful only for a
  // leak-shaped sanity glance), "alloc_delta" brackets exactly this record's
  // timed repetitions — divide by "repetitions" for per-run counts.  This is
  // the allocation regression metric bench_compare.py gates on.
  if (r.has_mem) {
    std::snprintf(buf, sizeof buf,
                  "\"alloc_delta\":{\"count\":%" PRIu64 ",\"bytes\":%" PRIu64
                  ",\"frees\":%" PRIu64 "}}",
                  r.mem.alloc_count, r.mem.alloc_bytes, r.mem.free_count);
    out += buf;
  } else {
    out += "\"alloc_delta\":null}";
  }
  // Scheduler telemetry for this record's timed reps.  bench_compare.py
  // reports (never gates) drift in these — utilization collapse is a lead
  // worth surfacing, but too noisy to fail CI on.
  if (r.has_sched) {
    std::snprintf(buf, sizeof buf,
                  ",\"sched\":{\"utilization\":%.4f}", r.sched_util);
    out += buf;
  } else {
    out += ",\"sched\":null";
  }
  // Profiler attribution for this record's timed reps (--profile).
  // bench_compare.py reports (never gates) drift in the top phase paths.
  if (r.has_prof) {
    std::snprintf(buf, sizeof buf,
                  ",\"profile\":{\"hz\":%u,\"samples\":%" PRIu64
                  ",\"top_phases\":[",
                  r.prof_hz, r.prof_samples);
    out += buf;
    for (std::size_t i = 0; i < r.prof_top.size(); ++i) {
      if (i != 0) out.push_back(',');
      out += "{\"name\":";
      out += obs::json_quote(r.prof_top[i].name);
      std::snprintf(buf, sizeof buf, ",\"samples\":%" PRIu64 "}",
                    r.prof_top[i].samples);
      out += buf;
    }
    out += "],\"est_gbps\":";
    if (r.est_gbps < 0) {
      out += "null}";
    } else {
      std::snprintf(buf, sizeof buf, "%.4f}", r.est_gbps);
      out += buf;
    }
  } else {
    out += ",\"profile\":null";
  }
  out += "}";
  return out;
}

void push_record(BenchRecord&& r) {
  RecordStore& s = store();
  std::lock_guard lock(s.mu);
  if (!s.recording) return;
  r.workload = s.ctx_workload;
  r.threads = s.ctx_threads;
  s.records.push_back(std::move(r));
}

bool recording_active() {
  RecordStore& s = store();
  std::lock_guard lock(s.mu);
  return s.recording;
}

}  // namespace

void set_bench_context(const std::string& workload, std::size_t threads) {
  RecordStore& s = store();
  std::lock_guard lock(s.mu);
  s.ctx_workload = workload;
  s.ctx_threads = threads;
}

void record_bench_samples(const std::string& algo,
                          const std::vector<double>& samples_ms, int warmup,
                          bool verified) {
  if (!recording_active()) return;
  BenchRecord r;
  r.algo = algo;
  r.warmup = warmup;
  r.verified = verified;
  r.samples_ms = samples_ms;
  push_record(std::move(r));
}

BenchMeasurement measure_mst(const std::string& name, const CsrGraph& g,
                             const MstResult& reference,
                             const std::function<MstResult()>& run,
                             const BenchOptions& options) {
  (void)g;
  BenchMeasurement m;
  m.name = name;

  for (int i = 0; i < options.warmup; ++i) {
    MstResult r = run();
    if (options.verify && i == 0) {
      if (r.edges != reference.edges ||
          r.total_weight != reference.total_weight) {
        std::fprintf(stderr,
                     "FATAL: %s produced a different MSF than the reference "
                     "(weight %llu vs %llu, %zu vs %zu edges)\n",
                     name.c_str(),
                     static_cast<unsigned long long>(r.total_weight),
                     static_cast<unsigned long long>(reference.total_weight),
                     r.edges.size(), reference.edges.size());
        std::abort();
      }
      m.verified = true;
    }
  }

  // The hw-counter delta brackets exactly the timed repetitions; reads are
  // a handful of syscalls, well outside the per-rep Timer windows.
  const bool record = recording_active();
  const bool hw = obs::hw_active();
  const obs::HwSample hw_before = hw ? obs::hw_read() : obs::HwSample{};
  // The alloc delta brackets the same window: two counter reads (relaxed
  // atomics in the operator-new hooks), nothing inside the Timer spans.
  const obs::MemSample mem_before = record ? obs::mem_sample()
                                           : obs::MemSample{};
  // Scheduler events bracket the same window (sched_start() discards the
  // previous datapoint's).  The per-event cost is one append to the
  // thread's own log, so leaving them on for the timed reps stays inside
  // the perf-smoke noise floor.
  const bool sched = record && obs::kCompiledIn;
  if (sched) obs::sched_start();
  // The sampling profiler (--profile) brackets the timed reps too: arming
  // is a handful of syscalls outside the Timer windows, the samples land
  // inside them — which is the point: the perf-smoke overhead gate measures
  // exactly this configuration against the unprofiled baseline.
  bool prof = false;
  if (record && obs::kCompiledIn) {
    RecordStore& s = store();
    unsigned hz = 0;
    {
      std::lock_guard lock(s.mu);
      if (s.profile) hz = s.profile_hz;
    }
    if (hz != 0) prof = obs::prof_start(hz, nullptr);
  }

  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(options.repetitions));
  for (int i = 0; i < options.repetitions; ++i) {
    Timer t;
    m.last_result = run();
    samples.push_back(t.elapsed_ms());
  }
  m.time_ms = summarize(samples);
  if (sched) obs::sched_stop();
  if (prof) obs::prof_stop();

  if (record) {
    BenchRecord r;
    r.algo = name;
    r.warmup = options.warmup;
    r.verified = m.verified;
    r.samples_ms = std::move(samples);
    if (sched) {
      const obs::SchedulerSummary ss = obs::scheduler_summary();
      if (ss.has_events) {
        r.sched_util = ss.utilization;
        r.has_sched = true;
      }
    }
    if (hw) {
      const obs::HwSample after = obs::hw_read();
      if (after.available && hw_before.available) {
        r.hw = after;
        const auto sub = [](std::uint64_t a, std::uint64_t b) {
          return (a == obs::kHwAbsent || b == obs::kHwAbsent || a < b)
                     ? obs::kHwAbsent
                     : a - b;
        };
        r.hw.cycles = sub(after.cycles, hw_before.cycles);
        r.hw.instructions = sub(after.instructions, hw_before.instructions);
        r.hw.cache_references =
            sub(after.cache_references, hw_before.cache_references);
        r.hw.cache_misses = sub(after.cache_misses, hw_before.cache_misses);
        r.hw.branch_misses =
            sub(after.branch_misses, hw_before.branch_misses);
        r.hw.task_clock_ms =
            (after.task_clock_ms < 0 || hw_before.task_clock_ms < 0)
                ? -1.0
                : after.task_clock_ms - hw_before.task_clock_ms;
        r.has_hw = true;
      }
    }
    if (mem_before.alloc_tracking) {
      const obs::MemSample after = obs::mem_sample();
      if (after.alloc_tracking) {
        r.mem = after;
        r.mem.alloc_count = after.alloc_count - mem_before.alloc_count;
        r.mem.alloc_bytes = after.alloc_bytes - mem_before.alloc_bytes;
        r.mem.free_count = after.free_count - mem_before.free_count;
        r.has_mem = true;
      }
    }
    if (prof) {
      const obs::ProfSnapshot snap = obs::prof_snapshot();
      if (snap.available) {
        r.has_prof = true;
        r.prof_hz = snap.hz;
        r.prof_samples = snap.samples;
        r.prof_top = snap.phases;
        std::sort(r.prof_top.begin(), r.prof_top.end(),
                  [](const obs::ProfPhaseCount& a,
                     const obs::ProfPhaseCount& b) {
                    if (a.samples != b.samples) return a.samples > b.samples;
                    return a.name < b.name;
                  });
        if (r.prof_top.size() > 3) r.prof_top.resize(3);
      }
      // Estimated DRAM bandwidth over the timed reps: hw cache-miss delta
      // x line size / timed wall.  A lower bound (prefetch and
      // write-allocate traffic are not counted) — see obs/bandwidth.hpp.
      if (r.has_hw && r.hw.cache_misses != obs::kHwAbsent) {
        double wall_ms = 0;
        for (const double ms : r.samples_ms) wall_ms += ms;
        if (wall_ms > 0) {
          r.est_gbps = static_cast<double>(r.hw.cache_misses *
                                           obs::kCacheLineBytes) /
                       (wall_ms * 1e6);
        }
      }
    }
    push_record(std::move(r));
  }
  return m;
}

ObsCli::ObsCli(CliParser& cli)
    : metrics_json_(&cli.add_string(
          "metrics-json", "",
          "write the JSON run report (counters, phases) to this file")),
      trace_(&cli.add_string(
          "trace", "",
          "collect and write a Chrome trace-event JSON to this file")),
      bench_json_(&cli.add_string(
          "bench-json", "",
          "write one llpmst-bench JSON record per measured datapoint "
          "(JSON Lines) to this file")),
      csv_out_(&cli.add_string(
          "csv-out", "",
          "also write the result table(s) as CSV to this file (independent "
          "of --csv, which picks the stdout format)")),
      hw_counters_(&cli.add_bool(
          "hw-counters", false,
          "collect hardware counters (cycles, cache misses, ...) via "
          "perf_event_open; degrades to 'unavailable' when denied")),
      profile_(&cli.add_bool(
          "profile", false,
          "bracket every measured datapoint's timed repetitions with the "
          "per-thread CPU-time sampling profiler and record the top-3 "
          "hottest phase paths (plus est. DRAM bandwidth with "
          "--hw-counters) into the bench records")),
      profile_hz_(&cli.add_int(
          "profile-hz", static_cast<std::int64_t>(obs::kDefaultProfileHz),
          "profiler sampling rate in samples/second of per-thread CPU "
          "time (--profile)")) {}

void ObsCli::begin() const {
  if (!metrics_json_->empty() || !trace_->empty()) obs::set_enabled(true);
  // --profile needs the phase *stack* for sample attribution but not the
  // timing aggregates; the stack-only gate keeps hot-loop PhaseTimer
  // scopes at a few relaxed stores each, so the perf_smoke.sh overhead
  // gate (<=3% wall vs the unprofiled baseline) measures sampling with
  // attribution, not the full metrics machinery.
  if (*profile_) obs::set_phase_stack_enabled(true);
  if (!trace_->empty()) obs::trace_start();
  if (!bench_json_->empty() || *profile_) {
    RecordStore& s = store();
    std::lock_guard lock(s.mu);
    s.recording = !bench_json_->empty();
    if (*profile_ && !obs::prof_supported()) {
      std::fprintf(stderr,
                   "note: --profile ignored (profiler unavailable on this "
                   "platform or build)\n");
    } else {
      s.profile = *profile_;
      // Validate before the unsigned cast: a negative value would wrap to a
      // huge rate and a too-high one rounds the timer interval to 0.
      std::int64_t hz = *profile_hz_;
      if (hz < 1 || hz > static_cast<std::int64_t>(obs::kMaxProfileHz)) {
        std::fprintf(stderr,
                     "note: --profile-hz %lld out of range [1, %u]; using "
                     "default %u\n",
                     static_cast<long long>(hz), obs::kMaxProfileHz,
                     obs::kDefaultProfileHz);
        hz = obs::kDefaultProfileHz;
      }
      s.profile_hz = static_cast<unsigned>(hz);
    }
  }
  if (*hw_counters_) {
    std::string why;
    if (!obs::hw_begin(&why)) {
      std::fprintf(stderr, "note: hardware counters unavailable: %s\n",
                   why.c_str());
    }
  }
}

bool ObsCli::write_table(const Table& t) const {
  if (csv_out_->empty()) return true;
  std::FILE* f = std::fopen(csv_out_->c_str(), csv_written_ ? "a" : "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s for writing\n",
                 csv_out_->c_str());
    return false;
  }
  if (csv_written_) std::fputc('\n', f);
  const std::string csv = t.to_csv();
  const bool ok = std::fwrite(csv.data(), 1, csv.size(), f) == csv.size();
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "error: short write to %s\n", csv_out_->c_str());
    return false;
  }
  if (!csv_written_) std::printf("csv: %s\n", csv_out_->c_str());
  csv_written_ = true;
  return true;
}

bool ObsCli::finish(const std::string& tool, std::size_t threads) const {
  // The trace carries the last measured datapoint's scheduler timelines
  // as pid-1 tracks (sched_start() discards the earlier ones).
  if (!trace_->empty()) obs::trace_stop();
  bool ok = true;
  if (!metrics_json_->empty()) {
    obs::RunInfo info;
    info.tool = tool;
    info.threads = threads;
    const obs::HwSample hw_sample = *hw_counters_ ? obs::hw_read()
                                                  : obs::HwSample{};
    std::string err;
    if (obs::write_run_report(
            *metrics_json_,
            obs::build_run_report(info, nullptr,
                                  *hw_counters_ ? &hw_sample : nullptr),
            &err)) {
      std::printf("metrics: %s\n", metrics_json_->c_str());
    } else {
      std::fprintf(stderr, "error writing %s: %s\n", metrics_json_->c_str(),
                   err.c_str());
      ok = false;
    }
  }
  if (!bench_json_->empty()) {
    RecordStore& s = store();
    std::lock_guard lock(s.mu);
    std::FILE* f = std::fopen(bench_json_->c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   bench_json_->c_str());
      ok = false;
    } else {
      bool wrote = true;
      for (const BenchRecord& r : s.records) {
        const std::string line = render_record(tool, r);
        wrote = std::fwrite(line.data(), 1, line.size(), f) == line.size() &&
                std::fputc('\n', f) != EOF && wrote;
      }
      std::fclose(f);
      if (wrote) {
        std::printf("bench records: %s (%zu datapoints)\n",
                    bench_json_->c_str(), s.records.size());
      } else {
        std::fprintf(stderr, "error: short write to %s\n",
                     bench_json_->c_str());
        ok = false;
      }
    }
  }
  if (!trace_->empty()) {
    std::string err;
    if (obs::write_trace_json(*trace_, &err)) {
      std::printf("trace: %s (%zu events)\n", trace_->c_str(),
                  obs::trace_event_count());
    } else {
      std::fprintf(stderr, "error writing %s: %s\n", trace_->c_str(),
                   err.c_str());
      ok = false;
    }
  }
  if (*hw_counters_) obs::hw_end();
  return ok;
}

}  // namespace llpmst
