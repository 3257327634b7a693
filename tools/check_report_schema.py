#!/usr/bin/env python3
"""Validate llpmst observability JSON documents against their schemas.

    tools/check_report_schema.py out.json records.bench.jsonl [...]

Understands three document kinds, dispatched on the "schema" field:

  * llpmst-run-report (schema_version 4, the only current version) — the
    --metrics-json run report: run metadata, "algo", the "hw" (hardware
    counters, null-safe) and "mem" (peak RSS + allocation stats)
    sections, counters/gauges/phases, the "rounds" array (per-round
    solver telemetry), the "scheduler" section (utilization / steal /
    critical-path summary, null when no scheduler events were
    collected), the "profile" section (sampling-profiler phase/stack
    histograms, null when not armed), the "bandwidth" section
    (DRAM-bandwidth phase estimates derived from hw cache-miss deltas,
    null when hw was not requested) and warnings.  profile and
    bandwidth follow the hw degradation contract: an
    {"available": false, "reason": ...} object when the facility could
    not run.
  * llpmst-bench (schema_version 1) — one structured datapoint per
    benchmark measurement, as emitted by --bench-json and consumed by
    tools/bench_compare.py.  May carry an optional "sched" section
    (null or {utilization, steal_rate}) and an optional "profile"
    section (null or {hz, samples, top_phases, est_gbps}).
  * llpmst-serve-response (schema_version 1) — llpmstd's response
    envelope for control ops (load/unload/list/cancel/healthz) and for
    rejected/cancelled queries: {id, op, status, error, data}.  Executed
    queries instead stream a full llpmst-run-report line carrying an
    extra "request" section ({id, graph, algo, status, error, queue_ms,
    batch, verified}); this checker validates that section whenever it
    is present.  docs/serving.md is the wire-protocol reference.

Files ending in .jsonl are treated as JSON Lines (one document per line,
blank lines and empty files allowed); everything else must hold a single
JSON document or a JSON array of documents.

Exits non-zero (listing every violation) if any document deviates from the
contracts in docs/observability.md / EXPERIMENTS.md.  Uses only the
standard library so CI needs no extra packages.
"""
import json
import sys

# "internal_error" is llpmstd's verdict for a query whose algorithm threw —
# the daemon reports the wreck instead of dying with it.
OUTCOMES = {"ok", "non_converged", "cancelled", "deadline_exceeded",
            "injected_fault", "fallback", "internal_error"}

STATUS_CODES = {"OK", "INVALID_ARGUMENT", "CORRUPT_INPUT", "IO_ERROR",
                "RESOURCE_EXHAUSTED", "CANCELLED", "DEADLINE_EXCEEDED",
                "NON_CONVERGENCE", "INJECTED_FAULT", "INTERNAL"}

HW_COUNTER_FIELDS = ("cycles", "instructions", "cache_references",
                     "cache_misses", "branch_misses")


def make_expect(errors, where):
    def err(msg):
        errors.append(f"{where}: {msg}")

    def expect(cond, msg):
        if not cond:
            err(msg)
        return cond

    return expect


def check_hw_fields(hw, expect, prefix):
    """Validates the per-counter fields shared by the report's hw section
    and its per-phase entries: absent counters are null, present ones are
    non-negative integers; task_clock_ms is null or a number."""
    for key in HW_COUNTER_FIELDS:
        v = hw.get(key, "<missing>")
        expect(v is None or (isinstance(v, int) and v >= 0),
               f"{prefix}.{key} = {v!r} is neither null nor a non-negative "
               "integer")
    tc = hw.get("task_clock_ms", "<missing>")
    expect(tc is None or isinstance(tc, (int, float)),
           f"{prefix}.task_clock_ms = {tc!r} is neither null nor a number")


def check_hw(hw, expect):
    if hw is None:
        return  # --hw-counters not requested
    if not expect(isinstance(hw, dict), "hw is neither null nor an object"):
        return
    avail = hw.get("available")
    if not expect(isinstance(avail, bool),
                  f"hw.available is {avail!r}, not a bool"):
        return
    if not avail:
        expect(isinstance(hw.get("reason"), str) and hw["reason"],
               "hw.available is false but hw.reason is not a non-empty "
               "string")
        return
    check_hw_fields(hw, expect, "hw")
    mr = hw.get("multiplex_ratio")
    expect(isinstance(mr, (int, float)) and 0 <= mr <= 1,
           f"hw.multiplex_ratio = {mr!r} not a number in [0, 1]")
    phases = hw.get("phases")
    if expect(isinstance(phases, list), "hw.phases is not an array"):
        for i, p in enumerate(phases):
            if not expect(isinstance(p, dict),
                          f"hw.phases[{i}] is not an object"):
                continue
            expect(isinstance(p.get("name"), str),
                   f"hw.phases[{i}].name is {p.get('name')!r}")
            expect(isinstance(p.get("count"), int) and p.get("count", 0) >= 1,
                   f"hw.phases[{i}].count is {p.get('count')!r}")
            check_hw_fields(p, expect, f"hw.phases[{i}]")


def check_alloc_section(mem, name, expect, required):
    """Validates mem.<name>, a null-or-{count,bytes,frees} section."""
    section = mem.get(name, "<missing>")
    if section == "<missing>":
        if required:
            expect(False, f"mem.{name} is missing (must be null or an "
                          "object)")
        return
    if section is None:
        return
    if expect(isinstance(section, dict),
              f"mem.{name} is neither null nor an object"):
        for key in ("count", "bytes", "frees"):
            v = section.get(key)
            expect(isinstance(v, int) and v >= 0,
                   f"mem.{name}.{key} = {v!r} is not a non-negative "
                   "integer")


def check_mem(mem, expect, bench_record=False):
    if not expect(isinstance(mem, dict), "mem is not an object"):
        return
    rss = mem.get("peak_rss_bytes")
    expect(isinstance(rss, int) and rss >= 0,
           f"mem.peak_rss_bytes = {rss!r} is not a non-negative integer")
    check_alloc_section(mem, "alloc", expect, required=True)
    # alloc_delta (allocations bracketing the timed reps) is emitted only by
    # bench records; run reports carry cumulative counts alone.
    check_alloc_section(mem, "alloc_delta", expect, required=bench_record)


def check_rounds(rounds, expect):
    """Validates the "rounds" array: always present, possibly empty."""
    if not expect(isinstance(rounds, list), "rounds is not an array"):
        return
    for i, r in enumerate(rounds):
        if not expect(isinstance(r, dict), f"rounds[{i}] is not an object"):
            continue
        expect(isinstance(r.get("label"), str),
               f"rounds[{i}].label is {r.get('label')!r}")
        for key in ("round", "components", "edges", "advances"):
            v = r.get(key)
            expect(isinstance(v, int) and v >= 0,
                   f"rounds[{i}].{key} = {v!r} is not a non-negative integer")
        for key in ("wall_ms", "imbalance"):
            v = r.get(key)
            expect(isinstance(v, (int, float)) and v >= 0,
                   f"rounds[{i}].{key} = {v!r} is not a non-negative number")


def check_scheduler(sched, expect):
    """Validates the "scheduler" section: null (no events) or a summary
    object whose ratios sit in [0, 1] and counts are non-negative ints."""
    if sched == "<missing>":
        expect(False, "scheduler section is missing (must be null or an "
                      "object)")
        return
    if sched is None:
        return  # no scheduler events were collected (e.g. LLPMST_OBS=0)
    if not expect(isinstance(sched, dict),
                  "scheduler is neither null nor an object"):
        return
    for key in ("utilization", "steal_success_rate"):
        v = sched.get(key)
        expect(isinstance(v, (int, float)) and 0 <= v <= 1,
               f"scheduler.{key} = {v!r} is not a number in [0, 1]")
    for key in ("span_us", "busy_us", "idle_us", "steal_attempts",
                "steal_successes", "critical_path_us", "dropped_events"):
        v = sched.get(key)
        expect(isinstance(v, int) and v >= 0,
               f"scheduler.{key} = {v!r} is not a non-negative integer")
    workers = sched.get("workers")
    if expect(isinstance(workers, list) and workers,
              "scheduler.workers is not a non-empty array"):
        for i, w in enumerate(workers):
            if not expect(isinstance(w, dict),
                          f"scheduler.workers[{i}] is not an object"):
                continue
            for key in ("worker", "busy_us", "idle_us", "tasks",
                        "steal_attempts", "steal_successes"):
                v = w.get(key)
                expect(isinstance(v, int) and v >= 0,
                       f"scheduler.workers[{i}].{key} = {v!r} is not a "
                       "non-negative integer")
    hist = sched.get("grain_hist")
    if expect(isinstance(hist, list), "scheduler.grain_hist is not an array"):
        for i, h in enumerate(hist):
            if not expect(isinstance(h, dict),
                          f"scheduler.grain_hist[{i}] is not an object"):
                continue
            for key in ("grain", "count"):
                v = h.get(key)
                expect(isinstance(v, int) and v >= 0,
                       f"scheduler.grain_hist[{i}].{key} = {v!r} is not a "
                       "non-negative integer")


def check_profile(profile, expect):
    """Validates the "profile" section: null (profiler not armed), an
    {"available": false, "reason"} degradation object, or the full
    phase/stack sample histograms."""
    if profile == "<missing>":
        expect(False, "profile section is missing (must be null or an "
                      "object)")
        return
    if profile is None:
        return  # profiler not armed for this run
    if not expect(isinstance(profile, dict),
                  "profile is neither null nor an object"):
        return
    avail = profile.get("available")
    if not expect(isinstance(avail, bool),
                  f"profile.available is {avail!r}, not a bool"):
        return
    if not avail:
        expect(isinstance(profile.get("reason"), str) and profile["reason"],
               "profile.available is false but profile.reason is not a "
               "non-empty string")
        return
    for key in ("hz", "samples", "dropped"):
        v = profile.get(key)
        expect(isinstance(v, int) and v >= 0,
               f"profile.{key} = {v!r} is not a non-negative integer")
    phases = profile.get("phases")
    if expect(isinstance(phases, list), "profile.phases is not an array"):
        for i, p in enumerate(phases):
            if not expect(isinstance(p, dict),
                          f"profile.phases[{i}] is not an object"):
                continue
            expect(isinstance(p.get("name"), str) and p.get("name"),
                   f"profile.phases[{i}].name is {p.get('name')!r}")
            expect(isinstance(p.get("samples"), int)
                   and p.get("samples", 0) >= 1,
                   f"profile.phases[{i}].samples is {p.get('samples')!r}")
    stacks = profile.get("top_stacks")
    if expect(isinstance(stacks, list),
              "profile.top_stacks is not an array"):
        expect(len(stacks) <= 20,
               f"profile.top_stacks has {len(stacks)} entries (cap is 20)")
        for i, s in enumerate(stacks):
            if not expect(isinstance(s, dict),
                          f"profile.top_stacks[{i}] is not an object"):
                continue
            expect(isinstance(s.get("stack"), str) and s.get("stack"),
                   f"profile.top_stacks[{i}].stack is {s.get('stack')!r}")
            expect(isinstance(s.get("samples"), int)
                   and s.get("samples", 0) >= 1,
                   f"profile.top_stacks[{i}].samples is "
                   f"{s.get('samples')!r}")


BANDWIDTH_VERDICTS = {"unknown", "compute-bound", "memory-bound"}


def check_bandwidth(bw, expect):
    """Validates the "bandwidth" section: null (hw not requested), an
    {"available": false, "reason"} degradation object, or per-phase DRAM
    traffic estimates with roofline-style verdicts."""
    if bw == "<missing>":
        expect(False, "bandwidth section is missing (must be null or an "
                      "object)")
        return
    if bw is None:
        return  # --hw-counters not requested
    if not expect(isinstance(bw, dict),
                  "bandwidth is neither null nor an object"):
        return
    avail = bw.get("available")
    if not expect(isinstance(avail, bool),
                  f"bandwidth.available is {avail!r}, not a bool"):
        return
    if not avail:
        expect(isinstance(bw.get("reason"), str) and bw["reason"],
               "bandwidth.available is false but bandwidth.reason is not a "
               "non-empty string")
        return
    lb = bw.get("line_bytes")
    expect(isinstance(lb, int) and lb >= 1,
           f"bandwidth.line_bytes = {lb!r} is not a positive integer")
    phases = bw.get("phases")
    if expect(isinstance(phases, list), "bandwidth.phases is not an array"):
        for i, p in enumerate(phases):
            if not expect(isinstance(p, dict),
                          f"bandwidth.phases[{i}] is not an object"):
                continue
            expect(isinstance(p.get("name"), str) and p.get("name"),
                   f"bandwidth.phases[{i}].name is {p.get('name')!r}")
            for key in ("cache_misses", "est_bytes"):
                v = p.get(key)
                expect(isinstance(v, int) and v >= 0,
                       f"bandwidth.phases[{i}].{key} = {v!r} is not a "
                       "non-negative integer")
            wall = p.get("wall_ms")
            expect(isinstance(wall, (int, float)) and wall >= 0,
                   f"bandwidth.phases[{i}].wall_ms = {wall!r} is not a "
                   "non-negative number")
            for key in ("est_gbps", "instr_per_byte"):
                v = p.get(key, "<missing>")
                expect(v is None or (isinstance(v, (int, float)) and v >= 0),
                       f"bandwidth.phases[{i}].{key} = {v!r} is neither "
                       "null nor a non-negative number")
            verdict = p.get("verdict")
            expect(verdict in BANDWIDTH_VERDICTS,
                   f"bandwidth.phases[{i}].verdict {verdict!r} not one of "
                   f"{sorted(BANDWIDTH_VERDICTS)}")


def check_serve_error(err, expect, prefix):
    """Validates a serve error field: null, or {code, message} with a code
    from the Status taxonomy."""
    if err is None:
        return
    if not expect(isinstance(err, dict),
                  f"{prefix} is neither null nor an object"):
        return
    expect(err.get("code") in STATUS_CODES,
           f"{prefix}.code {err.get('code')!r} not one of "
           f"{sorted(STATUS_CODES)}")
    expect(isinstance(err.get("message"), str) and err["message"],
           f"{prefix}.message is not a non-empty string")


def check_request_section(req, expect):
    """Validates the "request" section llpmstd splices into per-query run
    reports (absent entirely on batch-tool reports)."""
    if not expect(isinstance(req, dict), "request is not an object"):
        return
    for key in ("id", "graph", "algo"):
        expect(isinstance(req.get(key), str) and req[key],
               f"request.{key} is {req.get(key)!r}, not a non-empty string")
    status = req.get("status")
    expect(status in ("ok", "error"),
           f"request.status is {status!r}, not 'ok' or 'error'")
    err = req.get("error", "<missing>")
    expect(err != "<missing>", "request.error is missing")
    if err != "<missing>":
        check_serve_error(err, expect, "request.error")
        if status == "ok":
            expect(err is None, "request.status is 'ok' but request.error "
                                "is not null")
        elif status == "error":
            expect(isinstance(err, dict),
                   "request.status is 'error' but request.error is null")
    qm = req.get("queue_ms")
    expect(isinstance(qm, (int, float)) and qm >= 0,
           f"request.queue_ms = {qm!r} is not a non-negative number")
    batch = req.get("batch")
    expect(isinstance(batch, int) and batch >= 1,
           f"request.batch = {batch!r} is not a positive integer")
    verified = req.get("verified", "<missing>")
    expect(verified is None or isinstance(verified, bool),
           f"request.verified = {verified!r} is neither null nor a bool")


def check_serve_response(doc, errors, where):
    expect = make_expect(errors, where)
    expect(doc.get("schema_version") == 1,
           f"schema_version is {doc.get('schema_version')!r} (expected 1)")
    rid = doc.get("id", "<missing>")
    expect(rid is None or isinstance(rid, str),
           f"id = {rid!r} is neither null nor a string")
    expect(isinstance(doc.get("op"), str),
           f"op is {doc.get('op')!r}, not a string")
    status = doc.get("status")
    expect(status in ("ok", "error"),
           f"status is {status!r}, not 'ok' or 'error'")
    err = doc.get("error", "<missing>")
    expect(err != "<missing>", "error field is missing")
    if err != "<missing>":
        check_serve_error(err, expect, "error")
        if status == "ok":
            expect(err is None, "status is 'ok' but error is not null")
        elif status == "error":
            expect(isinstance(err, dict), "status is 'error' but error is "
                                          "null")
    data = doc.get("data", "<missing>")
    expect(data is None or isinstance(data, dict),
           f"data = {data!r} is neither null nor an object")


def check_run_report(doc, errors, where):
    expect = make_expect(errors, where)
    version = doc.get("schema_version")
    if not expect(version == 4,
                  f"schema_version is {version!r} (expected 4)"):
        return

    run = doc.get("run")
    if expect(isinstance(run, dict), "run is not an object"):
        for key, typ in (("tool", str), ("algorithm", str), ("threads", int),
                         ("wall_ms", (int, float)), ("outcome", str),
                         ("fallback_reason", str)):
            expect(isinstance(run.get(key), typ),
                   f"run.{key} is {run.get(key)!r}")
        expect(run.get("outcome") in OUTCOMES,
               f"run.outcome {run.get('outcome')!r} not one of "
               f"{sorted(OUTCOMES)}")
        if run.get("outcome") == "fallback":
            expect(bool(run.get("fallback_reason")),
                   "run.outcome is 'fallback' but run.fallback_reason is "
                   "empty")
        graph = run.get("graph")
        if expect(isinstance(graph, dict), "run.graph is not an object"):
            for key in ("vertices", "edges"):
                expect(isinstance(graph.get(key), int),
                       f"run.graph.{key} is {graph.get(key)!r}")

    algo = doc.get("algo")
    if expect(algo is None or isinstance(algo, dict),
              "algo is neither null nor an object") and algo is not None:
        for sub in ("heap", "llp"):
            expect(isinstance(algo.get(sub), dict),
                   f"algo.{sub} is not an object")
        if isinstance(algo.get("llp"), dict):
            expect(isinstance(algo["llp"].get("converged"), bool),
                   "algo.llp.converged is not a bool")
            expect(algo["llp"].get("outcome") in (OUTCOMES - {"fallback"}),
                   f"algo.llp.outcome {algo['llp'].get('outcome')!r} not a "
                   "run outcome")

    check_hw(doc.get("hw"), expect)
    if expect("mem" in doc, "mem section is missing"):
        check_mem(doc.get("mem"), expect)
    check_rounds(doc.get("rounds"), expect)
    check_scheduler(doc.get("scheduler", "<missing>"), expect)
    check_profile(doc.get("profile", "<missing>"), expect)
    check_bandwidth(doc.get("bandwidth", "<missing>"), expect)

    for section in ("counters", "gauges"):
        values = doc.get(section)
        if expect(isinstance(values, dict), f"{section} is not an object"):
            for name, v in values.items():
                expect(isinstance(v, int) and v >= 0,
                       f"{section}[{name!r}] = {v!r} is not a non-negative "
                       "integer")

    phases = doc.get("phases")
    if expect(isinstance(phases, list), "phases is not an array"):
        for i, p in enumerate(phases):
            if not expect(isinstance(p, dict), f"phases[{i}] not an object"):
                continue
            expect(isinstance(p.get("name"), str),
                   f"phases[{i}].name is {p.get('name')!r}")
            expect(isinstance(p.get("count"), int),
                   f"phases[{i}].count is {p.get('count')!r}")
            expect(isinstance(p.get("total_ms"), (int, float)),
                   f"phases[{i}].total_ms is {p.get('total_ms')!r}")

    warnings = doc.get("warnings")
    if expect(isinstance(warnings, list), "warnings is not an array"):
        for i, w in enumerate(warnings):
            expect(isinstance(w, str), f"warnings[{i}] is {w!r}")

    # llpmstd per-query reports carry a trailing "request" section; batch
    # tools (mst_tool, benches) never emit it.
    if "request" in doc:
        check_request_section(doc.get("request"), expect)


def check_bench_record(doc, errors, where):
    expect = make_expect(errors, where)
    expect(doc.get("schema_version") == 1,
           f"schema_version is {doc.get('schema_version')!r}")
    for key, typ in (("bench", str), ("workload", str), ("algo", str),
                     ("threads", int), ("warmup", int),
                     ("repetitions", int), ("verified", bool)):
        expect(isinstance(doc.get(key), typ),
               f"{key} is {doc.get(key)!r}")

    ms = doc.get("ms")
    if expect(isinstance(ms, dict), "ms is not an object"):
        for key in ("median", "p25", "p75", "iqr", "min", "max", "mean",
                    "stddev"):
            v = ms.get(key)
            expect(isinstance(v, (int, float)),
                   f"ms.{key} is {v!r}, not a number")
        if all(isinstance(ms.get(k), (int, float))
               for k in ("p25", "p75", "iqr")):
            # The emitter prints each number with %.6g, so the identity
            # only holds up to 6-significant-digit rounding.
            tol = 1e-9 + 1e-5 * max(abs(ms["p25"]), abs(ms["p75"]))
            expect(abs((ms["p75"] - ms["p25"]) - ms["iqr"]) <= tol,
                   f"ms.iqr {ms['iqr']!r} != p75 - p25")

    samples = doc.get("samples_ms")
    if expect(isinstance(samples, list) and samples,
              "samples_ms is not a non-empty array"):
        for i, s in enumerate(samples):
            expect(isinstance(s, (int, float)) and s >= 0,
                   f"samples_ms[{i}] = {s!r} is not a non-negative number")
        reps = doc.get("repetitions")
        if isinstance(reps, int):
            expect(len(samples) == reps,
                   f"samples_ms has {len(samples)} entries but "
                   f"repetitions = {reps}")

    if "hw" in doc and doc["hw"] is not None:
        hw = doc["hw"]
        if expect(isinstance(hw, dict), "hw is neither null nor an object"):
            check_hw_fields(hw, expect, "hw")
    mem = doc.get("mem")
    if mem is not None:
        check_mem(mem, expect, bench_record=True)

    # Optional scheduler telemetry (records from before PR 6 lack the key).
    sched = doc.get("sched")
    if sched is not None:
        if expect(isinstance(sched, dict),
                  "sched is neither null nor an object"):
            for key in ("utilization", "steal_rate"):
                v = sched.get(key)
                expect(isinstance(v, (int, float)) and 0 <= v <= 1,
                       f"sched.{key} = {v!r} is not a number in [0, 1]")

    # Optional profiler attribution (--profile; records from before PR 8
    # lack the key).
    prof = doc.get("profile")
    if prof is not None:
        if expect(isinstance(prof, dict),
                  "profile is neither null nor an object"):
            for key in ("hz", "samples"):
                v = prof.get(key)
                expect(isinstance(v, int) and v >= 0,
                       f"profile.{key} = {v!r} is not a non-negative "
                       "integer")
            top = prof.get("top_phases")
            if expect(isinstance(top, list),
                      "profile.top_phases is not an array"):
                expect(len(top) <= 3,
                       f"profile.top_phases has {len(top)} entries "
                       "(cap is 3)")
                for i, p in enumerate(top):
                    if not expect(isinstance(p, dict),
                                  f"profile.top_phases[{i}] is not an "
                                  "object"):
                        continue
                    expect(isinstance(p.get("name"), str) and p.get("name"),
                           f"profile.top_phases[{i}].name is "
                           f"{p.get('name')!r}")
                    expect(isinstance(p.get("samples"), int)
                           and p.get("samples", 0) >= 1,
                           f"profile.top_phases[{i}].samples is "
                           f"{p.get('samples')!r}")
            gbps = prof.get("est_gbps", "<missing>")
            expect(gbps is None
                   or (isinstance(gbps, (int, float)) and gbps >= 0),
                   f"profile.est_gbps = {gbps!r} is neither null nor a "
                   "non-negative number")


def check(doc, errors, where):
    expect = make_expect(errors, where)
    if not expect(isinstance(doc, dict), "top level is not an object"):
        return
    schema = doc.get("schema")
    if schema == "llpmst-run-report":
        check_run_report(doc, errors, where)
    elif schema == "llpmst-bench":
        check_bench_record(doc, errors, where)
    elif schema == "llpmst-serve-response":
        check_serve_response(doc, errors, where)
    else:
        expect(False, f"unknown schema {schema!r} (expected "
                      "'llpmst-run-report', 'llpmst-bench', or "
                      "'llpmst-serve-response')")


def load_docs(path):
    """Yields (where, doc) pairs; raises OSError/JSONDecodeError."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    if path.endswith(".jsonl"):
        for lineno, line in enumerate(text.splitlines(), 1):
            if line.strip():
                yield f"{path}:{lineno}", json.loads(line)
        return
    doc = json.loads(text)
    if isinstance(doc, list):
        for i, d in enumerate(doc):
            yield f"{path}[{i}]", d
    else:
        yield path, doc


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    errors = []
    for path in sys.argv[1:]:
        before = len(errors)
        count = 0
        try:
            for where, doc in load_docs(path):
                check(doc, errors, where)
                count += 1
        except (OSError, json.JSONDecodeError) as e:
            errors.append(f"{path}: unreadable: {e}")
            continue
        if len(errors) == before:
            print(f"{path}: ok ({count} document(s))")
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
