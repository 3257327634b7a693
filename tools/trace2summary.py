#!/usr/bin/env python3
"""Summarize a Chrome trace-event JSON produced by --trace.

Aggregates the complete ("ph":"X") spans by name and prints per-phase
totals, counts, and percentages of the traced wall span; counter tracks
("ph":"C") are always listed, and --counters prints per-track statistics
(samples, min, max, last value):

    tools/trace2summary.py trace.json
    tools/trace2summary.py --top 10 trace.json
    tools/trace2summary.py --counters trace.json
    tools/trace2summary.py --utilization trace.json

Works on any trace-event file (the format is a de-facto standard), but the
phase names it prints are the nested paths emitted by the llpmst
observability layer ("llp_boruvka/round/hook", "pool/region", ...).
Counter values are read from args.value (the llpmst shape) with a fallback
to the first numeric entry in args.  Entries that are not JSON objects are
skipped (some writers emit metadata strings), and the wall span covers
counter samples as well as complete spans — a trace whose first record is
a counter event from a worker thread summarizes correctly.

--utilization reads the per-worker "sched/task" spans an obs-enabled
build exports under pid 1 and prints busy time, task count and % busy per
worker plus the top-k longest solver rounds.  A trace without those tracks (e.g. from an
LLPMST_OBS=0 build) reports that and exits 0.
"""
import argparse
import json
import sys
from collections import defaultdict


def load_events(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    # Both container shapes of the spec: {"traceEvents": [...]} or a bare
    # JSON array.
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        raise ValueError("no traceEvents array found")
    return events


def counter_value(event):
    """Extracts the sampled value from a 'C' event: args.value (the llpmst
    shape), else the first numeric args entry, else None."""
    args = event.get("args")
    if not isinstance(args, dict):
        return None
    v = args.get("value")
    if isinstance(v, (int, float)):
        return v
    for v in args.values():
        if isinstance(v, (int, float)):
            return v
    return None


def summarize(events):
    """Returns (per-name stats, wall span in us, per-track counter stats)."""
    spans = defaultdict(lambda: {"count": 0, "total_us": 0, "max_us": 0})
    counters = defaultdict(lambda: {"count": 0, "min": None, "max": None,
                                    "last": None, "last_ts": None})
    t_min, t_max = None, None
    for e in events:
        if not isinstance(e, dict):
            continue  # tolerate metadata strings some writers emit
        ph = e.get("ph")
        if ph == "C":
            c = counters[e.get("name", "?")]
            c["count"] += 1
            v = counter_value(e)
            ts = e.get("ts", 0)
            # Counter samples extend the wall span too: a trace that opens
            # with a worker-thread counter event must not shrink the span.
            t_min = ts if t_min is None else min(t_min, ts)
            t_max = ts if t_max is None else max(t_max, ts)
            if v is not None:
                c["min"] = v if c["min"] is None else min(c["min"], v)
                c["max"] = v if c["max"] is None else max(c["max"], v)
                if c["last_ts"] is None or ts >= c["last_ts"]:
                    c["last"], c["last_ts"] = v, ts
            continue
        if ph != "X":
            continue
        name = e.get("name", "?")
        ts = e.get("ts", 0)
        dur = e.get("dur", 0)
        s = spans[name]
        s["count"] += 1
        s["total_us"] += dur
        s["max_us"] = max(s["max_us"], dur)
        t_min = ts if t_min is None else min(t_min, ts)
        t_max = ts + dur if t_max is None else max(t_max, ts + dur)
    wall_us = (t_max - t_min) if t_min is not None else 0
    return spans, wall_us, counters


def utilization_report(events, top):
    """Per-worker busy breakdown from the pid-1 scheduler tracks plus the
    longest solver rounds; returns the process exit code."""
    workers = {}
    t_min, t_max = None, None
    rounds = []  # (dur_us, ts, name) for pid-0 per-round spans
    for e in events:
        if not isinstance(e, dict):
            continue
        name = e.get("name", "")
        ph = e.get("ph")
        ts = e.get("ts", 0)
        dur = e.get("dur", 0)
        if e.get("pid") == 1 and name.startswith("sched/"):
            w = workers.setdefault(e.get("tid", 0),
                                   {"busy_us": 0, "tasks": 0})
            if name == "sched/task" and ph == "X":
                w["busy_us"] += dur
                w["tasks"] += 1
            t_min = ts if t_min is None else min(t_min, ts)
            t_max = ts + dur if t_max is None else max(t_max, ts + dur)
        elif ph == "X" and (name == "round" or name.endswith("/round")):
            rounds.append((dur, ts, name))

    if not workers:
        print("no scheduler tracks (pid 1, 'sched/*') in this trace — "
              "collect it with an LLPMST_OBS=1 build and --trace")
        return 0

    span_us = (t_max - t_min) if t_min is not None else 0
    print(f"{'worker':>6}  {'busy ms':>10}  {'tasks':>7}  {'% busy':>6}")
    total_busy = 0
    for tid in sorted(workers):
        w = workers[tid]
        total_busy += w["busy_us"]
        pct = 100.0 * w["busy_us"] / span_us if span_us else 0.0
        print(f"{tid:>6}  {w['busy_us'] / 1000.0:>10.3f}  {w['tasks']:>7}  "
              f"{pct:>5.1f}%")
    util = total_busy / (span_us * len(workers)) if span_us else 1.0
    print(f"\nscheduler span: {span_us / 1000.0:.3f} ms over "
          f"{len(workers)} workers, utilization {min(util, 1.0):.1%}")

    if rounds:
        k = top if top > 0 else 5
        rounds.sort(reverse=True)
        print(f"\ntop {min(k, len(rounds))} longest rounds:")
        for dur, ts, name in rounds[:k]:
            print(f"  {name}  start {ts / 1000.0:.3f} ms  "
                  f"dur {dur / 1000.0:.3f} ms")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="trace-event JSON file (from --trace)")
    ap.add_argument("--top", type=int, default=0,
                    help="only print the N phases with the largest totals")
    ap.add_argument("--counters", action="store_true",
                    help="print per-track counter statistics "
                         "(samples, min, max, last)")
    ap.add_argument("--utilization", action="store_true",
                    help="per-worker busy time from the "
                         "pid-1 scheduler tracks + top-k longest rounds")
    args = ap.parse_args()

    try:
        events = load_events(args.trace)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error reading {args.trace}: {e}", file=sys.stderr)
        return 1

    if args.utilization:
        return utilization_report(events, args.top)

    spans, wall_us, counters = summarize(events)
    if not spans and not counters:
        print("no complete ('ph':'X') spans or counter tracks in the trace")
        return 0

    if spans:
        # Sort by total time, largest first.  Percentages are of the traced
        # wall span; nested phases overlap their parents, so columns do not
        # sum to 100%.
        rows = sorted(spans.items(), key=lambda kv: -kv[1]["total_us"])
        if args.top > 0:
            rows = rows[: args.top]

        name_w = max(len("phase"), max(len(n) for n, _ in rows))
        print(f"{'phase':<{name_w}}  {'count':>8}  {'total ms':>10}  "
              f"{'mean us':>9}  {'max us':>8}  {'% wall':>6}")
        for name, s in rows:
            pct = 100.0 * s["total_us"] / wall_us if wall_us else 0.0
            mean = s["total_us"] / s["count"]
            print(f"{name:<{name_w}}  {s['count']:>8}  "
                  f"{s['total_us'] / 1000.0:>10.3f}  {mean:>9.1f}  "
                  f"{s['max_us']:>8}  {pct:>5.1f}%")
    else:
        print("no complete ('ph':'X') spans in the trace "
              "(counter tracks only)")

    if args.counters and counters:
        def fmt(v):
            if v is None:
                return "-"
            return f"{v:g}" if isinstance(v, float) else str(v)

        name_w = max(len("counter"), max(len(n) for n in counters))
        print(f"\n{'counter':<{name_w}}  {'samples':>8}  {'min':>12}  "
              f"{'max':>12}  {'last':>12}")
        for name in sorted(counters):
            c = counters[name]
            print(f"{name:<{name_w}}  {c['count']:>8}  {fmt(c['min']):>12}  "
                  f"{fmt(c['max']):>12}  {fmt(c['last']):>12}")

    print(f"\ntraced wall span: {wall_us / 1000.0:.3f} ms, "
          f"{sum(s['count'] for s in spans.values())} spans, "
          f"{len(spans)} distinct phases"
          + (f", counter tracks: {', '.join(sorted(counters))}"
             if counters else ", no counter tracks"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
