#!/usr/bin/env python3
"""Compare two sets of llpmst-bench records and flag perf regressions.

Usage:
    bench_compare.py BASELINE CANDIDATE [--threshold 0.25] [--iqr-mult 1.0]
                     [--fail-on-missing]

BASELINE and CANDIDATE are each a file or directory.  Files may be JSON
Lines (one llpmst-bench document per line, the format the benches emit via
--bench-json) or a JSON array of such documents (the committed-baseline
format, e.g. bench/baselines/ci-smoke.json).  Directories are scanned
recursively for *.json / *.jsonl files.

Records are keyed by (bench, workload, algo, threads).  For every key in
the baseline that also appears in the candidate the medians are compared
with an IQR-aware noise guard: a key counts as a REGRESSION only when

    median_cand - median_base > iqr_mult * max(iqr_base, iqr_cand)
AND median_cand > (1 + threshold) * median_base

i.e. the slowdown must clear both the noise floor of the two samples and
the relative threshold.  Improvements (same rule with the sign flipped)
are reported but never fail the run.

When both records carry a mem.alloc_delta section (allocation counts
bracketing the timed repetitions — the benches emit it whenever the
allocator hooks are compiled in), the per-repetition allocation count is
gated too: a key is an ALLOC REGRESSION when the candidate allocates more
than (1 + --alloc-threshold) times the baseline per repetition (with a
small absolute floor so near-zero counts don't flag on +1 alloc).

When both records carry a "sched" section ({utilization},
emitted since schema PR 6), utilization drift beyond --util-drift is
REPORTED — never gated: utilization collapse is a scaling lead worth
surfacing in the log, but it is far too machine/noise-dependent to fail
CI on.  Records without the section (older baselines) are simply not
compared.

The same report-only treatment applies to mem.peak_rss_bytes: when both
records carry a positive peak RSS, a relative change beyond --rss-drift
(with a 1 MiB absolute floor, since ru_maxrss is page-granular and small
processes jitter) is REPORTED, never gated.  Peak RSS is the signal that
distinguishes a heap-built graph from an mmapped snapshot, so drift here
usually means a storage-backend or working-set change worth a look.

Likewise for the "profile" section (--profile; top-3 hottest phase
paths by profiler samples): when both records carry one, a change in
the hottest phase path — or the hottest path's sample share moving by
more than --hotpath-drift — is REPORTED, never gated.  Where the time
goes is a triage lead for a human reading the log; sampling noise at
ci-smoke durations makes it useless as a pass/fail signal.

A duplicate key inside either record set is an error: two records for the
same (bench, workload, algo, threads) means a stale file or a double run,
and silently comparing whichever came last would gate on the wrong data.

Exit status: 1 if any regression was flagged (or, with --fail-on-missing,
any baseline key is absent from the candidate); 0 otherwise.
"""

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "llpmst-bench"


def iter_docs(path):
    """Yields (source, doc) for every JSON document reachable from path."""
    p = Path(path)
    if p.is_dir():
        for child in sorted(p.rglob("*")):
            if child.is_file() and child.suffix in (".json", ".jsonl"):
                yield from iter_docs(child)
        return
    if not p.is_file():
        raise SystemExit(f"error: no such file or directory: {path}")
    text = p.read_text()
    stripped = text.lstrip()
    if not stripped:
        return
    if stripped.startswith("["):  # committed-baseline array form
        try:
            arr = json.loads(text)
        except json.JSONDecodeError as e:
            raise SystemExit(f"error: {p}: invalid JSON: {e}")
        if not isinstance(arr, list):
            raise SystemExit(f"error: {p}: expected a JSON array")
        for doc in arr:
            yield str(p), doc
        return
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            yield f"{p}:{lineno}", json.loads(line)
        except json.JSONDecodeError as e:
            raise SystemExit(f"error: {p}:{lineno}: invalid JSON: {e}")


def load_records(path):
    """Returns {key: doc}; a duplicate key is a hard error."""
    records = {}
    first_source = {}
    skipped = 0
    for source, doc in iter_docs(path):
        if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
            skipped += 1
            continue
        try:
            key = (doc["bench"], doc["workload"], doc["algo"],
                   int(doc["threads"]))
            ms = doc["ms"]
            float(ms["median"])
            float(ms["iqr"])
        except (KeyError, TypeError, ValueError) as e:
            raise SystemExit(f"error: {source}: malformed bench record: {e}")
        if key in records:
            raise SystemExit(
                f"error: duplicate bench record for {fmt_key(key)}:\n"
                f"  first seen at {first_source[key]}\n"
                f"  again at      {source}\n"
                f"(two records for one key means a stale file or a double "
                f"run — delete the out-of-date one)")
        records[key] = doc
        first_source[key] = source
    return records, skipped


def alloc_per_rep(doc):
    """Per-repetition allocation count, or None when not recorded."""
    delta = (doc.get("mem") or {}).get("alloc_delta")
    reps = doc.get("repetitions")
    if not isinstance(delta, dict) or not isinstance(reps, int) or reps <= 0:
        return None
    count = delta.get("count")
    if not isinstance(count, int) or count < 0:
        return None
    return count / reps


def sched_util(doc):
    """The record's scheduler utilization, or None when not recorded."""
    sched = doc.get("sched")
    if not isinstance(sched, dict):
        return None
    u = sched.get("utilization")
    if not isinstance(u, (int, float)) or not 0 <= u <= 1:
        return None
    return float(u)


def peak_rss(doc):
    """The record's peak RSS in bytes, or None when absent/unusable."""
    rss = (doc.get("mem") or {}).get("peak_rss_bytes")
    if not isinstance(rss, int) or rss <= 0:
        return None
    return rss


def hot_path(doc):
    """The record's hottest profiled phase path as (name, share-of-samples),
    or None when the record carries no usable profile section."""
    prof = doc.get("profile")
    if not isinstance(prof, dict):
        return None
    total = prof.get("samples")
    top = prof.get("top_phases")
    if not isinstance(total, int) or total <= 0 or not isinstance(top, list):
        return None
    if not top or not isinstance(top[0], dict):
        return None
    name = top[0].get("name")
    samples = top[0].get("samples")
    if not isinstance(name, str) or not isinstance(samples, int):
        return None
    return name, samples / total


def fmt_key(key):
    bench, workload, algo, threads = key
    return f"{bench} / {workload} / {algo} / {threads}T"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline", help="baseline records (file or directory)")
    ap.add_argument("candidate", help="candidate records (file or directory)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="relative median change required to flag "
                         "(default: 0.25 = 25%%)")
    ap.add_argument("--iqr-mult", type=float, default=1.0,
                    help="noise guard: |delta| must exceed this multiple of "
                         "max(IQR_base, IQR_cand) (default: 1.0)")
    ap.add_argument("--fail-on-missing", action="store_true",
                    help="exit non-zero when a baseline key is absent from "
                         "the candidate")
    ap.add_argument("--alloc-threshold", type=float, default=0.5,
                    help="relative per-repetition allocation-count increase "
                         "required to flag (default: 0.5 = 50%%); compared "
                         "only when both records carry mem.alloc_delta")
    ap.add_argument("--alloc-floor", type=float, default=64.0,
                    help="absolute allocations-per-repetition increase below "
                         "which the alloc gate never flags (default: 64)")
    ap.add_argument("--util-drift", type=float, default=0.05,
                    help="absolute scheduler-utilization change worth "
                         "reporting (default: 0.05); informational only, "
                         "never fails the run")
    ap.add_argument("--rss-drift", type=float, default=0.25,
                    help="relative peak-RSS change worth reporting "
                         "(default: 0.25 = 25%%); informational only, "
                         "never fails the run")
    ap.add_argument("--hotpath-drift", type=float, default=0.15,
                    help="absolute change in the hottest phase path's "
                         "sample share worth reporting (default: 0.15); "
                         "informational only, never fails the run")
    args = ap.parse_args()

    base, base_skipped = load_records(args.baseline)
    cand, cand_skipped = load_records(args.candidate)
    if not base:
        raise SystemExit(f"error: no {SCHEMA} records found in "
                         f"{args.baseline}")
    if not cand:
        raise SystemExit(f"error: no {SCHEMA} records found in "
                         f"{args.candidate}")
    for n, where in ((base_skipped, args.baseline),
                     (cand_skipped, args.candidate)):
        if n:
            print(f"note: skipped {n} non-{SCHEMA} document(s) in {where}")

    regressions, improvements, stable, missing = [], [], [], []
    alloc_regressions, alloc_compared = [], 0
    util_drifts, util_compared = [], 0
    rss_drifts, rss_compared = [], 0
    hot_drifts, hot_compared = [], 0
    rss_floor = 1 << 20  # ru_maxrss is page-granular; ignore sub-MiB jitter
    for key in sorted(base):
        if key not in cand:
            missing.append(key)
            continue
        mb = base[key]["ms"]
        mc = cand[key]["ms"]
        med_b, med_c = float(mb["median"]), float(mc["median"])
        noise = args.iqr_mult * max(float(mb["iqr"]), float(mc["iqr"]))
        delta = med_c - med_b
        rel = delta / med_b if med_b > 0 else 0.0
        row = (key, med_b, med_c, rel, noise)
        if delta > noise and rel > args.threshold:
            regressions.append(row)
        elif -delta > noise and -rel > args.threshold:
            improvements.append(row)
        else:
            stable.append(row)

        ab, ac = alloc_per_rep(base[key]), alloc_per_rep(cand[key])
        if ab is not None and ac is not None:
            alloc_compared += 1
            if (ac - ab > args.alloc_floor and
                    ac > (1 + args.alloc_threshold) * ab):
                alloc_regressions.append((key, ab, ac))

        ub, uc = sched_util(base[key]), sched_util(cand[key])
        if ub is not None and uc is not None:
            util_compared += 1
            if abs(uc - ub) > args.util_drift:
                util_drifts.append((key, ub, uc))

        rb, rc = peak_rss(base[key]), peak_rss(cand[key])
        if rb is not None and rc is not None:
            rss_compared += 1
            if (abs(rc - rb) > rss_floor and
                    abs(rc - rb) / rb > args.rss_drift):
                rss_drifts.append((key, rb, rc))

        hb, hc = hot_path(base[key]), hot_path(cand[key])
        if hb is not None and hc is not None:
            hot_compared += 1
            if hb[0] != hc[0] or abs(hc[1] - hb[1]) > args.hotpath_drift:
                hot_drifts.append((key, hb, hc))

    new_keys = sorted(set(cand) - set(base))

    print(f"compared {len(base) - len(missing)} key(s) "
          f"(threshold {args.threshold:.0%}, IQR mult {args.iqr_mult:g})")
    for label, rows in (("REGRESSION", regressions),
                        ("improvement", improvements)):
        for key, med_b, med_c, rel, noise in rows:
            print(f"  {label:<11} {fmt_key(key)}: "
                  f"{med_b:.3f} ms -> {med_c:.3f} ms ({rel:+.1%}, "
                  f"noise floor {noise:.3f} ms)")
    print(f"  stable: {len(stable)}, improved: {len(improvements)}, "
          f"regressed: {len(regressions)}")
    if alloc_compared:
        for key, ab, ac in alloc_regressions:
            rel = f" ({(ac - ab) / ab:+.1%})" if ab > 0 else ""
            print(f"  ALLOC REGRESSION {fmt_key(key)}: "
                  f"{ab:.0f} -> {ac:.0f} allocs/rep{rel}")
        print(f"  alloc gate: compared {alloc_compared} key(s), "
              f"regressed: {len(alloc_regressions)}")
    if util_compared:
        # Informational only: utilization is machine- and load-dependent,
        # so drift is surfaced for humans but never fails the run.
        for key, ub, uc in util_drifts:
            print(f"  util drift {fmt_key(key)}: "
                  f"{ub:.1%} -> {uc:.1%} ({uc - ub:+.1%})")
        print(f"  utilization: compared {util_compared} key(s), "
              f"drifted >{args.util_drift:.0%}: {len(util_drifts)} "
              f"(report-only, never gated)")
    if rss_compared:
        # Informational only: peak RSS moves with the storage backend and
        # the machine's page cache, so drift is a lead, not a gate.
        for key, rb, rc in rss_drifts:
            print(f"  peak-RSS drift {fmt_key(key)}: "
                  f"{rb / (1 << 20):.1f} MiB -> {rc / (1 << 20):.1f} MiB "
                  f"({(rc - rb) / rb:+.1%})")
        print(f"  peak RSS: compared {rss_compared} key(s), "
              f"drifted >{args.rss_drift:.0%}: {len(rss_drifts)} "
              f"(report-only, never gated)")
    if hot_compared:
        # Informational only, like utilization: where the samples land is a
        # triage lead, not a correctness or performance contract.
        for key, (nb, sb), (nc, sc) in hot_drifts:
            if nb != nc:
                print(f"  hot-path drift {fmt_key(key)}: "
                      f"{nb} ({sb:.0%}) -> {nc} ({sc:.0%})")
            else:
                print(f"  hot-path drift {fmt_key(key)}: "
                      f"{nb} {sb:.0%} -> {sc:.0%} ({sc - sb:+.0%})")
        print(f"  hot paths: compared {hot_compared} key(s), "
              f"drifted: {len(hot_drifts)} (report-only, never gated)")
    for key in missing:
        print(f"  warning: baseline key missing from candidate: "
              f"{fmt_key(key)}")
    for key in new_keys:
        print(f"  note: new key not in baseline: {fmt_key(key)}")

    if regressions:
        print("FAIL: performance regression detected")
        return 1
    if alloc_regressions:
        print("FAIL: allocation regression detected")
        return 1
    if missing and args.fail_on_missing:
        print("FAIL: baseline key(s) missing from candidate")
        return 1
    print("OK: no regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
