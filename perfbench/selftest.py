#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, prints every metric named
in BENCHMARK.json with its unit and a correct result; that metrics.json
describes exactly the metrics of BENCHMARK.json; and that the correctness
checks cannot pass vacuously: a tampered forest (pipelines), a non-ok served
query (a daemon with a failpoint armed) and an expired-budget run that did
not fall back (every workload) must each be counted as failed.  Exits 1 on
the first broken expectation.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok: {what}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    described = json.loads((HERE / "metrics.json").read_text())["metrics"]
    declared = [m["name"] for kind in ("end_to_end", "per_layer")
                for m in bench[kind]]
    expect(sorted(declared) == sorted(described),
           "metrics.json describes exactly the metrics of BENCHMARK.json")
    names = [w["name"] for w in bench["workloads"]]

    for workload in names:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            res = run(workload, trace)
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace {trace}: result keys")
            expect(res["correct"] and res["failed"] == 0 and
                   res["attempted"] >= 1,
                   f"{workload} trace {trace}: correct, nothing failed")
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want,
                   f"{workload} trace {trace}: every {kind} metric with its unit")
            expect(all(isinstance(v["value"], float)
                       for v in res["metrics"].values()),
                   f"{workload} trace {trace}: numeric values")
            if trace == 0:
                expect(all(v["value"] > 0 for v in res["metrics"].values()),
                       f"{workload}: every end-to-end metric measured (> 0)")

    for workload in names:
        cases = [(("--tamper", "fallback"), "a run that did not fall back")]
        if workload == "serve-mixed":
            cases.append((("--inject-fault",), "a non-ok served query"))
        else:
            cases.append((("--tamper", "forest"), "a tampered forest"))
        for extra, what in cases:
            res = run(workload, 0, *extra)
            expect(res["failed"] >= 1 and not res["correct"],
                   f"{workload}: {what} counts as failed "
                   f"({res['failed']}/{res['attempted']})")
    print("selftest passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        sys.exit(1)
