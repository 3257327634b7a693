#!/usr/bin/env python3
"""End-to-end tests for tools/bench_compare.py (and the llpmst-bench side
of tools/check_report_schema.py): synthesizes baseline/candidate record
sets in temp directories and asserts on the comparator's exit status.

Run directly (python3 tests/test_bench_compare.py) or via ctest; uses only
the standard library.
"""
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
COMPARE = TOOLS / "bench_compare.py"
CHECK = TOOLS / "check_report_schema.py"


def make_record(algo="LLP-Prim", median=10.0, iqr=0.5, workload="Road 16,384",
                bench="bench_fig2_single_thread", threads=1, allocs=None,
                util=None, rss=1 << 20):
    """A schema-complete llpmst-bench record around the given median.

    `allocs` is the per-repetition allocation count; None leaves the
    alloc_delta section null (allocator hooks compiled out).  `util` fills
    the "sched" section's utilization; None omits the section entirely
    (a pre-PR-6 record).  `rss` is mem.peak_rss_bytes; 0 models a host
    where getrusage failed.
    """
    samples = [median - iqr, median, median + iqr]
    alloc_delta = None
    if allocs is not None:
        alloc_delta = {"count": allocs * len(samples),
                       "bytes": allocs * len(samples) * 64,
                       "frees": allocs * len(samples)}
    record = {
        "schema": "llpmst-bench",
        "schema_version": 1,
        "bench": bench,
        "workload": workload,
        "algo": algo,
        "threads": threads,
        "warmup": 1,
        "repetitions": len(samples),
        "verified": True,
        "ms": {
            "median": median,
            "p25": median - iqr / 2,
            "p75": median + iqr / 2,
            "iqr": iqr,
            "min": samples[0],
            "max": samples[-1],
            "mean": median,
            "stddev": iqr,
        },
        "samples_ms": samples,
        "hw": None,
        "mem": {"peak_rss_bytes": rss, "alloc": None,
                "alloc_delta": alloc_delta},
    }
    if util is not None:
        record["sched"] = {"utilization": util}
    return record


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def run_compare(*argv):
    return subprocess.run(
        [sys.executable, str(COMPARE), *map(str, argv)],
        capture_output=True, text=True)


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def write_sets(self, base_records, cand_records):
        base = self.tmp / "base"
        cand = self.tmp / "cand"
        base.mkdir()
        cand.mkdir()
        write_jsonl(base / "a.bench.jsonl", base_records)
        write_jsonl(cand / "a.bench.jsonl", cand_records)
        return base, cand

    def test_identical_inputs_exit_zero(self):
        records = [make_record("LLP-Prim"), make_record("LLP-Boruvka")]
        base, cand = self.write_sets(records, records)
        r = run_compare(base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("OK: no regression", r.stdout)

    def test_2x_regression_exits_nonzero(self):
        base, cand = self.write_sets(
            [make_record("LLP-Prim", median=10.0, iqr=0.5)],
            [make_record("LLP-Prim", median=20.0, iqr=0.5)])
        r = run_compare(base, cand)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION", r.stdout)

    def test_within_iqr_jitter_is_ignored(self):
        # +30% median shift, but the samples are so noisy (IQR 5 ms) that
        # the delta stays inside the noise floor — must NOT flag.
        base, cand = self.write_sets(
            [make_record("LLP-Prim", median=10.0, iqr=5.0)],
            [make_record("LLP-Prim", median=13.0, iqr=5.0)])
        r = run_compare(base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("OK: no regression", r.stdout)

    def test_small_shift_below_threshold_is_ignored(self):
        # Clears the IQR noise floor but is under the 25% threshold.
        base, cand = self.write_sets(
            [make_record("LLP-Prim", median=10.0, iqr=0.1)],
            [make_record("LLP-Prim", median=11.0, iqr=0.1)])
        r = run_compare(base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_improvement_never_fails(self):
        base, cand = self.write_sets(
            [make_record("LLP-Prim", median=20.0, iqr=0.5)],
            [make_record("LLP-Prim", median=10.0, iqr=0.5)])
        r = run_compare(base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("improvement", r.stdout)

    def test_missing_key_warns_but_passes_by_default(self):
        base, cand = self.write_sets(
            [make_record("LLP-Prim"), make_record("LLP-Boruvka")],
            [make_record("LLP-Prim")])
        r = run_compare(base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("missing from candidate", r.stdout)
        r = run_compare(base, cand, "--fail-on-missing")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)

    def test_baseline_array_form_is_accepted(self):
        # The committed baseline is a pretty-printed JSON array, not JSONL.
        base = self.tmp / "ci-smoke.json"
        base.write_text(json.dumps(
            [make_record("LLP-Prim"), make_record("LLP-Boruvka")], indent=1))
        cand = self.tmp / "cand"
        cand.mkdir()
        write_jsonl(cand / "a.bench.jsonl",
                    [make_record("LLP-Prim"), make_record("LLP-Boruvka")])
        r = run_compare(base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_threshold_flag_is_respected(self):
        base, cand = self.write_sets(
            [make_record("LLP-Prim", median=10.0, iqr=0.1)],
            [make_record("LLP-Prim", median=11.5, iqr=0.1)])
        self.assertEqual(run_compare(base, cand).returncode, 0)
        r = run_compare(base, cand, "--threshold", "0.10")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)

    def test_synthetic_records_pass_schema_checker(self):
        path = self.tmp / "records.bench.jsonl"
        write_jsonl(path, [make_record("LLP-Prim"),
                           make_record("LLP-Boruvka", allocs=1000)])
        r = subprocess.run([sys.executable, str(CHECK), str(path)],
                           capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_duplicate_key_in_candidate_is_an_error(self):
        base, cand = self.write_sets(
            [make_record("LLP-Prim", median=10.0)],
            [make_record("LLP-Prim", median=10.0),
             make_record("LLP-Prim", median=30.0)])
        r = run_compare(base, cand)
        self.assertNotEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("duplicate bench record", r.stderr)

    def test_duplicate_key_in_baseline_is_an_error(self):
        # Two baseline files each carrying the same key (e.g. a stale
        # leftover next to a fresh run) must be rejected, not last-wins.
        base = self.tmp / "base"
        cand = self.tmp / "cand"
        base.mkdir()
        cand.mkdir()
        write_jsonl(base / "old.bench.jsonl", [make_record(median=5.0)])
        write_jsonl(base / "new.bench.jsonl", [make_record(median=10.0)])
        write_jsonl(cand / "a.bench.jsonl", [make_record(median=10.0)])
        r = run_compare(base, cand)
        self.assertNotEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("duplicate bench record", r.stderr)

    def test_alloc_regression_exits_nonzero(self):
        base, cand = self.write_sets(
            [make_record("LLP-Prim", allocs=1000)],
            [make_record("LLP-Prim", allocs=2000)])
        r = run_compare(base, cand)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("ALLOC REGRESSION", r.stdout)

    def test_small_alloc_increase_is_ignored(self):
        # +40% is under the default 50% alloc threshold.
        base, cand = self.write_sets(
            [make_record("LLP-Prim", allocs=1000)],
            [make_record("LLP-Prim", allocs=1400)])
        r = run_compare(base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_tiny_absolute_alloc_increase_is_ignored(self):
        # 4 -> 40 allocs/rep is a 10x ratio but below the absolute floor:
        # near-zero counts must not flag on a handful of allocations.
        base, cand = self.write_sets(
            [make_record("LLP-Prim", allocs=4)],
            [make_record("LLP-Prim", allocs=40)])
        r = run_compare(base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_alloc_gate_skipped_when_either_side_lacks_delta(self):
        base, cand = self.write_sets(
            [make_record("LLP-Prim", allocs=None)],
            [make_record("LLP-Prim", allocs=100000)])
        r = run_compare(base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_utilization_drift_is_reported_but_never_fails(self):
        # A 0.70 -> 0.30 utilization collapse is worth a log line, but the
        # drift report must not affect the exit status.
        base, cand = self.write_sets(
            [make_record("LLP-Prim", util=0.70)],
            [make_record("LLP-Prim", util=0.30)])
        r = run_compare(base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("util drift", r.stdout)
        self.assertIn("report-only", r.stdout)

    def test_small_utilization_drift_is_not_reported(self):
        base, cand = self.write_sets(
            [make_record("LLP-Prim", util=0.70)],
            [make_record("LLP-Prim", util=0.68)])
        r = run_compare(base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertNotIn("util drift", r.stdout)

    def test_utilization_skipped_when_either_side_lacks_sched(self):
        # Old baselines predate the "sched" section; comparing against a
        # new candidate must neither report drift nor fail.
        base, cand = self.write_sets(
            [make_record("LLP-Prim")],
            [make_record("LLP-Prim", util=0.05)])
        r = run_compare(base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertNotIn("util drift", r.stdout)
        self.assertNotIn("utilization:", r.stdout)

    def test_peak_rss_drift_is_reported_but_never_fails(self):
        # A 64 MiB -> 160 MiB jump (e.g. a backend fell off the mmap path
        # onto the heap) is worth a log line but must not gate.
        base, cand = self.write_sets(
            [make_record("LLP-Prim", rss=64 << 20)],
            [make_record("LLP-Prim", rss=160 << 20)])
        r = run_compare(base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("peak-RSS drift", r.stdout)
        self.assertIn("report-only", r.stdout)

    def test_small_peak_rss_drift_is_not_reported(self):
        # +10% is under the default 25% drift threshold.
        base, cand = self.write_sets(
            [make_record("LLP-Prim", rss=64 << 20)],
            [make_record("LLP-Prim", rss=int(70.4 * (1 << 20)))])
        r = run_compare(base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertNotIn("peak-RSS drift", r.stdout)

    def test_sub_mib_peak_rss_jitter_is_ignored(self):
        # A 0.5 MiB -> 1.4 MiB move is +180% relative but under the 1 MiB
        # absolute floor: tiny processes jitter at page granularity.
        base, cand = self.write_sets(
            [make_record("LLP-Prim", rss=512 << 10)],
            [make_record("LLP-Prim", rss=1433 << 10)])
        r = run_compare(base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertNotIn("peak-RSS drift", r.stdout)

    def test_peak_rss_skipped_when_either_side_lacks_it(self):
        base, cand = self.write_sets(
            [make_record("LLP-Prim", rss=0)],
            [make_record("LLP-Prim", rss=512 << 20)])
        r = run_compare(base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertNotIn("peak-RSS drift", r.stdout)
        self.assertNotIn("peak RSS:", r.stdout)

    def test_records_with_sched_pass_schema_checker(self):
        path = self.tmp / "records.bench.jsonl"
        write_jsonl(path, [make_record("LLP-Prim", util=0.5)])
        r = subprocess.run([sys.executable, str(CHECK), str(path)],
                           capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)


if __name__ == "__main__":
    unittest.main()
