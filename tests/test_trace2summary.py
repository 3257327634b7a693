#!/usr/bin/env python3
"""End-to-end tests for tools/trace2summary.py: synthesizes trace-event
JSON files (plus the committed counter-first regression fixture) and
asserts on the summarizer's output and exit status.

Run directly (python3 tests/test_trace2summary.py) or via ctest; uses only
the standard library.
"""
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SUMMARIZE = HERE.parent / "tools" / "trace2summary.py"
COUNTER_FIRST = HERE / "fixtures" / "counter_first.trace.json"


def run_summary(*argv):
    return subprocess.run(
        [sys.executable, str(SUMMARIZE), *map(str, argv)],
        capture_output=True, text=True)


def span(name, ts, dur, pid=0, tid=0):
    return {"name": name, "cat": "llpmst", "ph": "X",
            "ts": ts, "dur": dur, "pid": pid, "tid": tid}


def counter(name, ts, value, tid=0):
    return {"name": name, "cat": "llpmst", "ph": "C",
            "ts": ts, "pid": 0, "tid": tid, "args": {"value": value}}


class Trace2SummaryTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def write_trace(self, events, name="t.json"):
        path = self.tmp / name
        path.write_text(json.dumps({"displayTimeUnit": "ms",
                                    "traceEvents": events}))
        return path

    def test_counter_first_fixture_summarizes(self):
        # Regression: a trace whose first record is a counter event (and
        # which carries a non-object metadata entry) must summarize, not
        # crash, and the wall span must cover the counter samples —
        # ts 100..2100 us = 2.000 ms, not just the lone 1.5 ms span.
        r = run_summary(COUNTER_FIRST)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("llp_boruvka/round", r.stdout)
        self.assertIn("2.000 ms", r.stdout)
        self.assertIn("frontier", r.stdout)

    def test_spans_aggregate_by_name(self):
        path = self.write_trace([span("phase_a", 0, 100),
                                 span("phase_a", 200, 300),
                                 span("phase_b", 0, 50)])
        r = run_summary(path)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("phase_a", r.stdout)
        # phase_a: 2 spans totalling 400 us = 0.400 ms.
        self.assertIn("0.400", r.stdout)
        self.assertIn("2 distinct phases", r.stdout)

    def test_counters_flag_prints_track_statistics(self):
        path = self.write_trace([span("work", 0, 10),
                                 counter("frontier", 0, 10),
                                 counter("frontier", 5, 99),
                                 counter("frontier", 9, 3)])
        r = run_summary("--counters", path)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("frontier", r.stdout)
        self.assertIn("99", r.stdout)  # max
        self.assertIn("3", r.stdout)   # last (by timestamp)

    def test_utilization_reads_scheduler_tracks(self):
        # Two workers under pid 1: worker 0 busy the whole 1000 us span,
        # worker 1 busy for its first half.
        path = self.write_trace([
            span("llp_boruvka/round", 0, 1000, pid=0),
            span("sched/task", 0, 1000, pid=1, tid=0),
            span("sched/task", 0, 500, pid=1, tid=1),
        ])
        r = run_summary("--utilization", path)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        # (1000 + 500) / (1000 * 2 workers) = 75%.
        self.assertIn("utilization 75.0%", r.stdout)
        self.assertIn("2 workers", r.stdout)
        self.assertIn("longest rounds", r.stdout)
        self.assertIn("llp_boruvka/round", r.stdout)

    def test_utilization_without_sched_tracks_reports_and_passes(self):
        # An LLPMST_OBS=0 trace has phases but no pid-1 tracks; the mode
        # must say so and exit 0 so CI can run it unconditionally.
        path = self.write_trace([span("llp_boruvka/round", 0, 1000)])
        r = run_summary("--utilization", path)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("no scheduler tracks", r.stdout)

    def test_empty_trace_is_not_an_error(self):
        path = self.write_trace([])
        r = run_summary(path)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("no complete", r.stdout)

    def test_unreadable_file_exits_nonzero(self):
        r = run_summary(self.tmp / "absent.json")
        self.assertEqual(r.returncode, 1)
        self.assertIn("error reading", r.stderr)


if __name__ == "__main__":
    unittest.main()
