#!/usr/bin/env python3
"""End-to-end tests for the run-report side of tools/check_report_schema.py:
synthesizes llpmst-run-report documents (schema_version 6, the only one
accepted) and bench records with the optional profile section in temp
files and asserts on the checker's exit status.  The "profile" and
"bandwidth" sections must accept null, the {"available": false, "reason"}
degradation shape, and the full payload — and reject structural
violations.

Run directly (python3 tests/test_check_report_schema.py) or via ctest;
uses only the standard library.
"""
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

CHECK = Path(__file__).resolve().parent.parent / "tools" / \
    "check_report_schema.py"


def make_report():
    """A schema-complete llpmst-run-report."""
    return {
        "schema": "llpmst-run-report",
        "schema_version": 6,
        "run": {
            "tool": "test", "algorithm": "llp-prim", "threads": 2,
            "wall_ms": 1.5, "outcome": "ok", "fallback_reason": "",
            "graph": {"vertices": 10, "edges": 20},
        },
        "algo": None,
        "counters": {"llp_prim/heap_inserts": 7},
        "gauges": {},
        "phases": [{"name": "solve", "count": 1, "total_ms": 1.2}],
        "warnings": [],
        "hw": None,
        "mem": {"peak_rss_bytes": 1024,
                "alloc": {"count": 3, "bytes": 96, "frees": 3}},
        "rounds": [],
        "scheduler": None,
        "profile": None,
        "bandwidth": None,
    }


def full_profile():
    return {
        "available": True, "hz": 97, "samples": 12, "dropped": 0,
        "phases": [{"name": "solve/round", "samples": 12}],
        "top_stacks": [{"stack": "solve;round;main", "samples": 12}],
    }


def full_bandwidth():
    return {
        "available": True, "line_bytes": 64,
        "phases": [{"name": "solve/round", "cache_misses": 1000,
                    "est_bytes": 64000, "wall_ms": 2.0,
                    "est_gbps": 0.032, "instr_per_byte": None,
                    "verdict": "unknown"}],
    }


def make_bench_record(profile="absent"):
    """A schema-complete llpmst-bench record; `profile` is "absent" (a
    pre-PR-8 record), None, or a profile dict."""
    doc = {
        "schema": "llpmst-bench", "schema_version": 1,
        "bench": "bench_fig3_scaling", "workload": "Road 16,384",
        "algo": "llp-prim-parallel", "threads": 2, "warmup": 1,
        "repetitions": 3, "verified": True,
        "ms": {"median": 10.0, "p25": 9.75, "p75": 10.25, "iqr": 0.5,
               "min": 9.5, "max": 10.5, "mean": 10.0, "stddev": 0.4},
        "samples_ms": [9.5, 10.0, 10.5],
        "hw": None, "mem": None, "sched": None,
    }
    if profile != "absent":
        doc["profile"] = profile
    return doc


def make_serve_response(**overrides):
    """A schema-complete llpmst-serve-response envelope (llpmstd control
    ops and query rejections)."""
    doc = {
        "schema": "llpmst-serve-response", "schema_version": 1,
        "id": "q1", "op": "load", "status": "ok", "error": None,
        "data": {"name": "road", "vertices": 10, "edges": 20,
                 "components": 1},
    }
    doc.update(overrides)
    return doc


def make_request_section(**overrides):
    """The "request" section llpmstd splices into per-query run reports."""
    section = {
        "id": "q1", "graph": "road", "algo": "auto", "status": "ok",
        "error": None, "queue_ms": 0.2, "batch": 1, "verified": None,
    }
    section.update(overrides)
    return section


class CheckReportSchemaTest(unittest.TestCase):
    def run_check(self, *docs):
        """Writes each doc to its own .json file and runs the checker."""
        with tempfile.TemporaryDirectory() as td:
            paths = []
            for i, doc in enumerate(docs):
                p = Path(td) / f"doc{i}.json"
                p.write_text(json.dumps(doc))
                paths.append(str(p))
            return subprocess.run(
                [sys.executable, str(CHECK), *paths],
                capture_output=True, text=True)

    def assert_ok(self, *docs):
        r = self.run_check(*docs)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def assert_fails(self, doc, needle):
        r = self.run_check(doc)
        self.assertNotEqual(r.returncode, 0,
                            "checker accepted a bad document:\n" + r.stdout)
        self.assertIn(needle, r.stderr, r.stderr)

    # --- version acceptance ---------------------------------------------

    def test_accepts_the_current_version(self):
        self.assert_ok(make_report())

    def test_rejects_unknown_version(self):
        for version in (1, 2, 3, 4, 7):
            doc = make_report()
            doc["schema_version"] = version
            self.assert_fails(doc, "schema_version")

    def test_rejects_the_previous_version(self):
        doc = make_report()
        doc["schema_version"] = 5
        self.assert_fails(doc, "expected 6")

    # --- the scheduler section ------------------------------------------

    def test_scheduler_summary_passes(self):
        doc = make_report()
        doc["scheduler"] = {
            "utilization": 0.75, "span_us": 200, "busy_us": 300,
            "critical_path_us": 50, "dropped_events": 0,
            "workers": [{"worker": 0, "busy_us": 150, "tasks": 2},
                        {"worker": 1, "busy_us": 150, "tasks": 2}],
            "grain_hist": [{"grain": 4096, "count": 1}],
        }
        self.assert_ok(doc)
        doc["scheduler"]["utilization"] = 1.5
        self.assert_fails(doc, "scheduler.utilization")

    # --- the v4 profile section -----------------------------------------

    def test_profile_null_degraded_and_full_all_pass(self):
        null = make_report()
        degraded = make_report()
        degraded["profile"] = {"available": False,
                               "reason": "profiler not started"}
        full = make_report()
        full["profile"] = full_profile()
        self.assert_ok(null, degraded, full)

    def test_profile_missing_section_fails(self):
        doc = make_report()
        del doc["profile"]
        self.assert_fails(doc, "profile section is missing")

    def test_profile_degraded_without_reason_fails(self):
        doc = make_report()
        doc["profile"] = {"available": False}
        self.assert_fails(doc, "profile.reason")

    def test_profile_bad_phase_samples_fails(self):
        doc = make_report()
        doc["profile"] = full_profile()
        doc["profile"]["phases"][0]["samples"] = 0
        self.assert_fails(doc, "profile.phases[0].samples")

    def test_profile_too_many_top_stacks_fails(self):
        doc = make_report()
        doc["profile"] = full_profile()
        doc["profile"]["top_stacks"] = [
            {"stack": f"s{i}", "samples": 1} for i in range(21)]
        self.assert_fails(doc, "top_stacks has 21")

    # --- the v4 bandwidth section ---------------------------------------

    def test_bandwidth_null_degraded_and_full_all_pass(self):
        degraded = make_report()
        degraded["bandwidth"] = {"available": False, "reason": "no PMU"}
        full = make_report()
        full["bandwidth"] = full_bandwidth()
        self.assert_ok(make_report(), degraded, full)

    def test_bandwidth_missing_section_fails(self):
        doc = make_report()
        del doc["bandwidth"]
        self.assert_fails(doc, "bandwidth section is missing")

    def test_bandwidth_bad_verdict_fails(self):
        doc = make_report()
        doc["bandwidth"] = full_bandwidth()
        doc["bandwidth"]["phases"][0]["verdict"] = "cursed"
        self.assert_fails(doc, "verdict")

    def test_bandwidth_negative_est_gbps_fails(self):
        doc = make_report()
        doc["bandwidth"] = full_bandwidth()
        doc["bandwidth"]["phases"][0]["est_gbps"] = -1.0
        self.assert_fails(doc, "est_gbps")

    # --- bench records: the optional profile section ----------------------

    def test_bench_record_profile_variants_pass(self):
        self.assert_ok(make_bench_record("absent"),
                       make_bench_record(None),
                       make_bench_record({
                           "hz": 97, "samples": 5,
                           "top_phases": [{"name": "solve", "samples": 5}],
                           "est_gbps": None}))

    def test_bench_record_profile_too_many_top_phases_fails(self):
        doc = make_bench_record({
            "hz": 97, "samples": 5,
            "top_phases": [{"name": f"p{i}", "samples": 1}
                           for i in range(4)],
            "est_gbps": 1.0})
        self.assert_fails(doc, "top_phases has 4")

    def test_bench_record_profile_bad_hz_fails(self):
        doc = make_bench_record({"hz": -1, "samples": 5, "top_phases": [],
                                 "est_gbps": None})
        self.assert_fails(doc, "profile.hz")

    # --- llpmstd serve shapes (PR 9) ------------------------------------

    def test_serve_response_ok_and_error_pass(self):
        self.assert_ok(make_serve_response(),
                       make_serve_response(status="error",
                                           error={"code": "INVALID_ARGUMENT",
                                                  "message": "bad graph"}),
                       make_serve_response(id=None, data=None))

    def test_serve_response_inconsistent_status_error_fails(self):
        self.assert_fails(
            make_serve_response(status="error", error=None),
            "status is 'error' but error is null")
        self.assert_fails(
            make_serve_response(error={"code": "CANCELLED",
                                       "message": "gone"}),
            "status is 'ok' but error is not null")

    def test_serve_response_bad_error_code_fails(self):
        self.assert_fails(
            make_serve_response(status="error",
                                error={"code": "WAT", "message": "x"}),
            "error.code")

    def test_report_request_section_ok_and_error_pass(self):
        ok = make_report()
        ok["request"] = make_request_section()
        degraded = make_report()
        degraded["run"]["outcome"] = "injected_fault"
        degraded["request"] = make_request_section(
            status="error",
            error={"code": "INJECTED_FAULT", "message": "chaos"})
        self.assert_ok(ok, degraded)

    def test_report_request_section_violations_fail(self):
        doc = make_report()
        doc["request"] = make_request_section(queue_ms=-1)
        self.assert_fails(doc, "request.queue_ms")
        doc = make_report()
        doc["request"] = make_request_section(batch=0)
        self.assert_fails(doc, "request.batch")
        doc = make_report()
        doc["request"] = make_request_section(status="error", error=None)
        self.assert_fails(doc, "request.status is 'error'")

    def test_report_internal_error_outcome_accepted(self):
        doc = make_report()
        doc["run"]["outcome"] = "internal_error"
        doc["request"] = make_request_section(
            status="error", error={"code": "INTERNAL", "message": "threw"})
        self.assert_ok(doc)


if __name__ == "__main__":
    unittest.main()
