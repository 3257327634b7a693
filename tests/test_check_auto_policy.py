#!/usr/bin/env python3
"""Tests for tools/check_auto_policy.py: a fake mst_tool reports auto's pick
per (graph, threads) cell, synthesized regime-matrix records give each
cell's medians, and the checker's exit status is asserted.  A last test
checks that the committed record covers the cells the policy was read from.

Run directly (python3 tests/test_check_auto_policy.py) or via ctest; uses
only the standard library.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECK = ROOT / "tools" / "check_auto_policy.py"
RECORD = ROOT / "bench" / "baselines" / "regime-matrix.json"

# Answers --list-algos with the entries this test suite's records use,
# --pack-graph by writing an empty file, and --algo auto by printing the
# pick that FAKE_PICKS (JSON: {"<graph> <threads>": entry}) names.
FAKE_TOOL = """#!/usr/bin/env python3
import json, os, sys
from pathlib import Path
if "--list-algos" in sys.argv:
    print("Registered MST/MSF algorithms (3):")
    for name, kind in (("kruskal", "seq"), ("filter-kruskal", "par"),
                       ("llp-boruvka", "par")):
        print(f"  {name:<18} {kind}  summary")
    sys.exit(0)
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if "--pack-graph" in args:
    Path(args["--pack-graph"]).write_bytes(b"")
    sys.exit(0)
picks = json.loads(os.environ["FAKE_PICKS"])
graph = Path(args["--input"]).stem
threads = args["--threads"]
print(f"Algorithm : auto -> {picks[graph + ' ' + threads]} ({threads} threads)")
"""


def record(workload, threads, algo, median, verified=True):
    return {"schema": "llpmst-bench", "schema_version": 1,
            "bench": "bench_regime_matrix", "workload": workload,
            "algo": algo, "threads": threads, "warmup": 1, "repetitions": 3,
            "verified": verified, "ms": {"median": median}}


class CheckAutoPolicy(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.tool = self.dir / "mst_tool"
        self.tool.write_text(FAKE_TOOL)
        self.tool.chmod(0o755)

    def tearDown(self):
        self.tmp.cleanup()

    def check(self, records, picks, jsonl=False):
        path = self.dir / "matrix.json"
        path.write_text("\n".join(json.dumps(r) for r in records) if jsonl
                        else json.dumps(records))
        env = dict(os.environ, FAKE_PICKS=json.dumps(picks))
        return subprocess.run(
            [sys.executable, str(CHECK), "--tool", str(self.tool),
             "--record", str(path), "--pack-dir", str(self.dir / "packs")],
            capture_output=True, text=True, env=env)

    def cell(self, kruskal_ms, boruvka_ms, verified=True):
        return [record("road-8", 2, "kruskal", kruskal_ms, verified),
                record("road-8", 2, "llp-boruvka", boruvka_ms),
                record("road-8", 2, "auto", 1.0)]

    def test_pick_within_ten_percent_passes(self):
        r = self.check(self.cell(10.5, 10.0), {"road-8 2": "kruskal"})
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("OK", r.stdout)

    def test_jsonl_records_are_read_too(self):
        r = self.check(self.cell(10.0, 20.0), {"road-8 2": "kruskal"},
                       jsonl=True)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_slow_pick_fails(self):
        r = self.check(self.cell(11.5, 10.0), {"road-8 2": "kruskal"})
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("SLOW road-8 2T", r.stdout)

    def test_auto_record_is_not_a_contestant(self):
        # auto's own 1 ms median must not become the cell's best.
        r = self.check(self.cell(10.0, 12.0), {"road-8 2": "llp-boruvka"})
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)

    def test_unmeasured_pick_fails(self):
        r = self.check(self.cell(10.0, 10.0), {"road-8 2": "filter-kruskal"})
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("UNMEASURED", r.stdout)

    def test_unverified_record_fails(self):
        r = self.check(self.cell(10.0, 20.0, verified=False),
                       {"road-8 2": "kruskal"})
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("UNVERIFIED", r.stdout)

    def test_unregistered_entry_fails(self):
        # A row for an entry the registry no longer lists is stale, even
        # when auto's pick is fine.
        r = self.check(self.cell(10.0, 20.0) +
                       [record("road-8", 2, "kkt", 30.0)],
                       {"road-8 2": "kruskal"})
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("UNREGISTERED record: road-8 2T kkt", r.stdout)

    def test_committed_record_covers_the_matrix(self):
        docs = json.loads(RECORD.read_text())
        cells = {(d["workload"], d["threads"]) for d in docs
                 if d["bench"] == "bench_regime_matrix"}
        self.assertEqual(cells, {(w, t) for w in ("road-20", "er-19", "rmat-19")
                                 for t in (1, 2, 4)})
        self.assertTrue(all(d["verified"] for d in docs))


if __name__ == "__main__":
    unittest.main()
