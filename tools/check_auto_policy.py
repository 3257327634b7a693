#!/usr/bin/env python3
"""Assert auto's policy table picks a measured-fast entry in every cell.

bench/baselines/regime-matrix.json holds bench_regime_matrix's llpmst-bench
records: the registry entries, and auto, on packed road-20, er-19 and
rmat-19 at 1, 2 and 4 threads.  For each (graph, threads) cell this script
asks the built mst_tool which entry `--algo auto` runs there (a graph
named KIND-SCALE is `--generate KIND --scale SCALE`, packed once and mounted
at each thread count) and fails when that entry's recorded median is more
than 10% above the cell's best, or was not measured.  It also fails when a
record was not verified against the Kruskal oracle, or names an entry that
`mst_tool --list-algos` does not list (a deleted entry's stale row).

    tools/check_auto_policy.py --tool build/examples/mst_tool \\
        [--record bench/baselines/regime-matrix.json] [--pack-dir DIR]
"""
import argparse
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# auto's pick may be at most this much slower than the cell's best entry.
TOLERANCE = 1.10
PICK = re.compile(r"^Algorithm : auto -> (\S+) \((\d+) threads\)", re.M)
LISTED = re.compile(r"^  (\S+) +(?:seq|par) ", re.M)


def load_cells(record: Path):
    """{(workload, threads): {algo: median_ms}} from a JSON array or JSONL."""
    text = record.read_text()
    docs = (json.loads(text) if text.lstrip().startswith("[") else
            [json.loads(line) for line in text.splitlines() if line.strip()])
    cells, unverified = {}, []
    for d in docs:
        if d.get("bench") != "bench_regime_matrix":
            continue
        if not d["verified"]:
            unverified.append(f"{d['workload']} {d['threads']}T {d['algo']}")
        cells.setdefault((d["workload"], d["threads"]), {})[d["algo"]] = (
            d["ms"]["median"])
    return cells, unverified


def registered(tool: str) -> set:
    """The entry names `tool --list-algos` lists."""
    out = subprocess.run([tool, "--list-algos"], check=True,
                         capture_output=True, text=True).stdout
    names = set(LISTED.findall(out))
    if not names:
        sys.exit(f"error: no registered entries in {tool} --list-algos")
    return names


def auto_pick(tool: str, pack: Path, threads: int) -> str:
    out = subprocess.run([tool, "--input", str(pack), "--threads",
                          str(threads), "--algo", "auto"],
                         check=True, capture_output=True, text=True).stdout
    m = PICK.search(out)
    if m is None:
        sys.exit(f"error: no 'Algorithm : auto -> ...' line from {tool}")
    return m.group(1)


def pack(tool: str, workload: str, pack_dir: Path) -> Path:
    """The llpmstb snapshot of KIND-SCALE, written on first use."""
    kind, _, scale = workload.rpartition("-")
    path = pack_dir / f"{workload}.llpmstb"
    if not path.exists():
        subprocess.run([tool, "--generate", kind, "--scale", scale,
                        "--pack-graph", str(path)],
                       check=True, capture_output=True)
    return path


def main():
    repo_root = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--tool", default="build/examples/mst_tool",
                    help="path to the built mst_tool binary")
    ap.add_argument("--record", type=Path,
                    default=repo_root / "bench/baselines/regime-matrix.json",
                    help="the regime-matrix bench records")
    ap.add_argument("--pack-dir", type=Path, default=None,
                    help="keep (and reuse) the graph snapshots here "
                         "(default: a temporary directory)")
    args = ap.parse_args()

    cells, unverified = load_cells(args.record)
    if not cells:
        sys.exit(f"error: no bench_regime_matrix records in {args.record}")
    ok = not unverified
    for u in unverified:
        print(f"UNVERIFIED record: {u}")
    names = registered(args.tool)
    for (workload, threads), medians in sorted(cells.items()):
        for algo in sorted(set(medians) - names - {"auto"}):
            print(f"UNREGISTERED record: {workload} {threads}T {algo} is not "
                  f"a registry entry")
            ok = False

    with tempfile.TemporaryDirectory() as tmp:
        pack_dir = args.pack_dir or Path(tmp)
        pack_dir.mkdir(parents=True, exist_ok=True)
        for workload in sorted({w for w, _ in cells}):
            snapshot = pack(args.tool, workload, pack_dir)
            for threads in sorted(t for w, t in cells if w == workload):
                medians = cells[(workload, threads)]
                entries = {a: ms for a, ms in medians.items() if a != "auto"}
                best = min(entries, key=entries.get)
                pick = auto_pick(args.tool, snapshot, threads)
                cell = f"{workload} {threads}T"
                if pick not in entries:
                    print(f"UNMEASURED {cell}: auto picks {pick}, which the "
                          f"record does not time")
                    ok = False
                    continue
                ratio = entries[pick] / entries[best]
                verdict = "ok" if ratio <= TOLERANCE else "SLOW"
                print(f"{verdict:4} {cell}: auto picks {pick} "
                      f"{entries[pick]:.1f} ms = {ratio:.2f}x best "
                      f"({best} {entries[best]:.1f} ms)")
                ok = ok and ratio <= TOLERANCE

    if not ok:
        sys.exit(1)
    print(f"OK: auto's pick is within {TOLERANCE - 1:.0%} of the best entry "
          f"in all {len(cells)} cells")


if __name__ == "__main__":
    main()
