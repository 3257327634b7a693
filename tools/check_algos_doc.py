#!/usr/bin/env python3
"""Assert the README algorithm table matches `mst_tool --list-algos`.

The registry (src/mst/registry.cpp) is the single source of truth for
algorithm names, the par|seq flag, and summaries.  The README carries a
human-readable copy between `<!-- mst-algorithms:begin -->` and
`<!-- mst-algorithms:end -->` markers; this script re-derives the table
from the built binary and fails CI when the two drift (a renamed entry,
a flipped par|seq flag, an algorithm added to one side only).

    tools/check_algos_doc.py --tool build/examples/mst_tool [--readme README.md]
"""
import argparse
import re
import subprocess
import sys
from pathlib import Path

BEGIN = "<!-- mst-algorithms:begin -->"
END = "<!-- mst-algorithms:end -->"
# describe_caps() emits exactly one token: "par" or "seq".
NUM_FLAG_TOKENS = 1


def parse_tool(tool: str):
    """Rows from --list-algos: (name, flags, summary), in listed order."""
    out = subprocess.run([tool, "--list-algos"], check=True,
                         capture_output=True, text=True).stdout
    rows = []
    for line in out.splitlines():
        if not line.startswith("  "):
            continue  # header / legend / trailing notes
        tokens = line.split()
        if len(tokens) < NUM_FLAG_TOKENS + 2:
            continue  # the flags legend line
        name = tokens[0]
        flags = " ".join(tokens[1:1 + NUM_FLAG_TOKENS])
        summary = " ".join(tokens[1 + NUM_FLAG_TOKENS:])
        rows.append((name, flags, summary))
    return rows


def parse_readme(readme: Path):
    """Rows from the marked markdown table, in document order."""
    text = readme.read_text()
    if BEGIN not in text or END not in text:
        sys.exit(f"error: {readme} is missing the {BEGIN} / {END} markers")
    table = text.split(BEGIN, 1)[1].split(END, 1)[0]
    rows = []
    for line in table.splitlines():
        line = line.strip()
        if not line.startswith("|") or re.match(r"^\|[\s:|-]+\|$", line):
            continue  # separator row
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) != 3 or cells[0] == "Name":
            continue  # header row
        name = cells[0].strip("`")
        rows.append((name, cells[1], cells[2]))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tool", default="build/examples/mst_tool",
                    help="path to the built mst_tool binary")
    ap.add_argument("--readme", default=None,
                    help="README to check (default: repo-root README.md)")
    args = ap.parse_args()

    repo_root = Path(__file__).resolve().parent.parent
    readme = Path(args.readme) if args.readme else repo_root / "README.md"

    tool_rows = parse_tool(args.tool)
    doc_rows = parse_readme(readme)
    if not tool_rows:
        sys.exit(f"error: no algorithms parsed from {args.tool} --list-algos")

    ok = True
    tool_by_name = {r[0]: r for r in tool_rows}
    doc_by_name = {r[0]: r for r in doc_rows}
    for name in tool_by_name.keys() - doc_by_name.keys():
        print(f"MISSING from README: {name} (registered in the binary)")
        ok = False
    for name in doc_by_name.keys() - tool_by_name.keys():
        print(f"STALE in README: {name} (not registered in the binary)")
        ok = False
    for name in tool_by_name.keys() & doc_by_name.keys():
        for field, got, want in zip(("flags", "summary"),
                                    doc_by_name[name][1:],
                                    tool_by_name[name][1:]):
            if got != want:
                print(f"DRIFT for {name}: README {field} {got!r} != "
                      f"binary {field} {want!r}")
                ok = False
    if [r[0] for r in tool_rows] != [r[0] for r in doc_rows] and ok:
        print("ORDER drift: README rows are not in registry order")
        print(f"  binary: {[r[0] for r in tool_rows]}")
        print(f"  readme: {[r[0] for r in doc_rows]}")
        ok = False

    if not ok:
        sys.exit(1)
    print(f"OK: README table matches --list-algos "
          f"({len(tool_rows)} algorithms)")


if __name__ == "__main__":
    main()
