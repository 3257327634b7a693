#!/usr/bin/env python3
"""mst_tool rejects sizes it cannot honour with exit 2 and a message, before
it starts a thread pool or allocates a graph: a --threads below 1, and a
--generate request whose edge count does not fit a 32-bit edge id.  Each
case must answer at once; an abort (exit 134) or an attempt to build the
graph fails it.

    python3 tests/test_mst_tool_cli.py build/examples/mst_tool
"""
import subprocess
import sys
import unittest

TOOL = None

CASES = [
    (["--threads", "-3"], "want at least 1 worker thread"),
    (["--threads", "0", "--generate", "road", "--scale", "4"],
     "want at least 1 worker thread"),
    (["--generate", "er", "--scale", "30"], "32-bit edge ids"),
    (["--generate", "er", "--scale", "29"], "32-bit edge ids"),
    (["--generate", "rmat", "--scale", "28"], "32-bit edge ids"),
    (["--generate", "rmat", "--scale", "31"], "[1, 30]"),
]


class MstToolRejectsBadSizes(unittest.TestCase):
    def test_each_case_exits_2_with_a_message(self):
        for args, message in CASES:
            with self.subTest(args=args):
                r = subprocess.run([TOOL, *args], capture_output=True,
                                   text=True, timeout=10)
                self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
                self.assertIn(message, r.stderr)
                self.assertEqual(r.stdout, "")


if __name__ == "__main__":
    TOOL = sys.argv.pop(1)
    unittest.main()
