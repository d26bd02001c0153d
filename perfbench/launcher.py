"""Runs the worker's fresh-process commands from a process that stays small.

    python3 perfbench/launcher.py

Reads one JSON list of arguments per line on standard input, runs it to
the end and writes one JSON line: exit code, output, error output and the
largest resident set of any command run so far.

On Linux a child's peak resident set includes the peak of the process it
was spawned from, so children of the benchmark worker, which holds numpy
arrays of its own, would report the worker's peak.  This process imports
nothing beyond the standard library, so its children report their own.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys

TIMEOUT_S = 120


def main() -> int:
    for line in sys.stdin:
        argv = json.loads(line)
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=TIMEOUT_S)
            reply = {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        except subprocess.TimeoutExpired:
            reply = {"code": None, "stdout": "", "stderr": f"no exit within {TIMEOUT_S} s"}
        reply["maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
