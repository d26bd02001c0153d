"""wsumdist benchmark: one workload, one run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload {sweeps,cli-defaults}
                             --seed N --seconds T --trace {0,1}

Run from the repository root.  Inputs derive from the seed only.  With
``--trace 0`` the run reports the end-to-end metrics of ``BENCHMARK.json``:
set-up time (the median of several fresh worker start-ups, each through
imports, input generation and one warm-up), the time of one pass (each
operation's median over the run's passes, summed over the pass's
operations), both scaled by the host's speed during the run (see
``reference.py``), and peak resident memory.  With ``--trace 1`` it reports the
per-layer metrics from a separate traced run.  Every operation's output is
checked; the full record (environment, every sample, spans) is written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up is timed this many times per untimed run, in fresh processes.
SETUP_REPEATS = 5
# A worker that has not finished by then is killed and the run fails.
WORKER_LIMIT_S = 600


def _worker(args, setup_only: bool) -> tuple[float, str]:
    """Start a worker; return seconds to its READY line and its last line."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(WORKER_LIMIT_S, proc.kill)
    timer.start()
    try:
        ready = None
        last = ""
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if code != 0 or ready is None:
        raise SystemExit(f"benchmark worker failed with exit code {code}")
    return ready, last


def _high_percentile(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return f"n={n}, no percentile above the median has 10 samples beyond it"
    pct = 100 * (n - 10) // n
    value = statistics.quantiles(samples, n=100)[pct - 1]
    return f"n={n}, p{pct}={value:.6g}"


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "wsumdist" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write("perfbench: run from a wsumdist checkout (src/wsumdist missing)\n")
        return 2
    spec = json.loads(spec_path.read_text())

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    setups = []
    if not args.trace:
        setups = [_worker(args, setup_only=True)[0] for _ in range(SETUP_REPEATS - 1)]
    ready, last = _worker(args, setup_only=False)
    setups.append(ready)
    summary = json.loads(last)

    if args.trace:
        wanted = spec["per_layer"]
        values = summary["layers"]
        notes = {}
        for name in summary["absent"]:
            print(f"absent: {name} (its layer metrics read 0)")
    else:
        wanted = spec["end_to_end"]
        passes = summary["pass_s"]
        scale = summary["scale"]
        setup = statistics.median(setups)
        sweep = sum(statistics.median(times) for times in summary["op_s"].values())
        values = {
            "setup_s": setup * scale,
            "sweep_scaled_s": sweep * scale,
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        notes = {
            "setup_s": f"wall {setup:.6g} s times scale {scale:.6g}; " + _high_percentile(setups),
            "sweep_scaled_s": f"wall {sweep:.6g} s times scale {scale:.6g}; "
            f"sum over {len(summary['op_s'])} ops of each op's median; " + _high_percentile(passes),
            "peak_rss_mb": "max over child processes" if args.workload == "cli-defaults" else "",
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.stderr.write(f"perfbench: no value for {', '.join(missing)}\n")
        return 1

    attempted, failed = summary["attempted"], summary["failed"]
    print(f"workload {args.workload}, seed {args.seed}, inputs {json.dumps(summary['inputs'])}")
    print(f"environment {json.dumps(summary['env'])}")
    for problem in summary["problems"]:
        print(f"problem: {problem}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for m in wanted:
        note = notes.get(m["name"], "")
        print(f"{m['name']} = {values[m['name']]:.10g} {m['unit']}" + (f"  [{note}]" if note else ""))

    record = {
        "args": vars(args),
        "setup_s": setups,
        "metrics": {m["name"]: values[m["name"]] for m in wanted},
        **summary,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
