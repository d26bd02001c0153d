"""One benchmark worker process: set up a workload, then time it.

    python3 perfbench/worker.py --workload W --seed N --seconds T --trace 0|1
                                [--setup-only]

The worker imports the package, builds the workload's inputs from the
seed, runs one warm-up and prints ``READY``; ``perfbench/run.py`` times
process start to that line as set-up.  With ``--setup-only`` it stops
there.  Otherwise it runs passes in a closed loop (one pass starts when
the previous one ended) for T seconds and prints one JSON summary line.

With ``--trace 1`` it alternates plain and traced in-process passes: the
traced ones give the per-layer metrics, and the two together give the
tracing overhead.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; child processes inherit the same environment.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from wsumdist import approximants, cli, harness, weighted  # noqa: E402
from wsumdist.checks import CHECK_NAMES, run_check  # noqa: E402
from wsumdist.harness import ExperimentConfig  # noqa: E402

import verify  # noqa: E402
from reference import SHARE, Reference  # noqa: E402
from tracing import Patches, Tracer  # noqa: E402

CHILD_ENV = dict(os.environ)
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)
CHILD_TIMEOUT_S = 120

WEIGHTED_GRID = (16, 64, 256, 1024, 4096, 16384, 65536)
MARKOV_SINGLE_GRID = (1250, 2500, 5000, 10000)
MARKOV_PAIR_GRID = (100, 200, 400, 800)
CLI_COMMANDS = ("example", "markov", "nb", "check", "demo-intro")
CHECK_COUNT = 200
IMPORT_REPEATS = 3


class OpFailed(RuntimeError):
    """An operation exited badly; the pass records it as failed."""


def seed_weight(seed: int) -> tuple[int, float]:
    """(k, sqrt(k)) for the seed-th non-square k >= 2, cycling after 16.

    Seed 1 gives sqrt(2), the default weight.  The cycle keeps the second
    weight small, and with it the merge tolerance, which grows with the
    largest atom value.
    """
    m = (seed - 1) % 16 + 1
    k = m + math.floor(0.5 + math.sqrt(m))
    return k, math.sqrt(k)


def draw_chain(rng: np.random.Generator) -> tuple[float, float]:
    """(p, q_bar) near the default (0.3, 0.02), inside p <= 1/2, q_bar <= 1/30."""
    return float(rng.uniform(0.25, 0.35)), float(rng.uniform(0.015, 0.025))


def _render(result) -> str:
    return result.to_csv_text() + harness.json_text(result.to_json_dict())


class WeightedSweep:
    """Product of probability laws through weighted_sum_distribution."""

    def __init__(self, seed: int) -> None:
        self.k, root = seed_weight(seed)
        self.weights = (1.0, root)
        self.inputs = {"k": self.k, "weights": list(self.weights), "n_grid": list(WEIGHTED_GRID)}

    def _sweep(self, grid):
        result = harness.run_example(grid, weights=self.weights)
        return result, _render(result)

    def warm_up(self) -> None:
        self._sweep(WEIGHTED_GRID[:4])

    def ops(self):
        return [("example", lambda: self._sweep(WEIGHTED_GRID))]

    def verify(self, op: str, result) -> list[str]:
        return verify.weighted_sweep(result, harness.EXAMPLE_F, harness.EXAMPLE_G, self.weights)


class MarkovSweep:
    """(a) one chain, O(n^2) DP; (b) two weighted chains, signed wconvolve."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.chain = draw_chain(rng)
        pair = (draw_chain(rng), draw_chain(rng))
        _k, root = seed_weight(seed)
        self.configs = {
            "markov-a": ExperimentConfig(
                kind="markov-sweep", n_grid=MARKOV_SINGLE_GRID, chains=(self.chain,), weights=(1.0,)
            ),
            "markov-b": ExperimentConfig(
                kind="markov-sweep", n_grid=MARKOV_PAIR_GRID, chains=pair, weights=(1.0, root)
            ),
        }
        self.inputs = {name: cfg.to_json_dict() for name, cfg in self.configs.items()}

    def _sweep(self, cfg):
        result = harness.run_markov(cfg)
        return result, _render(result)

    def warm_up(self) -> None:
        for cfg in self.configs.values():
            self._sweep(cfg.override(n_grid=cfg.n_grid[:1]))

    def ops(self):
        return [(name, lambda cfg=cfg: self._sweep(cfg)) for name, cfg in self.configs.items()]

    def verify(self, op: str, result) -> list[str]:
        if op == "markov-a":
            return verify.markov_single(result, self.chain, self.configs[op].tail_tol)
        return verify.markov_weighted(result)


class Sweeps:
    """weighted-sweep and markov-sweep in one process; a pass runs all three ops."""

    def __init__(self, seed: int) -> None:
        self.weighted = WeightedSweep(seed)
        self.markov = MarkovSweep(seed)
        self.inputs = {"weighted-sweep": self.weighted.inputs, "markov-sweep": self.markov.inputs}

    def warm_up(self) -> None:
        self.weighted.warm_up()
        self.markov.warm_up()

    def ops(self):
        return self.weighted.ops() + self.markov.ops()

    inprocess_ops = ops

    def verify(self, op: str, result) -> list[str]:
        part = self.weighted if op == "example" else self.markov
        return part.verify(op, result)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


class Launcher:
    """The small process that starts each fresh command (see launcher.py)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            cwd=ROOT,
            env=CHILD_ENV,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.maxrss_kb = 0

    def run(self, argv) -> dict:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise OpFailed("the launcher exited")
        reply = json.loads(line)
        self.maxrss_kb = reply["maxrss_kb"]
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _inprocess_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"cli.main returned {code}")
    return json.loads(buf.getvalue()), buf.getvalue()


def _check_family(seed: int, family: str):
    report = run_check(seed, CHECK_COUNT, names=[family])
    return report.to_json_dict(), json.dumps(report.to_json_dict(), sort_keys=True)


class CliDefaults:
    """Each default subcommand as a fresh process, one at a time."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.argv = {
            cmd: [cmd, "--json"] + (["--seed", str(seed)] if cmd == "check" else [])
            for cmd in CLI_COMMANDS
        }
        self.inputs = {"argv": self.argv}
        self.launcher = Launcher()

    def _fresh(self, argv):
        reply = self.launcher.run([sys.executable, "-m", "wsumdist", *argv])
        if reply["code"] != 0:
            raise OpFailed(f"exit code {reply['code']}: {reply['stderr'].strip()[-300:]}")
        return json.loads(reply["stdout"]), reply["stdout"]

    def warm_up(self) -> None:
        self._fresh(self.argv["demo-intro"])

    def ops(self):
        return [(cmd, lambda argv=argv: self._fresh(argv)) for cmd, argv in self.argv.items()]

    def inprocess_ops(self):
        ops = [
            (f"cli.main.{cmd}", lambda argv=argv: _inprocess_cli(argv))
            for cmd, argv in self.argv.items()
        ]
        ops += [
            (f"checks.{family}", lambda family=family: _check_family(self.seed, family))
            for family in CHECK_NAMES
        ]
        return ops

    def verify(self, op: str, payload) -> list[str]:
        if op.startswith("checks."):
            family = op.removeprefix("checks.")
            return verify.cli_payload("check", payload, CHECK_COUNT, families=(family,))
        return verify.cli_payload(op.removeprefix("cli.main."), payload, CHECK_COUNT)

    def peak_rss_mb(self) -> float:
        """Largest resident set of any fresh command."""
        return self.launcher.maxrss_kb / 1024.0

    def close(self) -> None:
        self.launcher.close()


WORKLOADS = {
    "sweeps": Sweeps,
    "cli-defaults": CliDefaults,
}


class Tally:
    """Attempted and failed operations; the first output of each op is kept.

    Later outputs of an op must repeat the first one byte for byte; the
    first is checked by column after the timed loop.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.first: dict[str, tuple] = {}
        self.problems: list[str] = []

    def run_pass(self, ops, span=None) -> tuple[float, dict[str, float]]:
        """Run every op once; return summed op seconds and seconds per op."""
        times = {}
        for name, fn in ops:
            self.attempted[name] = self.attempted.get(name, 0) + 1
            start = time.perf_counter()
            try:
                if span is None:
                    out = fn()
                else:
                    with span(name):
                        out = fn()
            except Exception as exc:  # any failure of the program under test
                times[name] = time.perf_counter() - start
                self._fail(name, f"{name}: {type(exc).__name__}: {exc}")
                continue
            times[name] = time.perf_counter() - start
            if name not in self.first:
                self.first[name] = out
            elif out[1] != self.first[name][1]:
                self._fail(name, f"{name}: output differs from the first pass")
        return sum(times.values()), times

    def _fail(self, name: str, problem: str) -> None:
        self.failed[name] = self.failed.get(name, 0) + 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check_outputs(self) -> None:
        for name, (result, _text) in self.first.items():
            problems = self.workload.verify(name, result)
            if problems:
                # Every later output repeated this one, so all attempts fail.
                self.failed[name] = self.attempted[name]
                self.problems.extend(problems[:20])

    def summary(self) -> dict:
        return {
            "attempted": sum(self.attempted.values()),
            "failed": sum(self.failed.values()),
            "problems": self.problems,
        }


def _past(deadline: float, round_start: float) -> bool:
    """True when another round as long as the last would end after the deadline."""
    now = time.perf_counter()
    return now + (now - round_start) > deadline


def measure(workload, seconds: float) -> dict:
    tally = Tally(workload)
    ops = workload.ops()
    reference = peak_rss_mb = None
    passes = []
    op_s: dict[str, list[float]] = {name: [] for name, _fn in ops}
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        total, times = tally.run_pass(ops)
        passes.append(total)
        for name, op_seconds in times.items():
            op_s[name].append(op_seconds)
        if reference is None:
            # Every pass does the same work, so the first reaches the peak;
            # it is read before the reference kernel's arrays exist.
            peak_rss_mb = workload.peak_rss_mb()
            reference = Reference()
        reference.run_for(SHARE * total)
        if _past(deadline, start):
            break
    tally.check_outputs()
    return {
        "pass_s": passes,
        "op_s": op_s,
        "reference_s": reference.samples,
        "scale": reference.scale(),
        "peak_rss_mb": peak_rss_mb,
        **tally.summary(),
    }


# -- traced run ------------------------------------------------------------

SPAN_LAYERS = (
    "lattice.power",
    "lattice.exp_measure",
    "weighted.weighted_sum_distribution",
    "weighted.wconvolve",
    "weighted.canonical",
    "weighted.wkolmogorov_distance",
    "markov.mb_pmf",
    "approximants.build_din",
    "approximants.nb_component_pmf",
    "bounds.bound_nb",
    "bounds.bound_iid",
    "bounds.bound_markov",
    "harness.render",
)
SELF_LAYERS = ("harness.run_example", "harness.run_markov")
COUNTERS = (
    "lattice.power.calls",
    "weighted.wconvolve.calls",
    "weighted.wconvolve.pairs",
    "weighted.canonical.rows_in",
    "weighted.cdf_atoms",
    "markov.mb_pmf.atoms",
    "approximants.build_din.atoms",
)


def _counter(fn):
    """Counter hook that never breaks the traced call it observes."""

    def hook(tracer, args, result):
        try:
            fn(tracer, args, result)
        except (TypeError, AttributeError, IndexError):
            pass

    return hook


@_counter
def _count_power(tracer, args, result):
    tracer.count("lattice.power.calls", 1)


@_counter
def _count_wconvolve(tracer, args, result):
    tracer.count("weighted.wconvolve.calls", 1)
    tracer.count("weighted.wconvolve.pairs", len(args[0]) * len(args[1]))


@_counter
def _count_canonical(tracer, args, result):
    tracer.count("weighted.canonical.rows_in", args[1].shape[0])
    tracer.count("weighted.canonical.rows_out", len(result))


@_counter
def _count_cdf(tracer, args, result):
    tracer.count("weighted.cdf_atoms", len(args[0]) + len(args[1]))


@_counter
def _count_mb_pmf(tracer, args, result):
    tracer.count("markov.mb_pmf.atoms", len(result))


@_counter
def _count_build_din(tracer, args, result):
    tracer.count("approximants.build_din.atoms", len(result[1]))


def install_wrappers(patches: Patches) -> None:
    """Wrap each public call where its caller looks it up."""
    wrap = patches.wrap
    wrap(weighted, "power", "lattice.power", _count_power)
    wrap(approximants, "exp_measure", "lattice.exp_measure")
    wrap(harness, "weighted_sum_distribution", "weighted.weighted_sum_distribution")
    for owner in (weighted, harness):
        wrap(owner, "wconvolve", "weighted.wconvolve", _count_wconvolve)
    wrap(weighted, "_wcanonical", "weighted.canonical", _count_canonical)
    wrap(harness, "wkolmogorov_distance", "weighted.wkolmogorov_distance", _count_cdf)
    wrap(harness, "mb_pmf", "markov.mb_pmf", _count_mb_pmf)
    wrap(harness, "build_din", "approximants.build_din", _count_build_din)
    wrap(harness, "nb_component_pmf", "approximants.nb_component_pmf")
    for name in ("bound_nb", "bound_iid", "bound_markov"):
        wrap(harness, name, f"bounds.{name}")
    for owner in (harness, cli):
        wrap(owner, "run_example", "harness.run_example")
        wrap(owner, "run_markov", "harness.run_markov")
        wrap(owner, "json_text", "harness.render")
    wrap(harness.SweepResult, "to_csv_text", "harness.render")


def _layer_values(tracer: Tracer, run_id: int) -> dict[str, float]:
    inclusive, own, counts = tracer.run_totals(run_id)
    values = {f"{name}.s": inclusive.get(name, 0.0) for name in SPAN_LAYERS}
    values.update({f"{name}.self_s": own.get(name, 0.0) for name in SELF_LAYERS})
    values.update({name: float(counts.get(name, 0)) for name in COUNTERS})
    rows_in = counts.get("weighted.canonical.rows_in", 0)
    rows_out = counts.get("weighted.canonical.rows_out", 0)
    values["weighted.canonical.merge_ratio"] = rows_out / rows_in if rows_in else 0.0
    return values


def _import_layer() -> dict[str, float]:
    """Cumulative import times of the top-level packages, medians of fresh runs."""
    samples = {"import.wsumdist_s": [], "import.scipy_s": [], "import.numpy_s": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import wsumdist.cli"],
            cwd=ROOT,
            env=CHILD_ENV,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise OpFailed(f"import wsumdist.cli failed: {proc.stderr.strip()[-300:]}")
        totals = _importtime_roots(proc.stderr)
        for package in ("wsumdist", "scipy", "numpy"):
            samples[f"import.{package}_s"].append(totals.get(package, 0) / 1e6)
    return {name: statistics.median(vals) for name, vals in samples.items()}


def _importtime_roots(text: str) -> dict[str, int]:
    """Microseconds per top-level package, summing only its outermost imports.

    ``-X importtime`` prints each module after its children, indented two
    spaces per nesting level, with cumulative microseconds in column two.
    """
    stack: list[tuple] = []  # (level, name, cumulative, children)
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = line.split(":", 1)[1].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        level = (len(name) - len(name.lstrip()) - 1) // 2
        node = (level, name.strip(), int(cumulative))
        children = []
        while stack and stack[-1][0] > level:
            children.append(stack.pop())
        stack.append(node + (children,))
    totals: dict[str, int] = {}

    def visit(node, inside: set[str]) -> None:
        _level, name, cumulative, children = node
        top = name.split(".")[0]
        if top not in inside:
            totals[top] = totals.get(top, 0) + cumulative
        for child in children:
            visit(child, inside | {top})

    for root in stack:
        visit(root, set())
    return totals


def measure_traced(workload, seconds: float) -> dict:
    """Alternate plain and traced in-process passes for ``seconds``.

    On cli-defaults each round also runs the fresh-process pass, whose
    per-command wall time minus in-process ``cli.main`` time is start-up.
    """
    layers = _import_layer()
    tracer = Tracer()
    tally = Tally(workload)
    plain, traced, fresh = [], [], []
    ops = workload.inprocess_ops()
    fresh_ops = workload.ops() if isinstance(workload, CliDefaults) else None
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        if fresh_ops is not None:
            fresh.append(tally.run_pass(fresh_ops)[1])
        # Alternate which kind goes first, so first-touch costs of the
        # first round fall on both kinds.
        if len(traced) % 2:
            plain.append(tally.run_pass(ops))
        tracer.run_id = len(traced)
        patches = Patches(tracer)
        install_wrappers(patches)
        try:
            traced.append(tally.run_pass(ops, span=tracer.span)[0])
        finally:
            patches.restore()
        if len(traced) % 2:
            plain.append(tally.run_pass(ops))
        if _past(deadline, start):
            break
    tally.check_outputs()

    per_run = [_layer_values(tracer, run_id) for run_id in range(len(traced))]
    for name in per_run[0]:
        layers[name] = statistics.median(run[name] for run in per_run)
    plain_s = statistics.median(total for total, _times in plain)
    layers["trace.overhead"] = statistics.median(traced) / plain_s - 1.0

    def op_median(name: str, rounds) -> float:
        return statistics.median(times.get(name, 0.0) for times in rounds)

    plain_times = [times for _total, times in plain]
    for family in CHECK_NAMES:
        layers[f"checks.{family}.s"] = op_median(f"checks.{family}", plain_times)
    for cmd in CLI_COMMANDS:
        main_s = op_median(f"cli.main.{cmd}", plain_times)
        layers[f"cli.main_s.{cmd}"] = main_s
        layers[f"cli.startup_s.{cmd}"] = op_median(cmd, fresh) - main_s if fresh else 0.0
    family_reports = [
        tally.first[f"checks.{family}"][0]
        for family in CHECK_NAMES
        if f"checks.{family}" in tally.first
    ]
    layers["checks.instances"] = float(
        sum(r["passed"] + r["failed"] for report in family_reports for r in report["results"])
    )
    layers["checks.failed"] = float(
        sum(r["failed"] for report in family_reports for r in report["results"])
    )
    return {
        "layers": layers,
        "absent": sorted(set(patches.absent)),
        "plain_pass_s": [total for total, _times in plain],
        "traced_pass_s": traced,
        "trace": tracer.to_json(),
        **tally.summary(),
    }


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    try:
        try:
            workload.warm_up()
        except Exception as exc:  # the timed passes fail the same way and count it
            sys.stderr.write(f"warm-up failed: {type(exc).__name__}: {exc}\n")
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            summary = measure_traced(workload, args.seconds)
        else:
            summary = measure(workload, args.seconds)
    finally:
        workload.close()
    summary["inputs"] = workload.inputs
    summary["env"] = environment()
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
