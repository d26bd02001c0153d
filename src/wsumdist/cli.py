"""Command line interface for the experiment sweeps and the check suite.

Subcommands: example, markov, nb, check, demo-intro, fit.  Every sweep and
check run is driven by an ExperimentConfig assembled from the command's
built-in defaults, then an optional --config JSON file, then explicit
flags (later layers win).  A config file's kind, when present, must be
the command's own.  Each command takes only the flags it reads; _COMMANDS
declares them, and fit reads a sweep CSV.
Sweeps print a readable table by default or the full JSON payload with
--json, and write the complete CSV table to --out; repeated runs with the
same config and seed produce byte-identical CSV and JSON.

Exit codes: 0 on success, 1 when the config or a run's input holds an
invalid value or a file cannot be read or written (the reason goes to
stderr as ``wsumdist: error: ...``) or ``fit`` gets an unusable CSV
(``fit: ...``), 2 when the check suite reports failures or a flag is not
the command's, 3 when a computation trips the support-size resource guard.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Callable, NamedTuple, Sequence

from .checks import run_check
from .harness import (
    ExperimentConfig,
    SweepResult,
    demo_intro,
    fit_rate,
    json_text,
    run_example,
    run_markov,
    run_nb,
    write_csv,
)
from .weighted import ResourceLimitError


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n-grid {text!r}: {exc}") from exc


class _Command(NamedTuple):
    kind: str  # its ExperimentConfig kind
    defaults: dict  # where they differ from ExperimentConfig's own
    flags: tuple[str, ...]  # the config fields it takes as flags, see _FLAGS
    help: str
    sweep: Callable[[ExperimentConfig], SweepResult] | None  # None for check


# The sweeps look the runners up in this module when they run, so a wrapper
# set on cli.run_example or cli.run_markov sees the command's call.
_COMMANDS: dict[str, _Command] = {
    "example": _Command(
        "example",
        {"n_grid": [16, 64, 256, 1024], "weights": [1.0, 2.0**0.5]},
        ("n_grid",),
        "matched two-weight sweep: distance vs structural factor",
        lambda cfg: run_example(cfg.n_grid, weights=cfg.weights, s=cfg.s),
    ),
    "markov": _Command(
        "markov-sweep",
        {"n_grid": [50, 100, 200, 400]},
        ("n_grid", "tail_tol"),
        "Markov-Binomial vs signed compound-geometric sweep",
        lambda cfg: run_markov(cfg),
    ),
    "nb": _Command(
        "nb-sweep",
        {"n_grid": [25, 100, 400, 1600], "tail_tol": 1e-13},
        ("n_grid", "tail_tol"),
        "negative binomial matching sweep",
        lambda cfg: run_nb(cfg.n_grid, tail_tol=cfg.tail_tol),
    ),
    "check": _Command(
        "check", {}, ("seed", "count"), "seeded random-instance inequality suite", None
    ),
    "demo-intro": _Command(
        "demo-intro",
        {"n_grid": [4, 16, 64, 256]},
        ("n_grid", "tail_tol"),
        "two Poisson-plus-coin laws drifting together",
        lambda cfg: demo_intro(cfg.n_grid, tail_tol=cfg.tail_tol),
    ),
}
# Each config field a command may take as a flag: its parser and help line.
_FLAGS: dict[str, tuple[Callable[[str], object], str]] = {
    "n_grid": (_parse_grid, "comma-separated counts"),
    "tail_tol": (float, "series truncation budget"),
    "seed": (int, "master seed of the instances"),
    "count": (int, "seeded instances per check family"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsumdist",
        description=(
            "Exact distributions of weighted integer sums, matched-moment "
            "approximants, and structural error-bound sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        cmd.add_argument("--config", help="JSON file of ExperimentConfig fields")
        cmd.add_argument("--out", help="write the full CSV table to this path")
        cmd.add_argument(
            "--json", action="store_true", help="print the JSON payload instead of text"
        )
        for field in command.flags:
            parse, text = _FLAGS[field]
            cmd.add_argument("--" + field.replace("_", "-"), type=parse, help=text)
    fit = sub.add_parser("fit", help="log-log rate fit of a sweep CSV")
    fit.add_argument("csv_path", help="CSV with an n column and a value column")
    fit.add_argument(
        "--column",
        default="distance",
        help="value column to fit against n (default: distance)",
    )
    fit.add_argument("--out", help="write the fitted line as CSV to this path")
    fit.add_argument(
        "--json", action="store_true", help="print the fit as JSON instead of text"
    )
    return parser


def _load_config(args: argparse.Namespace, command: _Command) -> ExperimentConfig:
    payload = {"kind": command.kind, **command.defaults}
    if args.config:
        with open(args.config) as fh:
            file_payload = json.load(fh)
        if not isinstance(file_payload, dict):
            raise ValueError("config file must hold a JSON object")
        if file_payload.get("kind", command.kind) != command.kind:
            raise ValueError(
                f"config kind {file_payload['kind']!r} does not match command "
                f"{args.command!r} (kind {command.kind!r})"
            )
        payload.update(file_payload)
    # Flags win over the file; those not given are None.
    flags = {name: getattr(args, name) for name in ("out", *command.flags)}
    payload.update({k: v for k, v in flags.items() if v is not None})
    return ExperimentConfig.from_json_dict(payload)


def _emit_sweep(result: SweepResult, cfg: ExperimentConfig, as_json: bool) -> None:
    if as_json:
        payload = {"config": cfg.to_json_dict(), "result": result.to_json_dict()}
        sys.stdout.write(json_text(payload))
    else:
        sys.stdout.write(result.to_text())
    if cfg.out:
        write_csv(result, cfg.out)


def _run_fit(args: argparse.Namespace) -> int:
    with open(args.csv_path, newline="") as fh:
        # A missing cell reads as "" and fails float() like any bad cell.
        rows = list(csv.DictReader(fh, restval=""))
    if not rows or "n" not in rows[0] or args.column not in rows[0]:
        sys.stderr.write(
            f"fit: {args.csv_path} needs columns 'n' and {args.column!r}\n"
        )
        return 1
    try:
        fit = fit_rate((float(row["n"]), float(row[args.column])) for row in rows)
    except ValueError as exc:
        # A non-numeric or missing cell, or too few positive points.
        sys.stderr.write(f"fit: {exc}\n")
        return 1
    if args.json:
        sys.stdout.write(json_text(fit.to_json_dict()))
    else:
        sys.stdout.write(
            f"slope {fit.slope!r}\nintercept {fit.intercept!r}\n"
            f"residual {fit.residual!r}\n"
        )
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write("slope,intercept,residual\n")
            fh.write(f"{fit.slope!r},{fit.intercept!r},{fit.residual!r}\n")
    return 0


def _run_check_cmd(cfg: ExperimentConfig, as_json: bool) -> int:
    report = run_check(cfg.seed, cfg.count)
    if as_json:
        sys.stdout.write(json_text(report.to_json_dict()))
    else:
        for res in report.results:
            sys.stdout.write(f"{res.name}: passed {res.passed} failed {res.failed}\n")
            for failure in res.failures:
                sys.stdout.write(f"  failure: {failure}\n")
        sys.stdout.write("ok\n" if report.ok else "FAILED\n")
    if cfg.out:
        lines = ["name,passed,failed"]
        lines += [f"{r.name},{r.passed},{r.failed}" for r in report.results]
        with open(cfg.out, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0 if report.ok else 2


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fit":
            return _run_fit(args)
        command = _COMMANDS[args.command]
        cfg = _load_config(args, command)
        if command.sweep is None:
            return _run_check_cmd(cfg, args.json)
        _emit_sweep(command.sweep(cfg), cfg, args.json)
        return 0
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource guard: {exc}\n")
        return 3
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"wsumdist: error: {exc}\n")
        return 1

if __name__ == "__main__":
    sys.exit(main())
