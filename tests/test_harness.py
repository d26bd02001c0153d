"""Experiment harness and CLI: configs, sweeps, rate fits, determinism."""

import argparse
import itertools
import json
import math
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from wsumdist import lattice
from wsumdist.bounds import BlockSpec, bound_iid
from wsumdist.cli import _COMMANDS, build_parser
from wsumdist.harness import (
    EXAMPLE_F,
    EXAMPLE_G,
    KINDS,
    DegenerateFitError,
    ExperimentConfig,
    RateFit,
    SweepResult,
    demo_intro,
    fit_rate,
    run_example,
    run_markov,
    run_nb,
)
from wsumdist.lattice import power
from wsumdist.weighted import (
    WeightBasis,
    WeightedMeasure,
    weighted_sum_distribution,
    wkolmogorov_distance,
)

ROOT = Path(__file__).resolve().parents[1]
SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


# The two doors into a config: a JSON payload and the Python constructor.
# Both run the one validation pass, so each bad value gets one message.
BUILDS = {
    "json": ExperimentConfig.from_json_dict,
    "python": lambda payload: ExperimentConfig(**payload),
}


def _same_error(payload: dict) -> str:
    """The ValueError message every build gives payload; they must agree."""
    messages = set()
    for build in BUILDS.values():
        with pytest.raises(ValueError) as info:
            build(payload)
        messages.add(str(info.value))
    assert len(messages) == 1, messages
    return messages.pop()


def _cli(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "wsumdist", *argv],
        capture_output=True,
        text=True,
        **kwargs,
    )


class TestFitRate:
    def test_exact_inverse_law(self):
        fit = fit_rate([(n, 5.0 / n) for n in (10, 100, 1000, 10000)])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-12)
        assert fit.residual <= 1e-12

    def test_exact_root_law(self):
        fit = fit_rate([(n, 3.0 / math.sqrt(n)) for n in (4, 16, 64, 256)])
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)

    def test_nonpositive_points_dropped(self):
        fit = fit_rate([(10, 1.0), (100, 0.1), (1000, 0.01), (0, 5.0), (50, 0.0)])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_rate([(10, 1.0), (100, 0.1)])
        with pytest.raises(DegenerateFitError):
            fit_rate([(10, -1.0), (100, -0.1), (1000, 0.0)])

    def test_json_dict(self):
        payload = fit_rate([(10, 1.0), (100, 0.1), (1000, 0.01)]).to_json_dict()
        assert set(payload) == {"slope", "intercept", "residual"}


class TestExperimentConfig:
    def test_defaults_and_kinds(self):
        cfg = ExperimentConfig(kind="check")
        assert cfg.seed == 1 and cfg.count == 200
        for kind in ("frobnicate", "iid-sweep"):
            with pytest.raises(ValueError):
                ExperimentConfig(kind=kind)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="example", n_grid=(16, 16))
        with pytest.raises(ValueError):
            ExperimentConfig(kind="example", n_grid=(64, 16))

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="markov-sweep", chains=((1.2, 0.1),))

    def test_json_round_trip(self):
        cfg = ExperimentConfig(
            kind="markov-sweep",
            n_grid=(50, 100),
            weights=(1.0, 2.0),
            chains=((0.3, 0.02), (0.25, 0.01)),
            tail_tol=1e-9,
        )
        assert ExperimentConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_json_dict({"kind": "check", "bogus": 1})

    def test_payload_without_kind_rejected(self):
        with pytest.raises(ValueError, match="'kind'"):
            ExperimentConfig.from_json_dict({"s": 3})

    def test_override_skips_none(self):
        cfg = ExperimentConfig(kind="example", n_grid=(16, 64))
        same = cfg.override(seed=None, n_grid=None)
        assert same == cfg
        bumped = cfg.override(seed=9)
        assert bumped.seed == 9 and bumped.n_grid == (16, 64)


class TestSweepResult:
    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            SweepResult(kind="example", columns=("a", "b"), rows=((1,),))

    def test_csv_text(self):
        res = SweepResult(
            kind="example",
            columns=("n", "distance"),
            rows=((16, 0.5), (64, 0.25)),
        )
        assert res.to_csv_text() == "n,distance\n16,0.5\n64,0.25\n"
        assert res.column("distance") == [0.5, 0.25]

    def test_text_hides_dotted_columns(self):
        res = SweepResult(
            kind="example",
            columns=("n", "distance", "block0.u"),
            rows=((16, 0.5, 0.375),),
            prelude={"u": 0.375},
        )
        text = res.to_text()
        assert "block0.u" not in text
        assert text.startswith("u = 0.375\n")


class TestRunExample:
    def test_prelude_anchors(self):
        res = run_example((16, 64))
        assert res.prelude["nu1.f"] == pytest.approx(1.0, abs=1e-12)
        assert res.prelude["nu3.g"] == pytest.approx(3.0, abs=1e-12)
        assert res.prelude["beta4"] == pytest.approx(9.0, abs=1e-12)
        assert res.prelude["u"] == pytest.approx(0.375, abs=1e-15)
        assert res.prelude["overlap_criterion"] == pytest.approx(-1.5, abs=1e-12)

    def test_frozen_distances(self):
        res = run_example((16, 64))
        dist = res.column("distance")
        assert dist[0] == pytest.approx(0.0059008144807108365, abs=1e-15)
        assert dist[1] == pytest.approx(0.0010908881270107473, abs=1e-15)

    def test_frozen_large_n_distances(self):
        # boxes of 0.2 M to 1.5 M lattice points, past the golden files' n <= 1024
        res = run_example((4096, 16384, 65536))
        assert [repr(d) for d in res.column("distance")] == [
            "7.791954310054638e-06",
            "1.9174220919626617e-06",
            "4.757367814411939e-07",
        ]

    @pytest.mark.parametrize(
        "k,want",
        [
            (2, ["0x1.057460bbe8000p-17", "0x1.015a1f1570000p-19", "0x1.fed187de80000p-22"]),
            (19, ["0x1.036204bc5c000p-17", "0x1.0238f00670000p-19", "0x1.01aeb0ec00000p-21"]),
        ],
    )
    def test_large_box_distance_bits(self, k, want):
        # 12 to 94 slabs of value; the distance stops below the top few,
        # whose mass cannot move the result, and every bit must stay
        res = run_example((4096, 16384, 65536), weights=(1.0, math.sqrt(k)))
        assert [d.hex() for d in res.column("distance")] == want

    @pytest.mark.parametrize(
        "w2,grid,want",
        [
            (1.5 + 1e-7, (256, 1024), ["0.00013494997412877296", "3.22030194318812e-05"]),
            (2.0 + 1e-7, (256,), ["0.00013987177855323552"]),
            (4 / 3 + 1e-7, (256,), ["0.0001462611973186978"]),
            (0.1, (256,), ["0.0019454480802703344"]),
            (0.3, (256,), ["0.00040906020652220487"]),
            (0.7, (256,), ["0.00013293241183748306"]),
        ],
    )
    def test_frozen_near_rational_distances(self, w2, grid, want):
        # 1e-7 off a commensurable weight the values lie 2e-7 and more apart:
        # distinct points, which a tolerance of 1e-9 (1 + max |v|) merges into
        # the tied law's distance (1.2150e-4 for 1.5 at n = 256); on decimal
        # weights the float ties of one exact value stay one location
        res = run_example(grid, weights=(1.0, w2))
        assert [repr(d) for d in res.column("distance")] == want

    def test_block_split(self):
        res = run_example((16, 64))
        assert res.column("n1") == [4, 8]
        assert res.column("n2") == [16, 64]

    def test_ratio_column_consistent(self):
        res = run_example((16, 64))
        for row_d, row_f, row_r in zip(
            res.column("distance"), res.column("factor"), res.column("ratio")
        ):
            assert row_r == pytest.approx(row_d / row_f, rel=1e-12)

    def test_fit_present_with_three_points(self):
        res = run_example((16, 64, 256))
        assert res.fit is not None
        assert res.fit.slope < -0.9

    def test_bound_warnings_tagged_with_n(self):
        # The fixtures match only through order 3, so s = 4 breaks the
        # bound's hypothesis at every n.
        warnings = run_example((16, 64), s=4).warnings
        assert warnings
        assert all(w.startswith(("n=16: ", "n=64: ")) for w in warnings)
        assert run_example((16, 64)).warnings == ()

    def test_zero_factor_raises(self):
        # The fixtures live on {0, ..., 5}, so their order-8 factorial
        # moments vanish and bound_iid's factor at s = 7 is exactly 0.
        # The first row's factor is checked before any law is built.
        with mock.patch.object(lattice, "convolve", wraps=lattice.convolve) as spy:
            with pytest.raises(
                ValueError, match="n=16: structural factor is 0"
            ) as info:
                run_example((16, 64, 65536), s=7)
        assert "not matched through order 7" in str(info.value)
        assert spy.call_count == 0

    def test_weights_type_checked(self):
        # float() would read "1" and True as weight 1.0.
        with pytest.raises(ValueError, match="weights must be real numbers"):
            run_example((16, 64, 256), weights=("1", True))

    @pytest.mark.parametrize("weights", [(1.0,), (1.0, SQRT2), (1.0, SQRT2, SQRT3)])
    def test_rows_match_per_n_rebuild(self, weights):
        # Most block counts here (2, 3, 4, 8, 10, 12, 50, 130 with two
        # weights) are not powers of two, so their laws are products of
        # several squares of the shared chain; each row must equal the row
        # built for its n alone.
        grid = (3, 10, 50, 130)
        res = run_example(grid, weights=weights)
        basis = WeightBasis(weights)
        for n, got in zip(grid, res.rows, strict=True):
            sizes = [math.isqrt(n - 1) + 1] + [n] * (len(weights) - 1)
            if len(weights) == 1:
                sizes = [n]
            report = bound_iid(
                [BlockSpec.iid(EXAMPLE_F, EXAMPLE_G, k, w) for k, w in zip(sizes, weights)],
                3,
            )
            laws = [
                weighted_sum_distribution(
                    [(law, k, i + 1) for i, k in enumerate(sizes)], basis
                )
                for law in (EXAMPLE_F, EXAMPLE_G)
            ]
            distance = wkolmogorov_distance(*laws)
            components = report.components
            want = (
                n,
                sizes[0],
                sizes[-1],
                distance,
                report.factor,
                distance / report.factor,
                *(components[k] for k in sorted(components)),
            )
            assert got == want

    @pytest.mark.parametrize(
        "grid,calls",
        [((16, 64, 256, 1024), 20), ((16, 64, 256, 1024, 4096, 16384, 65536), 32)],
    )
    def test_one_chain_of_squares_per_law(self, grid, calls):
        # Every block count of these grids is a power of two, so F's and G's
        # chains of squares make every law; one power per block per row
        # would take 84 and 210 convolutions.
        with mock.patch.object(lattice, "convolve", wraps=lattice.convolve) as spy:
            run_example(grid)
        assert spy.call_count == calls

    def test_per_block_terms(self):
        # a - b = (A1 - B1) x A2 + B1 x (A2 - B2) telescopes the distance
        # into T0 = W(A1, A2) - W(B1, A2) and T1 = W(B1, A2) - W(B1, B2), so
        # K(T0) + K(T1) >= K(a - b).  Inside the sum block 1 smooths block
        # 0's difference: K(T0) falls about 2000-fold while n1 grows 8-fold.
        grid = (16, 64, 256, 1024)
        want = [
            (5.0485e-3, 2.1975e-3),
            (7.3428e-4, 4.8505e-4),
            (2.8379e-5, 1.1910e-4),
            (2.4238e-6, 2.9754e-5),
        ]
        basis = WeightBasis((1.0, math.sqrt(2.0)))
        res = run_example(grid)
        for n, n1, distance, (k0, k1) in zip(
            grid, res.column("n1"), res.column("distance"), want
        ):
            a1, a2 = power(EXAMPLE_F, n1), power(EXAMPLE_F, n)
            b1, b2 = power(EXAMPLE_G, n1), power(EXAMPLE_G, n)
            hybrid = WeightedMeasure(basis, (b1, a2))
            t0 = wkolmogorov_distance(WeightedMeasure(basis, (a1, a2)), hybrid)
            t1 = wkolmogorov_distance(hybrid, WeightedMeasure(basis, (b1, b2)))
            assert t0 + t1 >= distance
            assert t0 == pytest.approx(k0, rel=1e-4)
            assert t1 == pytest.approx(k1, rel=1e-4)


class TestRunMarkov:
    def test_columns_and_anchors(self):
        res = run_markov(ExperimentConfig(kind="markov-sweep", n_grid=(50, 100)))
        dist = res.column("distance")
        # Both anchors equal kolmogorov_norm(mb_pmf(params) - build_din(params)[1])
        # on the 1-D lattice.
        assert dist[0] == pytest.approx(0.001830709829576116, abs=1e-14)
        assert dist[1] == pytest.approx(0.001442508222829264, abs=1e-14)
        assert dist[0] > dist[1]
        for gap in res.column("variance_gap"):
            assert gap <= 1e-7
        for defect in res.column("mass_defect"):
            assert abs(defect) <= 1e-9
        for gap in res.column("mean_gap"):
            assert abs(gap) <= 1e-7

    def test_two_chain_weighted(self):
        cfg = ExperimentConfig(
            kind="markov-sweep",
            n_grid=(50,),
            weights=(1.0, math.sqrt(2.0)),
            chains=((0.3, 0.02), (0.25, 0.015)),
        )
        res = run_markov(cfg)
        assert len(res.rows) == 1
        assert res.column("distance")[0] > 0.0

    def test_sweep_to_a_million(self):
        # Past n = 5*10^4 the laws' mass leaves 1 by more than
        # PROBABILITY_MASS_TOL; their budgets cover the drift, so moments
        # accept them and the sweep completes.
        res = run_markov(
            ExperimentConfig(kind="markov-sweep", n_grid=(10**4, 10**5, 10**6))
        )
        assert res.column("ratio") == pytest.approx([0.2413, 0.2415, 0.2410], abs=1e-3)
        assert res.fit.slope == pytest.approx(-0.5003, abs=1e-4)

    def test_cli_sweep_to_a_million(self):
        proc = _cli("markov", "--n-grid", "10000,100000,1000000", "--json")
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)["result"]["rows"]
        assert [row[0] for row in rows] == [10**4, 10**5, 10**6]

    def test_frozen_two_chain_distances(self):
        # boxes of 10^4 to 4.3 * 10^5 lattice points; from n = 400 on, the
        # products of the chains' underflowing tails are dropped
        cfg = ExperimentConfig(
            kind="markov-sweep",
            n_grid=(100, 200, 400, 800),
            weights=(1.0, math.sqrt(2.0)),
            chains=((0.3, 0.02), (0.25, 0.015)),
        )
        assert [repr(d) for d in run_markov(cfg).column("distance")] == [
            "0.0006463125839663297",
            "0.0004616661111662701",
            "0.00033142873801750294",
            "0.000235764475490563",
        ]

    @pytest.mark.parametrize(
        "weights,chains",
        [((1.0,), ((0.3, 0.02),)), ((1.0, math.sqrt(2.0)), ((0.3, 0.02), (0.25, 0.015)))],
    )
    def test_rows_independent_of_grid(self, weights, chains):
        # The chain laws of a grid share one set of squared transfer
        # matrices; a row for n must not depend on which other horizons
        # share them.
        grid = (20, 50, 120)
        cfg = ExperimentConfig(
            kind="markov-sweep", n_grid=grid, weights=weights, chains=chains
        )
        swept = run_markov(cfg).rows
        for n, row in zip(grid, swept):
            alone = run_markov(cfg.override(n_grid=(n,))).rows
            assert alone == (row,)


class TestRunNb:
    def test_match_columns(self):
        res = run_nb((25, 100))
        assert res.column("r") == [50.0, 200.0]
        for p in res.column("p_tilde"):
            assert p == pytest.approx(2.0 / 3.0, abs=1e-15)
        for got, want in zip(res.column("nb_mean"), res.column("target_mean")):
            assert got == pytest.approx(want, abs=1e-8)
        for got, want in zip(res.column("nb_variance"), res.column("target_variance")):
            assert got == pytest.approx(want, abs=1e-8)

    def test_factor_scales_as_root_n(self):
        res = run_nb((25, 100, 400))
        assert res.fit is not None
        assert res.fit.slope == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: run_example(()),
        lambda: run_markov(ExperimentConfig(kind="markov-sweep")),
        lambda: run_nb(()),
        lambda: demo_intro(()),
    ],
    ids=["example", "markov", "nb", "demo-intro"],
)
def test_empty_grid_rejected(sweep):
    with pytest.raises(ValueError, match="^n_grid must be nonempty$"):
        sweep()


@pytest.mark.parametrize(
    "grid,message",
    [
        ((16.7, 64), "n_grid must be integers"),
        ((True, 4, 16), "n_grid must be integers"),
        ((64, 16), "n_grid must be strictly increasing"),
        ((0, 16), "n_grid must be >= 1"),
    ],
)
@pytest.mark.parametrize("sweep", [run_example, run_nb, demo_intro])
def test_bad_grid_rejected(sweep, grid, message):
    # int() would run 16.7 as 16 and True as 1, and the sweep would run an
    # unsorted grid in its own order.
    with pytest.raises(ValueError, match=f"^{message}$"):
        sweep(grid)


class TestDemoIntro:
    def test_distances_shrink(self):
        res = demo_intro((4, 16, 64))
        dist = res.column("distance")
        assert all(a > b for a, b in zip(dist, dist[1:]))


class TestCli:
    def test_example_text_smoke(self):
        proc = _cli("example", "--n-grid", "16,64,256")
        assert proc.returncode == 0
        assert "distance" in proc.stdout
        assert "rate fit:" in proc.stdout

    def test_example_json_payload(self):
        proc = _cli("example", "--n-grid", "16,64", "--json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["config"]["kind"] == "example"
        assert payload["result"]["columns"][0] == "n"

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        a = _cli("markov", "--n-grid", "50,100", "--json", "--out", str(out))
        bytes_a = out.read_bytes()
        b = _cli("markov", "--n-grid", "50,100", "--json", "--out", str(out))
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout
        assert bytes_a == out.read_bytes()

    def test_config_file_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_grid": [4, 16], "tail_tol": 1e-8}))
        proc = _cli(
            "demo-intro", "--config", str(cfg), "--n-grid", "4,16,64", "--json"
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        # flag overrides file; file overrides default
        assert payload["config"]["n_grid"] == [4, 16, 64]
        assert payload["config"]["tail_tol"] == 1e-8

    def test_check_exit_codes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"count": 5}))
        proc = _cli("check", "--config", str(cfg))
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("ok")

    def test_check_csv_summary(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"count": 3}))
        out = tmp_path / "checks.csv"
        proc = _cli("check", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "name,passed,failed"
        assert lines[1].startswith("mineka2,3,0")

    def test_check_count_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"count": 7}))
        proc = _cli("check", "--config", str(cfg), "--count", "2", "--json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["count"] == 2
        assert all(r["passed"] == 2 for r in payload["results"])

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_check_count_below_one_rejected(self, count):
        proc = _cli("check", "--count", count)
        assert proc.returncode == 1
        assert proc.stderr.startswith("wsumdist: error: ")
        assert "count" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("example", "--seed", "3"),
            ("example", "--tail-tol", "0.1"),
            ("markov", "--seed", "3"),
            ("nb", "--seed", "3"),
            ("demo-intro", "--seed", "3"),
            ("check", "--n-grid", "10"),
            ("check", "--tail-tol", "0.1"),
            ("example", "--count", "3"),
        ],
        ids=lambda argv: f"{argv[0]}{argv[1]}",
    )
    def test_command_rejects_flag_it_does_not_read(self, argv):
        assert _cli(*argv).returncode == 2

    def test_readme_flag_table_matches_parser(self):
        readme = (ROOT / "README.md").read_text()
        section = readme.split("Each command takes only the flags it reads:\n", 1)[1]
        lines = section.lstrip("\n").splitlines()
        table = list(itertools.takewhile(lambda line: line.startswith("|"), lines))
        stated = {}
        for line in table[2:]:
            commands, flags = line.strip("|").split("|")
            for command in re.findall(r"`([\w-]+)`", commands):
                stated[command] = set(re.findall(r"`(--[\w-]+)", flags))
        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        parsed = {
            name: {opt for action in sub._actions for opt in action.option_strings}
            - {"-h", "--help"}
            for name, sub in subparsers.choices.items()
        }
        assert stated == parsed
        assert sorted(command.kind for command in _COMMANDS.values()) == sorted(KINDS)

    @pytest.mark.parametrize("command", ["example", "markov", "nb", "demo-intro"])
    def test_config_echo_round_trip(self, tmp_path, command):
        first = _cli(command, "--json")
        cfg = tmp_path / "echo.json"
        cfg.write_text(json.dumps(json.loads(first.stdout)["config"]))
        again = _cli(command, "--config", str(cfg), "--json")
        assert first.returncode == 0 and again.returncode == 0
        assert again.stdout == first.stdout

    @pytest.mark.parametrize(
        "flag",
        [("--seed", "3"), ("--config", "c.json"), ("--n-grid", "10"), ("--tail-tol", "0.1")],
        ids=["seed", "config", "n-grid", "tail-tol"],
    )
    def test_fit_rejects_sweep_flags(self, flag):
        assert _cli("fit", "x.csv", *flag).returncode == 2

    def test_fit_round_trip(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert _cli("example", "--n-grid", "16,64,256", "--out", str(out)).returncode == 0
        proc = _cli("fit", str(out))
        assert proc.returncode == 0
        assert proc.stdout.startswith("slope -1.")

    def test_fit_too_few_rows(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("n,distance\n16,0.5\n64,0.25\n")
        proc = _cli("fit", str(path))
        assert proc.returncode == 1
        assert "fit:" in proc.stderr

    @pytest.mark.parametrize("row", ["64,abc", "64"], ids=["non-numeric", "short"])
    def test_fit_bad_cell(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"n,distance\n16,0.5\n{row}\n256,0.125\n")
        proc = _cli("fit", str(path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("fit: ")
        assert "Traceback" not in proc.stderr

    def test_fit_missing_column(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("n,value\n16,0.5\n64,0.25\n256,0.125\n")
        assert _cli("fit", str(path)).returncode == 1
        assert _cli("fit", str(path), "--column", "value").returncode == 0

    @pytest.mark.parametrize(
        "payload,field",
        [
            ({"n_grid": None}, "n_grid"),
            ({"weights": None}, "weights"),
            ({"s": None}, "s"),
            ({"n_grid": 50}, "n_grid"),
            ({"chains": [0.3]}, "chains"),
            ({"s": [3]}, "bad config value"),
        ],
    )
    def test_config_field_errors_name_the_field(self, payload, field):
        assert re.search(field, _same_error({"kind": "markov-sweep", **payload}))

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"out": True}, "'out' takes a path or null, got True"),
            ({"out": 7}, "'out' takes a path or null, got 7"),
            ({"n_grid": [16.7, 64]}, "'n_grid' takes integers, got [16.7, 64]"),
            ({"n_grid": [16, True]}, "'n_grid' takes integers"),
            ({"seed": 1.5}, "'seed' takes integers, got 1.5"),
            ({"count": 16.7}, "'count' takes integers, got 16.7"),
            ({"s": 2.0}, "'s' takes integers, got 2.0"),
            ({"k0": True}, "'k0' takes integers, got True"),
            ({"s": "3"}, "'s' takes integers, got '3'"),
            ({"weights": ["1.5"]}, "'weights' takes numbers, got ['1.5']"),
            ({"chains": [[0.3, 0.02], [0, True]]}, "'chains' takes numbers"),
            ({"tail_tol": "1e-10"}, "'tail_tol' takes numbers, got '1e-10'"),
            ({"chains": [[0.3]]}, "'chains' must hold [p, q_bar] pairs"),
            ({"chains": [[0.3, 0.02, 5]]}, "'chains' must hold [p, q_bar] pairs"),
        ],
    )
    def test_config_values_type_checked(self, payload, message):
        assert message in _same_error({"kind": "markov-sweep", **payload})

    @pytest.mark.parametrize("build", BUILDS)
    def test_config_numpy_scalars_stored_as_python(self, build):
        cfg = BUILDS[build](
            {
                "kind": "markov-sweep",
                "n_grid": (np.int64(50), 100),
                "weights": (np.float64(1.0),),
                "chains": ((np.float64(0.3), np.float32(0.5)),),
                "seed": np.int32(4),
                "tail_tol": np.float64(1e-9),
            }
        )
        assert cfg.n_grid == (50, 100) and cfg.weights == (1.0,)
        assert cfg.chains == ((0.3, 0.5),) and cfg.seed == 4
        stored = [*cfg.n_grid, *cfg.weights, *cfg.chains[0], cfg.seed, cfg.tail_tol]
        assert [type(v) for v in stored] == [int, int, float, float, float, int, float]
        assert json.loads(json.dumps(cfg.to_json_dict())) == cfg.to_json_dict()

    def test_config_integral_numbers_allowed(self):
        cfg = ExperimentConfig.from_json_dict(
            {"kind": "markov-sweep", "weights": [1, 2.5], "chains": [[0, 1], [0.3, 0.02]]}
        )
        assert cfg.weights == (1.0, 2.5)
        assert cfg.chains == ((0.0, 1.0), (0.3, 0.02))

    def test_config_null_out_allowed(self):
        cfg = ExperimentConfig.from_json_dict({"kind": "markov-sweep", "out": None})
        assert cfg.out is None

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"n_grid": null}', "'n_grid' must not be null"),
            ('{"n_grid": [100, 50]}', "n_grid must be strictly increasing"),
            ("{not json", "wsumdist: error:"),
            ('{"weights": [1.0, 2.0]}', "one (p, q_bar) chain per weight"),
            ('{"kind": "nb-sweep"}', "does not match command 'markov'"),
            ('{"out": true}', "'out' takes a path or null, got True"),
            ('{"out": 7}', "'out' takes a path or null, got 7"),
            ('{"n_grid": [50.5, 100]}', "'n_grid' takes integers"),
            ('{"weights": [true, 1.5]}', "'weights' takes numbers, got [True, 1.5]"),
            ('{"chains": [[false, true]]}', "'chains' takes numbers, got [[False, True]]"),
            ('{"chains": [[0.3, "0.02"]]}', "'chains' takes numbers"),
            ('{"tail_tol": true}', "'tail_tol' takes numbers, got True"),
            ('{"chains": [[0.3]]}', "'chains' must hold [p, q_bar] pairs"),
            ('{"chains": [[0.3, 0.02, 5]]}', "'chains' must hold [p, q_bar] pairs"),
        ],
    )
    def test_bad_config_exits_1(self, tmp_path, text, message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        proc = _cli("markov", "--config", str(cfg))
        assert proc.returncode == 1
        assert proc.stderr.startswith("wsumdist: error: ")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_example_order_one(self, tmp_path):
        # s = 1 records only first moments in the prelude; the overlap
        # criterion reads nu2 on its own
        cfg = tmp_path / "s1.json"
        cfg.write_text('{"s": 1, "n_grid": [16, 64]}')
        proc = _cli("example", "--config", str(cfg), "--json")
        assert proc.returncode == 0, proc.stderr
        prelude = json.loads(proc.stdout)["result"]["prelude"]
        assert sorted(prelude) == ["beta2", "nu1.f", "nu1.g", "overlap_criterion", "u"]
        assert prelude["overlap_criterion"] == -1.5

    def test_zero_factor_exits_1(self, tmp_path):
        cfg = tmp_path / "s7.json"
        cfg.write_text('{"s": 7}')
        proc = _cli("example", "--config", str(cfg))
        assert proc.returncode == 1
        assert proc.stderr.startswith("wsumdist: error: n=16: structural factor is 0")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("markov", "--config", "{tmp}/absent.json"),
            ("fit", "{tmp}/absent.csv"),
            ("demo-intro", "--out", "{tmp}/absent/out.csv"),
            ("example", "--n-grid", ","),
        ],
    )
    def test_missing_file_exits_1(self, tmp_path, argv):
        proc = _cli(*(arg.format(tmp=tmp_path) for arg in argv))
        assert proc.returncode == 1
        assert "wsumdist: error: " in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_resource_guard_exit_code(self, tmp_path):
        cfg = tmp_path / "big.json"
        # three weights: the distance's union box holds 42.2 M lattice points
        weights = [1.0, math.sqrt(2.0), math.sqrt(3.0)]
        cfg.write_text(json.dumps({"weights": weights, "n_grid": [1024]}))
        proc = _cli("example", "--config", str(cfg))
        assert proc.returncode == 3
        assert "resource guard" in proc.stderr
