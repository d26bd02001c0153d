"""Seeded randomized inequality checks: registry, determinism, failure hooks.

Run as a script, this module prints the clause digests of
``tests/data/check_clause_digests_seed1-3.json`` for the tree on
PYTHONPATH (see ``TestClauseDigests``).
"""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsumdist import checks
from wsumdist.checks import (
    _REGISTRY,
    CHECK_NAMES,
    CORE_INEQUALITY_CHECKS,
    MAX_RECORDED_FAILURES,
    CheckReport,
    _clauses,
    _first_failure,
    gen_matched_pair,
    null_space,
    run_check,
    simpson,
)
from wsumdist.lattice import char_fn, factorial_moment, from_entries, tv_norm

DATA = Path(__file__).resolve().parent / "data"


def _instance_clauses(seed, name, j):
    """Clauses of instance j of one family, on run_check's per-instance RNG."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(CHECK_NAMES.index(name), j))
    )
    return _REGISTRY[name](rng)


class TestRegistry:
    def test_names(self):
        assert CHECK_NAMES == (
            "mineka2",
            "roos",
            "inversion",
            "ac1",
            "ac3",
            "expansion_residual",
            "matched_gap",
            "matched_gap_sym",
            "excess_charfn",
            "norms",
        )

    def test_core_subset(self):
        assert set(CORE_INEQUALITY_CHECKS) <= set(CHECK_NAMES)
        assert "matched_gap_sym" not in CORE_INEQUALITY_CHECKS
        assert "norms" not in CORE_INEQUALITY_CHECKS


class TestRunCheck:
    def test_small_run_all_pass(self):
        report = run_check(seed=1, count=25)
        assert isinstance(report, CheckReport)
        assert report.ok
        assert {r.name for r in report.results} == set(CHECK_NAMES)
        for r in report.results:
            assert r.passed == 25 and r.failed == 0 and r.failures == ()

    def test_seed_determinism_bytewise(self):
        a = run_check(seed=7, count=10)
        b = run_check(seed=7, count=10)
        assert a == b
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_selection_independence(self):
        # per-family results do not depend on which families run alongside
        full = {r.name: r for r in run_check(seed=3, count=12).results}
        solo = run_check(seed=3, count=12, names=("ac3",)).results[0]
        assert solo == full["ac3"]

    def test_corrupt_hook_reports_failures(self):
        report = run_check(seed=1, count=8, corrupt="roos")
        by_name = {r.name: r for r in report.results}
        assert not report.ok
        assert by_name["roos"].failed == 8
        assert 0 < len(by_name["roos"].failures) <= 5
        first = json.loads(by_name["roos"].failures[0])
        assert first["rhs"] == -1.0
        assert "lhs" in first and "detail" in first
        # other families untouched
        assert by_name["mineka2"].failed == 0

    def test_recorded_failures_capped(self):
        # more failures than records: the first ones are kept, in order
        result = run_check(1, 12, names=("roos",), corrupt="roos").results[0]
        assert result.failed == 12
        records = [json.loads(r) for r in result.failures]
        assert [r["instance"] for r in records] == list(range(MAX_RECORDED_FAILURES))
        assert not any("suppressed" in r for r in records)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_check(seed=1, count=0)
        with pytest.raises(ValueError):
            run_check(seed=1, count=5, names=("no_such_family",))
        with pytest.raises(ValueError):
            run_check(seed=1, count=5, corrupt="no_such_family")

    def test_seed_must_be_nonnegative(self):
        # numpy's own ValueError used to surface from SeedSequence.
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            run_check(-1, 2)

    def test_numpy_integer_seed_reports_as_int(self):
        report = run_check(np.int64(3), 2, names=["ac3"])
        assert type(report.seed) is int
        assert report == run_check(3, 2, names=["ac3"])

    def test_corrupt_target_must_be_selected(self):
        # Corrupting a family that does not run would test nothing.
        with pytest.raises(ValueError, match="not among the selected checks"):
            run_check(1, 3, names=["ac1"], corrupt="roos")

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_corrupt_report_matches_recorded(self, name):
        """Each family's failure path, payloads included, against the JSON
        that the list-of-tuples implementation produced."""
        recorded = json.loads((DATA / "check_corrupt_seed1.json").read_text())[name]
        got = run_check(1, 8, corrupt=name).to_json_dict()
        assert json.dumps(got, sort_keys=True) == json.dumps(recorded, sort_keys=True)

    def test_json_shape(self):
        payload = run_check(seed=2, count=3, names=("norms",)).to_json_dict()
        assert payload["seed"] == 2
        assert payload["count"] == 3
        assert payload["ok"] is True
        assert payload["results"][0]["name"] == "norms"


class TestClauses:
    """Clause values against tests/data/check_clauses_seed1.json: every
    (lhs, rhs, slack) of instances 0-3 of each family at seed 1, in order,
    recorded from the implementation that returned a list of tuples per
    instance."""

    RECORDED = json.loads((DATA / "check_clauses_seed1.json").read_text())

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_values_match_recorded(self, name):
        instances = self.RECORDED["families"][name]
        assert len(instances) == self.RECORDED["instances"] == 4
        for j, recorded in enumerate(instances):
            c = _instance_clauses(self.RECORDED["seed"], name, j)
            assert c.lhs.shape == c.rhs.shape == c.slack.shape == (len(recorded),)
            lhs, rhs, slack = (list(col) for col in zip(*recorded))
            assert c.lhs.tolist() == lhs
            assert c.slack.tolist() == slack
            if name == "inversion":
                # The one value whose evaluation route changed: the
                # quadrature reads a cached cos/sin table and takes the
                # order-1 modulus at phase origin 0, which moves some
                # values by a few ulp.
                np.testing.assert_allclose(c.rhs, rhs, rtol=1e-12, atol=0.0)
            else:
                assert c.rhs.tolist() == rhs

    def test_details_name_their_clause(self):
        c = _instance_clauses(1, "excess_charfn", 0)
        n = c.lhs.size
        assert c.detail(0)["t"] == c.detail(1)["t"] != c.detail(2)["t"]
        assert c.detail(n - 2)["clause"] == "gamma_lower"
        assert c.detail(n - 1)["clause"] == "gamma_upper"
        norms = _instance_clauses(1, "norms", 0)
        assert [norms.detail(i)["clause"] for i in range(norms.lhs.size)] == [
            "tv_submultiplicative",
            "kolmogorov_convolution",
            "kolmogorov_le_tv",
            "exp_norm",
        ]

    def test_instance_without_clauses_passes(self):
        empty = _clauses([], [], [], lambda i: {})
        assert _first_failure(empty, corrupt=False, instance=0) is None
        assert _first_failure(empty, corrupt=True, instance=0) is None

    def test_wider_draw_passes_inversion(self, monkeypatch):
        # inversion's sums hold for any support; a wider draw reaches past 8.
        monkeypatch.setattr(checks, "_MAX_POINT", 12)
        reach = max(
            int(np.abs(checks._random_support(np.random.default_rng(j))).max())
            for j in range(30)
        )
        assert 8 < reach <= 12
        report = run_check(1, 30, names=["inversion"])
        assert report.ok, report.results[0].failures

    def test_tables_built_on_first_use(self):
        code = (
            "import wsumdist.cli, wsumdist.checks as c, wsumdist.lattice as l\n"
            "print(c._matched_basis.cache_info().currsize,"
            " l._step_power.cache_info().currsize,"
            " c._unit_grid.cache_info().currsize,"
            " c._excess_grid.cache_info().currsize)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.split() == ["0", "0", "0", "0"]


DIGEST_SEEDS = (1, 2, 3)
DIGEST_INSTANCES = 200


def clause_digest(seed, name, count=DIGEST_INSTANCES):
    """sha256 over the float.hex of every clause of instances 0..count-1,
    one line per clause ("lhs rhs slack"), a blank line closing each
    instance.  inversion's lines leave out rhs, whose sums moved to
    Parseval by a few ulp; TestInversionParseval covers it."""
    h = hashlib.sha256()
    for j in range(count):
        c = _instance_clauses(seed, name, j)
        cols = (c.lhs, c.slack) if name == "inversion" else (c.lhs, c.rhs, c.slack)
        for i in range(c.lhs.size):
            h.update((" ".join(float(col[i]).hex() for col in cols) + "\n").encode())
        h.update(b"\n")
    return h.hexdigest()


def clause_digests():
    return {
        "instances": DIGEST_INSTANCES,
        "seeds": {
            str(seed): {name: clause_digest(seed, name) for name in CHECK_NAMES}
            for seed in DIGEST_SEEDS
        },
    }


class TestClauseDigests:
    """Every clause bit of instances 0-199 of each family at seeds 1-3,
    against digests recorded from the tree at commit 1d99f22 (before
    inversion moved to Parseval and the measure algebra stopped re-scanning
    its own supports) by

        PYTHONPATH=src python tests/test_checks.py \\
            > tests/data/check_clause_digests_seed1-3.json
    """

    @pytest.mark.parametrize("seed", DIGEST_SEEDS)
    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_digest_matches_recorded(self, name, seed):
        recorded = json.loads((DATA / "check_clause_digests_seed1-3.json").read_text())
        assert recorded["instances"] == DIGEST_INSTANCES
        assert clause_digest(seed, name) == recorded["seeds"][str(seed)][name]


_FORMER_GRID = np.linspace(-math.pi, math.pi, 2049)


def _simpson_inversion_sums(m, center, b):
    """(1/2pi) int_{-pi}^{pi} (|phi|^2 + |phi'|^2 / b^2) dt by Simpson on
    the 2049-point grid that inversion used before Parseval."""
    base = np.abs(char_fn(m, _FORMER_GRID)) ** 2
    deriv = np.abs(char_fn(m, _FORMER_GRID, center=center, order=1)) ** 2
    return simpson(base + deriv / b**2, _FORMER_GRID) / (2.0 * math.pi)


# Below the normal range a relative bound says nothing: each rounded
# square, product, quotient or sum whose result is subnormal errs by up to
# eta / 2 absolute, eta the smallest subnormal.  The Simpson reference
# rounds 4 such steps per grid point (the squares of |phi| and |phi'|, the
# quotient by b**2 and their sum) and 7 per panel (3 weight products, the
# panel factor and 3 sums); the Parseval sums round 3 per atom (the square,
# the product (k - c) m{k} and its square) and 3 more (the quotient and
# two sums).  The quadrature weights and 1 / 2pi are below 1, so one
# eta / 2 per step covers them; rounding in phi itself moves the squares
# by about 2 |phi| eta, far below eta when the squares are subnormal.
_SUBNORMAL_ABS = (
    (4 * _FORMER_GRID.size + 7 * (_FORMER_GRID.size // 2) + 3 * 8 + 3)
    * np.finfo(float).smallest_subnormal
    / 2
)

_SIGNED_ATOMS = st.lists(
    st.tuples(
        st.integers(min_value=-8, max_value=8),
        st.floats(min_value=-1.0, max_value=1.0),
    ),
    min_size=1,
    max_size=8,
    unique_by=lambda pair: pair[0],
)


class TestInversionParseval:
    """inversion's integrals are exact sums: the mean of |phi|^2 over a
    period is sum_k m{k}^2, and the same holds for the centred derivative
    sum_k (k - c) m{k} e^{itk}."""

    @given(_SIGNED_ATOMS, st.floats(min_value=-8.0, max_value=8.0))
    @example(atoms=[(0, 1.8313407175871794e-162)], center=0.0)
    @example(atoms=[(0, 9.60753188380828e-159)], center=0.0)
    @settings(max_examples=150, deadline=None)
    def test_sums_match_simpson(self, atoms, center):
        # the examples' squares are subnormal: Parseval rounds them
        # correctly, Simpson's steps lose them to underflow
        m = from_entries(atoms)
        w = (m.support - center) * m.masses
        for b in (1.0, 2.0):
            parseval = float(m.masses @ m.masses) + float(w @ w) / b**2
            assert parseval == pytest.approx(
                _simpson_inversion_sums(m, center, b), rel=1e-12, abs=_SUBNORMAL_ABS
            )

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_family_rhs_matches_simpson(self, seed):
        c = checks._check_inversion(np.random.default_rng(seed))
        for i, rhs in enumerate(c.rhs.tolist()):
            detail = c.detail(i)
            m = from_entries(detail["measure"])
            b = detail["b"]
            quadrature = math.sqrt(1.0 + b * math.pi) * math.sqrt(
                _simpson_inversion_sums(m, detail["center"], b)
            )
            assert rhs == pytest.approx(quadrature, rel=1e-12, abs=0.0)


class TestGenMatchedPair:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_postcondition(self, s):
        f, g = gen_matched_pair(123, s)
        assert f.is_probability and g.is_probability
        for k in range(1, s + 1):
            for side in ("plus", "minus"):
                assert factorial_moment(f, k, side) == pytest.approx(
                    factorial_moment(g, k, side), abs=1e-10
                )

    def test_pairs_differ(self):
        f, g = gen_matched_pair(123, 3)
        assert tv_norm(f - g) > 1e-6

    def test_seed_determinism(self):
        f1, g1 = gen_matched_pair(55, 2)
        f2, g2 = gen_matched_pair(55, 2)
        assert tv_norm(f1 - f2) == 0.0
        assert tv_norm(g1 - g2) == 0.0

    def test_generator_seed_accepted(self):
        f, g = gen_matched_pair(np.random.default_rng(9), 1)
        assert f.is_probability and g.is_probability

    def test_order_validation(self):
        with pytest.raises(ValueError):
            gen_matched_pair(1, 4)


def _moment_matrix(s):
    """Rows 1, k, k(k-1), ... through order s on the points 0..8."""
    points = np.arange(9, dtype=np.float64)
    rows = [np.ones(9)]
    for k in range(1, s + 1):
        row = np.ones(9)
        for shift in range(k):
            row = row * (points - shift)
        rows.append(row)
    return np.vstack(rows)


def _random_grids(seed, count):
    """Seeded odd-length grids, alternately evenly and randomly spaced."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        size = 2 * int(rng.integers(1, 1025)) + 1
        if i % 2:
            x = np.sort(rng.uniform(-5.0, 5.0, size))
        else:
            x = np.linspace(-np.pi, np.pi, size)
        yield x, rng.normal(0.0, 1.0, size)


class TestSimpson:
    @staticmethod
    def _exact(x, c):
        """Integral over [x[0], x[-1]] of the polynomial with coefficients c."""

        def antiderivative(t):
            return sum(ci * t ** (i + 1) / (i + 1) for i, ci in enumerate(c))

        return antiderivative(x[-1]) - antiderivative(x[0])

    @pytest.mark.parametrize("size", [3, 5, 2049])
    def test_exact_on_cubics_evenly_spaced(self, size):
        x = np.linspace(-2.0, 3.0, size)
        c = (0.7, -1.3, 2.1, 0.9)
        y = c[0] + x * (c[1] + x * (c[2] + x * c[3]))
        assert simpson(y, x) == pytest.approx(self._exact(x, c), rel=1e-13)

    @pytest.mark.parametrize("size", [3, 5, 2049])
    def test_exact_on_quadratics_unevenly_spaced(self, size):
        # With unequal panel halves the cubic term no longer cancels.
        x = np.sort(np.random.default_rng(size).uniform(-2.0, 3.0, size))
        c = (0.7, -1.3, 2.1)
        y = c[0] + x * (c[1] + x * c[2])
        assert simpson(y, x) == pytest.approx(self._exact(x, c), rel=1e-13)

    @pytest.mark.parametrize("size", [1, 2, 4, 2048])
    def test_needs_odd_point_count(self, size):
        x = np.linspace(0.0, 1.0, size)
        with pytest.raises(ValueError):
            simpson(np.ones(size), x)

    def test_bitwise_matches_scipy(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        for x, y in _random_grids(2049, 300):
            assert simpson(y, x) == float(scipy_integrate.simpson(y, x=x))


class TestNullSpace:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_orthonormal_kernel_of_moment_rows(self, s):
        a = _moment_matrix(s)
        basis = null_space(a)
        assert basis.shape == (9, 9 - (s + 1))
        np.testing.assert_allclose(
            basis.T @ basis, np.eye(basis.shape[1]), rtol=0.0, atol=1e-13
        )
        scale = np.max(np.abs(a))
        np.testing.assert_allclose(a @ basis, 0.0, rtol=0.0, atol=1e-13 * scale)

    def test_bitwise_matches_scipy(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        for s in (1, 2, 3):
            a = _moment_matrix(s)
            assert np.array_equal(null_space(a), scipy_linalg.null_space(a))
        rng = np.random.default_rng(9)
        for _ in range(200):
            a = rng.normal(0.0, 1.0, (int(rng.integers(1, 9)), 9))
            assert np.array_equal(null_space(a), scipy_linalg.null_space(a))


if __name__ == "__main__":
    print(json.dumps(clause_digests(), indent=1))
