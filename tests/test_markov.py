"""Markov-Binomial tests: DP law vs path enumeration, simulation, assumptions."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsumdist.lattice import LatticeMeasure, from_entries, moments, tv_norm
from wsumdist.markov import (
    Cond1Report,
    MBParams,
    cond1_check,
    mb_pmf,
    mb_pmfs,
    mb_simulate,
    mb_variance,
)


def _enumerate_law(params: MBParams) -> LatticeMeasure:
    # Brute force over all 2^n sample paths; X_0 = 0 so the first step
    # leaves state 0 with probability q_bar.
    p, q_bar, n = params.p, params.q_bar, params.n
    q = 1.0 - p
    probs = np.zeros(n + 1)
    for path in itertools.product((0, 1), repeat=n):
        weight = 1.0
        prev = 0
        for x in path:
            if prev == 0:
                weight *= q_bar if x == 1 else 1.0 - q_bar
            else:
                weight *= p if x == 1 else q
            prev = x
        probs[sum(path)] += weight
    return from_entries({k: probs[k] for k in range(n + 1)})


class TestMbPmf:
    def test_single_step(self):
        law = mb_pmf(MBParams(p=0.3, q_bar=0.02, n=1))
        assert law.mass_at(0) == pytest.approx(0.98, abs=1e-15)
        assert law.mass_at(1) == pytest.approx(0.02, abs=1e-15)

    def test_two_steps_closed_form(self):
        # P(0) = (1-q_bar)^2, P(2) = q_bar*p, P(1) the rest
        law = mb_pmf(MBParams(p=0.3, q_bar=0.02, n=2))
        assert law.mass_at(0) == pytest.approx(0.9604, abs=1e-15)
        assert law.mass_at(1) == pytest.approx(0.0336, abs=1e-15)
        assert law.mass_at(2) == pytest.approx(0.006, abs=1e-15)

    @pytest.mark.parametrize(
        "p,q_bar,n",
        [(0.3, 0.02, 8), (0.5, 0.5, 10), (0.9, 0.1, 12), (0.2, 0.7, 9)],
    )
    def test_against_path_enumeration(self, p, q_bar, n):
        params = MBParams(p=p, q_bar=q_bar, n=n)
        assert tv_norm(mb_pmf(params) - _enumerate_law(params)) <= 1e-12

    def test_independent_case_is_binomial(self):
        # p = q_bar makes both rows of the kernel equal, so every step is an
        # independent coin with P(1) = q_bar and the count is Binomial
        q_bar, n = 0.25, 40
        law = mb_pmf(MBParams(p=q_bar, q_bar=q_bar, n=n))
        binom = {
            k: math.comb(n, k) * q_bar**k * (1.0 - q_bar) ** (n - k)
            for k in range(n + 1)
        }
        assert tv_norm(law - from_entries(binom)) <= 1e-12

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_is_probability_law(self, p, q_bar, n):
        law = mb_pmf(MBParams(p=p, q_bar=q_bar, n=n))
        assert abs(law.total_mass - 1.0) <= 1e-12
        assert np.all(law.masses >= 0)
        assert law.support.min() >= 0 and law.support.max() <= n

    def test_mean_increasing_in_q_bar(self):
        means = [
            moments(mb_pmf(MBParams(p=0.3, q_bar=q, n=50))).mean
            for q in (0.01, 0.05, 0.2, 0.5)
        ]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            MBParams(p=1.0, q_bar=0.5, n=10)
        with pytest.raises(ValueError):
            MBParams(p=0.5, q_bar=0.0, n=10)
        with pytest.raises(ValueError):
            MBParams(p=0.5, q_bar=0.5, n=0)


def _dense_dp(p: float, q_bar: float, n: int) -> np.ndarray:
    # The full O(n^2) table: every entry of 0..n updated at every step.
    q, p_bar = 1.0 - p, 1.0 - q_bar
    f0 = np.zeros(n + 1)
    f1 = np.zeros(n + 1)
    f0[0] = 1.0
    for _ in range(n):
        new1 = np.empty(n + 1)
        new1[0] = 0.0
        new1[1:] = f1[:-1] * p + f0[:-1] * q_bar
        new0 = f1 * q + f0 * p_bar
        f0, f1 = new0, new1
    return f0 + f1


EPS = np.finfo(np.float64).eps


def _assert_within_budget(p, q_bar, horizons):
    # Each law is stored on its band [lo, top] only; zero-extended to 0..n
    # it lies within its error_budget (the mass the trim dropped) of the
    # table in L1, plus the rounding of the entries the drops fed, which
    # both runs round once a step.  Masses of 1e-12 and more keep the
    # table's bits.
    laws = mb_pmfs(p, q_bar, horizons)
    assert len(laws) == len(horizons)
    for n, law in zip(horizons, laws):
        table = _dense_dp(p, q_bar, n)
        lo, top = int(law.support[0]), int(law.support[-1])
        assert law.support.tolist() == list(range(lo, top + 1))
        assert 0 <= lo <= top <= n
        full = np.zeros(n + 1)
        full[lo : top + 1] = law.masses
        moved = full != table
        allowance = 2 * n * EPS * np.maximum(full, table)[moved].sum()
        assert np.abs(full - table).sum() <= law.error_budget + allowance
        big = law.masses >= 1e-12
        assert law.masses[big].tobytes() == table[lo : top + 1][big].tobytes()


class TestMbPmfs:
    @given(
        st.floats(min_value=0.0, max_value=0.999),
        st.floats(min_value=1e-4, max_value=1.0),
        st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=4, unique=True),
    )
    @settings(max_examples=40, deadline=None)
    def test_within_budget_of_dense_table(self, p, q_bar, horizons):
        _assert_within_budget(p, q_bar, tuple(sorted(horizons)))

    @given(
        st.floats(min_value=0.0, max_value=0.999),
        st.floats(min_value=1e-6, max_value=1.0),
        st.integers(min_value=1, max_value=3000),
    )
    @settings(max_examples=40, deadline=None)
    def test_budget_below_n_floors(self, p, q_bar, n):
        # At most one entry per edge per step is dropped, each below eps^2,
        # and lo <= top, so n steps drop at most n * eps^2.
        law = mb_pmf(MBParams(p=p, q_bar=q_bar, n=n))
        assert 0.0 <= law.error_budget <= n * EPS**2
        assert 0 <= law.support[0] <= law.support[-1] <= n
        assert len(law) == law.support[-1] - law.support[0] + 1

    def test_untrimmed_law_is_dense_table(self):
        # At n = 50 no edge entry of (0.3, 0.02) falls below eps^2.
        law = mb_pmf(MBParams(p=0.3, q_bar=0.02, n=50))
        assert law.support.tolist() == list(range(51))
        assert law.masses.tobytes() == _dense_dp(0.3, 0.02, 50).tobytes()
        assert law.error_budget == 0.0

    # (0, 1) alternates deterministically; (0.99, 0.001) is sticky; at
    # (0.3, 0.02) both tails fall below the floor and the band is trimmed.
    @pytest.mark.parametrize("p,q_bar", [(0.0, 1.0), (0.99, 0.001), (0.3, 0.02)])
    def test_edge_chains_within_budget(self, p, q_bar):
        _assert_within_budget(p, q_bar, (1, 7, 1999, 2000))

    def test_alternating_chain_is_point_mass(self):
        # (0, 1) switches at every step: X = 1, 0, 1, ... counts 4 of 7.
        law = mb_pmf(MBParams(p=0.0, q_bar=1.0, n=7))
        assert law.support.tolist() == [4]
        assert law.masses.tolist() == [1.0]
        assert law.error_budget == 0.0

    def test_band_at_ten_thousand(self):
        # The table holds 10001 masses here, 8355 of them 0.0; the band keeps
        # 498 and drops 2.9e-28 from both tails.
        law = mb_pmf(MBParams(p=0.3, q_bar=0.02, n=10**4))
        assert (int(law.support[0]), int(law.support[-1]), len(law)) == (75, 572, 498)
        assert law.error_budget == 2.908984497113827e-28

    @pytest.mark.parametrize("n", [1, 2, 50, 333])
    def test_mb_pmf_is_one_horizon_call(self, n):
        params = MBParams(p=0.3, q_bar=0.02, n=n)
        alone = mb_pmf(params)
        (shared,) = mb_pmfs(params.p, params.q_bar, (n,))
        assert alone.support.tobytes() == shared.support.tobytes()
        assert alone.masses.tobytes() == shared.masses.tobytes()

    @pytest.mark.parametrize("horizons", [(), (0, 5), (-1,), (5, 5), (10, 5)])
    def test_horizon_validation(self, horizons):
        with pytest.raises(ValueError):
            mb_pmfs(0.3, 0.02, horizons)

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            mb_pmfs(1.0, 0.5, (10,))


class TestMbVariance:
    # lambda = p - q_bar: 0.28 in the reference regime, 0 when p = q_bar,
    # negative for (0.1, 0.7), and -1 for (0, 1), where 1 - lambda^2 = 0.
    @pytest.mark.parametrize(
        "p,q_bar",
        [(0.3, 0.02), (0.25, 0.25), (0.1, 0.7), (0.0, 1.0), (0.9, 0.1), (0.0, 0.5)],
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 60])
    def test_matches_dp_law(self, p, q_bar, n):
        params = MBParams(p=p, q_bar=q_bar, n=n)
        want = moments(mb_pmf(params)).variance
        assert mb_variance(params) == pytest.approx(want, abs=1e-12 * max(1.0, want))


class TestMbSimulate:
    def test_matches_exact_law(self):
        params = MBParams(p=0.3, q_bar=0.02, n=20)
        emp = mb_simulate(params, 1_000_000, seed=7)
        exact = mb_pmf(params)
        s = moments(exact)
        # CLT band on the empirical mean: 6 sigma / sqrt(draws)
        band = 6.0 * math.sqrt(s.variance / 1_000_000)
        assert moments(emp).mean == pytest.approx(s.mean, abs=band)
        assert abs(emp.total_mass - 1.0) <= 1e-12

    def test_seed_determinism(self):
        params = MBParams(p=0.4, q_bar=0.3, n=10)
        a = mb_simulate(params, 10_000, seed=11)
        b = mb_simulate(params, 10_000, seed=11)
        assert tv_norm(a - b) == 0.0

    def test_generator_seed_accepted(self):
        params = MBParams(p=0.4, q_bar=0.3, n=10)
        emp = mb_simulate(params, 1_000, seed=np.random.default_rng(3))
        assert abs(emp.total_mass - 1.0) <= 1e-12

    def test_draw_validation(self):
        with pytest.raises(ValueError):
            mb_simulate(MBParams(p=0.4, q_bar=0.3, n=10), 0, seed=1)


class TestCond1Check:
    def test_reference_regime_passes(self):
        report = cond1_check(MBParams(p=0.3, q_bar=0.02, n=100))
        assert isinstance(report, Cond1Report)
        assert report.ok
        assert report.violated_clauses == []

    def test_large_p_flagged(self):
        report = cond1_check(MBParams(p=0.6, q_bar=0.05, n=100))
        assert not report.ok
        assert "p_in_range" in report.violated_clauses

    def test_large_q_bar_flagged(self):
        report = cond1_check(MBParams(p=0.3, q_bar=0.4, n=100), k0=2)
        assert not report.ok
        assert "q_bar_small" in report.violated_clauses

    def test_tiny_q_bar_flagged(self):
        report = cond1_check(MBParams(p=0.3, q_bar=1e-9, n=100), k0=2)
        assert not report.ok
        assert "q_bar_not_tiny" in report.violated_clauses

    def test_k0_loosens_switch_rate_floor(self):
        # floor is n^(-k0): raising k0 admits rarer switching
        params = MBParams(p=0.3, q_bar=1e-5, n=100)
        at_2 = cond1_check(params, k0=2)
        at_3 = cond1_check(params, k0=3)
        assert "q_bar_not_tiny" in at_2.violated_clauses
        assert at_3.ok

    def test_k0_validation(self):
        with pytest.raises(ValueError):
            cond1_check(MBParams(p=0.3, q_bar=0.02, n=100), k0=1)
