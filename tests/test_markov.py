"""Markov-Binomial tests: the powered law against an exact rational DP, the
dense float DP and path enumeration, within its error budget; the variance
against exact rationals; simulation; assumptions."""

import itertools
import math
from fractions import Fraction

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

    @pytest.mark.parametrize(
        "p,q_bar,n",
        [("0.3", 0.02, 10), (0.3, True, 10), (0.3, 0.02, 2.7), (0.3, 0.02, True), (0.3, 0.02, "5")],
    )
    def test_params_type_checked(self, p, q_bar, n):
        # float() would read "0.3" and True, int() truncate 2.7 to 2.
        with pytest.raises(ValueError, match="must be"):
            MBParams(p=p, q_bar=q_bar, n=n)

    def test_params_stored_as_python_numbers(self):
        params = MBParams(p=np.float64(0.3), q_bar=1, n=np.int64(5))
        assert (type(params.p), type(params.q_bar), type(params.n)) == (float, float, int)

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


EPS = np.finfo(np.float64).eps


def _dense_dp(p: float, q_bar: float, n: int) -> tuple[np.ndarray, float]:
    # The full O(n^2) float table, every entry of 0..n updated at every step,
    # and its L1 error bound to the exact law.  A step rounds each entry
    # twice (a product, then the sum of two), gamma_2 of its terms' sum, and
    # the float matrix misses the exact one by the column defect; the sum
    # f0 + f1 rounds once more.
    q, p_bar = 1.0 - p, 1.0 - q_bar
    defect = max(abs(math.fsum((1.0, -p, -q))), abs(math.fsum((1.0, -q_bar, -p_bar))))
    gamma2 = EPS / (1.0 - EPS)
    f0 = np.zeros(n + 1)
    f1 = np.zeros(n + 1)
    f0[0] = 1.0
    err = 0.0
    for _ in range(n):
        new1 = np.empty(n + 1)
        new1[0] = 0.0
        new1[1:] = f1[:-1] * p + f0[:-1] * q_bar
        new0 = f1 * q + f0 * p_bar
        f0, f1 = new0, new1
        err += (defect + gamma2 * (1.0 + defect)) * (1.0 + err)
    return f0 + f1, err + EPS / 2.0 * (1.0 + err)


def _exact_law(p: float, q_bar: float, n: int) -> list[Fraction]:
    # The same recursion in exact rationals on the floats p and q_bar, with
    # q = 1 - p and p_bar = 1 - q_bar exact.
    p, q_bar = Fraction(p), Fraction(q_bar)
    q, p_bar = 1 - p, 1 - q_bar
    f0 = [Fraction(1)] + [Fraction(0)] * n
    f1 = [Fraction(0)] * (n + 1)
    for _ in range(n):
        f0, f1 = (
            [a * q + b * p_bar for a, b in zip(f1, f0)],
            [Fraction(0)] + [a * p + b * q_bar for a, b in zip(f1, f0)],
        )
    return [a + b for a, b in zip(f0, f1)]


def _full(law: LatticeMeasure, n: int) -> np.ndarray:
    # The law is stored on its band [lo, top] only; zero-extended to 0..n.
    lo, top = int(law.support[0]), int(law.support[-1])
    assert law.support.tolist() == list(range(lo, top + 1))
    assert 0 <= lo <= top <= n
    full = np.zeros(n + 1)
    full[lo : top + 1] = law.masses
    return full


def _assert_within_budget(p, q_bar, horizons):
    # Each law lies within its error_budget of the exact law and the table
    # within its own bound, so the two lie within the sum of both in L1.
    laws = mb_pmfs(p, q_bar, horizons)
    assert len(laws) == len(horizons)
    for n, law in zip(horizons, laws):
        table, table_err = _dense_dp(p, q_bar, n)
        assert np.abs(_full(law, n) - table).sum() <= law.error_budget + table_err


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
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_budget_bounds_gap_to_exact_law(self, p, q_bar, n):
        # The budget is the derived bound on the L1 gap to the exact law of
        # the chain with these p and q_bar; the gap is summed in rationals.
        law = mb_pmf(MBParams(p=p, q_bar=q_bar, n=n))
        exact = _exact_law(p, q_bar, n)
        gap = sum(abs(Fraction(m) - e) for m, e in zip(_full(law, n).tolist(), exact))
        assert gap <= Fraction(law.error_budget)

    @given(
        st.floats(min_value=0.0, max_value=0.999),
        st.floats(min_value=1e-4, max_value=1.0),
        st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=5, unique=True),
    )
    @settings(max_examples=40, deadline=None)
    def test_law_independent_of_grid(self, p, q_bar, horizons):
        # A law at n depends only on (p, q_bar, n): each horizon applies the
        # shared squares for its own bits to the start vector.
        grid = tuple(sorted(horizons))
        for n, law in zip(grid, mb_pmfs(p, q_bar, grid)):
            alone = mb_pmf(MBParams(p=p, q_bar=q_bar, n=n))
            assert law.support.tobytes() == alone.support.tobytes()
            assert law.masses.tobytes() == alone.masses.tobytes()
            assert law.error_budget == alone.error_budget

    def test_untrimmed_law_keeps_every_mass(self):
        # At n = 50 no edge entry of (0.3, 0.02) falls below eps^2, so the
        # band is all of 0..50 and the budget is rounding only.
        law = mb_pmf(MBParams(p=0.3, q_bar=0.02, n=50))
        assert law.support.tolist() == list(range(51))
        table, table_err = _dense_dp(0.3, 0.02, 50)
        assert np.abs(law.masses - table).sum() <= law.error_budget + table_err

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
        # The budget bounds rounding that happened not to move anything.
        assert law.error_budget > 0.0

    def test_band_at_ten_thousand(self):
        # The table holds 10001 masses here, most of them below eps^2; the
        # powered law keeps 509 on [74, 582].  Its budget is the rounding
        # bound, 3.4 n eps, where the total mass is off by 3.3e-13.
        law = mb_pmf(MBParams(p=0.3, q_bar=0.02, n=10**4))
        assert (int(law.support[0]), int(law.support[-1]), len(law)) == (74, 582, 509)
        assert law.error_budget == 7.49111883638385e-12
        assert abs(law.total_mass - 1.0) <= law.error_budget

    @pytest.mark.parametrize("n", [10**5, 10**6])
    def test_long_chain_is_probability(self, n):
        # The mass drifts linearly in n (-3.3e-11 at 10^6), past the fixed
        # PROBABILITY_MASS_TOL = 1e-12; the budget covers it.
        law = mb_pmf(MBParams(p=0.3, q_bar=0.02, n=n))
        assert abs(law.total_mass - 1.0) > 1e-12
        assert law.is_probability
        assert moments(law).mean == pytest.approx(n * 0.02 / 0.72, rel=1e-3)

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

    @pytest.mark.parametrize("horizons", [(2.5, 3.9), (True, 3), (3.0,), ("4",)])
    def test_horizons_type_checked(self, horizons):
        with pytest.raises(ValueError, match="horizons must be integers"):
            mb_pmfs(0.3, 0.02, horizons)

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            mb_pmfs(1.0, 0.5, (10,))



def _exact_variance(params: MBParams) -> Fraction:
    # Var = Sum_t m_t (1 - m_t) + 2 Sum_{s<t} Cov(X_s, X_t) in closed form,
    # with m_t = pi1 (1 - lambda^t), summed as geometric series, evaluated in
    # exact rationals on the floats p and q_bar.
    n = params.n
    p, q_bar = Fraction(params.p), Fraction(params.q_bar)
    q, p_bar = 1 - p, 1 - q_bar
    lam, d = p - q_bar, q + q_bar
    pi1, pi0 = q_bar / d, q / d
    lam_n1 = lam ** (n + 1)
    s1 = lam * (1 - lam**n) / d
    s2 = lam**2 * (1 - lam ** (2 * n)) / (d * (p + p_bar))
    sum_m = pi1 * (n - s1)
    sum_m2 = pi1 * pi1 * (n - 2 * s1 + s2)
    cross = (
        pi0 * lam * sum_m
        - pi0 * pi1 * (s1 - n * lam_n1)
        + pi1 * pi1 * lam * (s1 - s2)
        - pi1 * lam_n1 * sum_m
    ) / d
    return sum_m - sum_m2 + 2 * cross


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

    # Sticky chains: q + q_bar = d, p = 1 - d/2, q_bar = d/2.  The closed form
    # the powering replaced erred by 7e-8 relative at d = 1e-3.
    @pytest.mark.parametrize("d", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("n", [1, 10, 100, 1000])
    def test_sticky_chain_matches_exact_rationals(self, d, n):
        # For lambda >= 0 the step matrix is nonnegative: each entry rounds
        # at most twice (eps relative), which moves its n-th power by n eps,
        # and the powering's products of six terms add about 3 n eps.
        params = MBParams(p=1.0 - d / 2.0, q_bar=d / 2.0, n=n)
        want = _exact_variance(params)
        assert abs(Fraction(mb_variance(params)) - want) <= 4 * n * EPS * want

    @pytest.mark.parametrize("d", [1e-3, 1e-4])
    def test_sticky_chain_matches_law_at_ten_thousand(self, d):
        # A law within eps of the exact one in L1, on 0..n, has its variance
        # within n^2 eps (1 + eps) of the exact variance; the dot product
        # adds (len + 3) eps relative, and mb_variance its own 4 n eps.
        n = 10**4
        params = MBParams(p=1.0 - d / 2.0, q_bar=d / 2.0, n=n)
        law = mb_pmf(params)
        want = moments(law).variance
        budget = law.error_budget
        allowance = n * n * budget * (1.0 + budget) + (len(law) + 3 + 4 * n) * EPS * want
        assert abs(mb_variance(params) - want) <= allowance


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
