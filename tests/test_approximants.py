"""Approximant tests: NB matching, geometric excess, signed exponential."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsumdist.approximants import (
    NegBinParams,
    UnderdispersedError,
    build_din,
    geometric_excess,
    nb_component_pmf,
    nb_match,
)
from wsumdist.lattice import (
    char_fn,
    delta,
    moments,
    power,
    signed_moments,
    tv_norm,
)
from wsumdist.markov import MBParams, mb_pmf


class TestNbMatch:
    def test_fixture_block(self):
        # block of 10 summands with per-summand mean 1, variance 1.5
        params = nb_match(10.0, 15.0)
        assert params.r == pytest.approx(20.0, abs=1e-12)
        assert params.p_tilde == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_geometric_case(self):
        params = nb_match(1.0, 2.0)
        assert params.r == pytest.approx(1.0, abs=1e-15)
        assert params.p_tilde == pytest.approx(0.5, abs=1e-15)

    def test_underdispersed_rejected(self):
        with pytest.raises(UnderdispersedError):
            nb_match(1.0, 1.0)
        with pytest.raises(ValueError):
            nb_match(-1.0, 2.0)

    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=1.01, max_value=4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_round_trip(self, mean, overdispersion):
        variance = mean * overdispersion
        params = nb_match(mean, variance)
        assert params.mean == pytest.approx(mean, rel=1e-12)
        assert params.variance == pytest.approx(variance, rel=1e-12)

    @pytest.mark.parametrize(
        "mean, variance",
        [(True, 3.0), (2.0, True), ("2", 3.0), (2.0, "3"), (None, 3.0)],
    )
    def test_rejects_non_reals(self, mean, variance):
        # True used to run as mean 1; a string failed in a comparison.
        with pytest.raises(ValueError, match="^mean and variance must be real"):
            nb_match(mean, variance)

    def test_numpy_reals_accepted(self):
        assert nb_match(np.float64(10.0), np.int64(15)) == nb_match(10.0, 15.0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            NegBinParams(r=0.0, p_tilde=0.5)
        with pytest.raises(ValueError):
            NegBinParams(r=1.0, p_tilde=1.0)


class TestNbComponentPmf:
    def test_geometric_closed_form(self):
        # Shape 1 is the geometric law p_tilde q_tilde^k.
        for p_tilde in (0.05, 0.3, 0.5, 0.8):
            pmf = nb_component_pmf(NegBinParams(r=1.0, p_tilde=p_tilde), 1, 1e-13)
            k = np.arange(pmf.support.size, dtype=np.float64)
            want = p_tilde * (1.0 - p_tilde) ** k
            assert np.array_equal(pmf.support, np.arange(k.size))
            np.testing.assert_allclose(pmf.masses, want, rtol=1e-14, atol=0.0)

    def test_zero_mass_is_head(self):
        params = NegBinParams(r=20.0, p_tilde=2.0 / 3.0)
        pmf = nb_component_pmf(params, 10, 1e-10)
        assert pmf.mass_at(0) == pytest.approx(params.p_tilde ** 2.0, rel=1e-12)

    def test_convolution_power_recovers_sum(self):
        params = NegBinParams(r=20.0, p_tilde=2.0 / 3.0)
        comp = nb_component_pmf(params, 10, 1e-13)
        total = power(comp, 10)
        s = moments(total)
        assert s.mean == pytest.approx(10.0, abs=1e-8)
        assert s.variance == pytest.approx(15.0, abs=1e-8)

    def test_transform_matches_closed_form(self):
        params = NegBinParams(r=20.0, p_tilde=2.0 / 3.0)
        n = 10
        pmf = nb_component_pmf(params, n, 1e-10)
        for t in np.linspace(-3.0, 3.0, 50):
            want = (params.p_tilde / (1.0 - params.q_tilde * np.exp(1j * t))) ** (
                params.r / n
            )
            got = char_fn(pmf, float(t), 0.0, 0)
            assert abs(got - want) <= 10 * 1e-10

    def test_budget_covers_cut_tail(self):
        params = NegBinParams(r=5.0, p_tilde=0.4)
        pmf = nb_component_pmf(params, 1, 1e-6)
        assert abs(1.0 - pmf.total_mass) <= pmf.error_budget + 1e-15

    def test_large_shape_terminates(self):
        params = nb_match(1600.0, 2400.0)
        pmf = nb_component_pmf(params, 1, 1e-13)
        assert moments(pmf).mean == pytest.approx(1600.0, rel=1e-10)


class TestGeometricExcess:
    def test_zero_switch_limit(self):
        y = geometric_excess(0.0)
        assert tv_norm(y - (delta(1) - delta(0))) == 0.0

    def test_masses_and_total(self):
        y = geometric_excess(0.5, 1e-12)
        assert y.mass_at(0) == -1.0
        assert y.mass_at(1) == pytest.approx(0.5, abs=1e-15)
        assert y.mass_at(3) == pytest.approx(0.125, abs=1e-15)
        # a zero-mass perturbation up to the truncated tail
        assert abs(y.total_mass) <= 1e-12 + 1e-15
        assert tv_norm(y) == pytest.approx(2.0, abs=1e-11)

    def test_transform_closed_form(self):
        p, q = 0.3, 0.7
        y = geometric_excess(p, 1e-12)
        for t in np.linspace(-math.pi, math.pi, 100):
            want = q * np.exp(1j * t) / (1.0 - p * np.exp(1j * t)) - 1.0
            got = char_fn(y, float(t), 0.0, 0)
            assert abs(got - want) <= 1e-10

    def test_transform_envelopes(self):
        # modulus cap and the real-part decay cap, p capped at 1/2
        for p in (0.1, 0.3, 0.5):
            y = geometric_excess(p, 1e-12)
            for t in np.linspace(-math.pi, math.pi, 100):
                val = char_fn(y, float(t), 0.0, 0)
                sin_half = math.sin(t / 2.0)
                assert abs(val) <= 4.0 * abs(sin_half) + 1e-9
                assert val.real <= -(4.0 / 3.0) * sin_half**2 + 1e-9

    @pytest.mark.parametrize("p", [False, True, "0.5", None, 0.5j])
    def test_rejects_non_real_p(self, p):
        # False used to run as p = 0, giving delta(1) - delta(0).
        with pytest.raises(ValueError, match="^p must be a real number$"):
            geometric_excess(p)

    def test_numpy_real_p_accepted(self):
        want = geometric_excess(0.25, 1e-12)
        got = geometric_excess(np.float64(0.25), 1e-12)
        assert got.masses.tobytes() == want.masses.tobytes()
        assert got.error_budget == want.error_budget

    @pytest.mark.parametrize("p", [-0.1, 1.0, math.nan])
    def test_rejects_p_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\)$"):
            geometric_excess(p)

    def test_rejects_bad_tol(self):
        # True used to run as tol = 1.0, keeping a single geometric atom.
        for tol in (0.0, -1e-10, math.nan, math.inf, -math.inf, True):
            with pytest.raises(ValueError, match="tail_tol"):
                geometric_excess(0.5, tol)
            with pytest.raises(ValueError, match="tail_tol"):
                nb_component_pmf(NegBinParams(r=5.0, p_tilde=0.4), 1, tol)


class TestBuildDin:
    PARAMS = MBParams(p=0.3, q_bar=0.02, n=100)

    def test_coefficients(self):
        coeffs, _ = build_din(self.PARAMS)
        assert coeffs.gamma == pytest.approx(0.7 * 0.02 / 0.72, abs=1e-15)
        assert coeffs.a1 == pytest.approx(1.9368827160493827, abs=1e-12)
        # exp{a1 Y - a2 Y*Y} has variance (a1 (1 + p) - 2 a2) / q^2, so a2 is
        # fixed by the chain's variance, here read off the exact law.
        p, q = self.PARAMS.p, self.PARAMS.q
        variance = moments(mb_pmf(self.PARAMS)).variance
        want = (coeffs.a1 * (1.0 + p) - q * q * variance) / 2.0
        assert coeffs.a2 == pytest.approx(want, abs=1e-12)

    def test_gamma_bracket(self):
        coeffs, _ = build_din(self.PARAMS)
        assert self.PARAMS.q_bar / 2.0 <= coeffs.gamma <= self.PARAMS.q_bar

    def test_total_mass_near_one(self):
        _, d = build_din(self.PARAMS, 1e-10)
        assert abs(d.total_mass - 1.0) <= 10 * 1e-10

    def test_mean_matches_chain(self):
        h = mb_pmf(self.PARAMS)
        _, d = build_din(self.PARAMS, 1e-10)
        assert signed_moments(d).mean == pytest.approx(
            moments(h).mean, abs=10 * 1e-10 * (1 + self.PARAMS.n)
        )

    def test_variance_gap_is_structural(self):
        # a2 is the variance's growth rate times n plus a constant carrying
        # the start-at-zero transient.  The constant is n-independent: it is
        # q^2/2 times the 0.0273657 variance offset that a2 = n * rate alone
        # leaves, and with it the variance gap drops to truncation level.
        p, q, q_bar = 0.3, 0.7, 0.02
        denom = q + q_bar
        gamma = q * q_bar / denom
        rate = q * q_bar**2 / denom**2 * (p + q / denom) + gamma**2 / 2.0
        offsets = []
        for n in (50, 100, 200):
            params = MBParams(p=p, q_bar=q_bar, n=n)
            h = mb_pmf(params)
            coeffs, d = build_din(params, 1e-10)
            offsets.append(coeffs.a2 - n * rate)
            gap = signed_moments(d).variance - moments(h).variance
            assert abs(gap) <= 10 * 1e-10 * (1 + n) ** 2
        for offset in offsets:
            assert offset == pytest.approx(6.7046e-3, abs=1e-7)
        assert max(offsets) - min(offsets) <= 1e-12

    @given(
        st.floats(min_value=0.05, max_value=0.5),
        st.floats(min_value=0.005, max_value=1.0 / 30.0),
        st.integers(min_value=20, max_value=200),
    )
    @settings(max_examples=25, deadline=None)
    def test_regime_sweep_mass_and_mean(self, p, q_bar, n):
        params = MBParams(p=p, q_bar=q_bar, n=n)
        coeffs, d = build_din(params, 1e-10)
        assert params.q_bar / 2.0 <= coeffs.gamma <= params.q_bar
        assert abs(d.total_mass - 1.0) <= 10 * 1e-10
        assert coeffs.a2 >= 0.0
        h = moments(mb_pmf(params))
        dm = signed_moments(d)
        assert dm.mean == pytest.approx(h.mean, abs=1e-7 * (1 + n))
        assert dm.variance == pytest.approx(h.variance, abs=10 * 1e-10 * (1 + n) ** 2)
