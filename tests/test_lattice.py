"""Measure-core tests: algebra, norms, transforms, moments, windows."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsumdist import lattice
from wsumdist.approximants import build_din
from wsumdist.lattice import (
    TRIM_RELATIVE,
    LatticeMeasure,
    _factorial_moments,
    _sorted_union,
    _with_budget,
    char_fn,
    concentration,
    convolve,
    delta,
    exp_measure,
    factorial_moment,
    from_entries,
    from_json_dict,
    kolmogorov_norm,
    moments,
    power,
    powers,
    signed_moments,
    smoothness_u,
    tv_norm,
)
from wsumdist.markov import MBParams, mb_pmf, mb_pmfs

F = from_entries({0: 0.375, 1: 0.5, 4: 0.125})
G = from_entries({0: 0.45, 1: 0.25, 2: 0.25, 5: 0.05})
BERN_HALF = from_entries({0: 0.5, 1: 0.5})


def measures(signed: bool = False):
    """Random small-support measures; masses renormalized for laws."""
    atoms = st.lists(
        st.tuples(
            st.integers(min_value=-8, max_value=8),
            st.floats(
                min_value=-1.0 if signed else 0.01,
                max_value=1.0,
                allow_nan=False,
                allow_infinity=False,
            ),
        ),
        min_size=1,
        max_size=6,
        unique_by=lambda pair: pair[0],
    )

    def build(pairs):
        if signed:
            return from_entries(pairs)
        total = sum(m for _, m in pairs)
        return from_entries([(k, m / total) for k, m in pairs])

    return atoms.map(build)


class TestConstruction:
    def test_delta_identity(self):
        d = delta(0)
        assert d.as_dict() == {0: 1.0}
        assert tv_norm(convolve(delta(1), delta(-1)) - delta(0)) == 0.0

    def test_delta_point(self):
        assert delta(4).mass_at(4) == 1.0
        assert delta(4).total_mass == 1.0

    def test_support_sorted_and_frozen(self):
        m = from_entries({3: 0.5, -1: 0.25, 0: 0.25})
        assert list(m.support) == [-1, 0, 3]
        with pytest.raises(AttributeError):
            m.support = np.array([0])  # type: ignore[misc]

    def test_duplicate_points_merge(self):
        m = from_entries([(2, 0.5), (2, 0.25), (0, 0.25)])
        assert m.mass_at(2) == 0.75

    def test_json_round_trip(self):
        payload = F.to_json_dict()
        assert tv_norm(from_json_dict(payload) - F) == 0.0


class TestValidation:
    """The public constructors reject what they would otherwise truncate
    or carry: non-integral points and non-finite masses."""

    @pytest.mark.parametrize(
        "support", [[0.5, 1.7], [0.0, 1.5], [0.0, math.nan], [0.0, math.inf]]
    )
    def test_non_integral_support_rejected(self, support):
        with pytest.raises(ValueError, match="support points must be integers"):
            LatticeMeasure(support, [0.5, 0.5])
        with pytest.raises(ValueError, match="support points must be integers"):
            from_entries(list(zip(support, [0.5, 0.5])))
        with pytest.raises(ValueError, match="support points must be integers"):
            from_json_dict({"entries": [[k, 0.5] for k in support]})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_masses_rejected(self, bad):
        with pytest.raises(ValueError, match="masses must be finite"):
            LatticeMeasure([0, 1], [0.5, bad])
        with pytest.raises(ValueError, match="masses must be finite"):
            from_entries({0: 0.5, 1: bad})
        with pytest.raises(ValueError, match="masses must be finite"):
            from_json_dict({"entries": [[0, 0.5], [1, bad]]})

    def test_integral_floats_accepted(self):
        m = LatticeMeasure([-2.0, 3.0], [0.25, 0.75])
        assert m.support.dtype == np.int64
        assert m.support.tolist() == [-2, 3]
        assert m.is_probability
        j = from_json_dict({"entries": [[3.0, 0.75], [-2, 0.25]]})
        assert j.support.tolist() == [-2, 3]
        assert j.masses.tolist() == [0.25, 0.75]

    def test_public_constructor_copies_its_input(self):
        support = np.array([0, 1])
        masses = np.array([0.5, 0.5])
        m = LatticeMeasure(support, masses)
        support[0] = -5
        masses[0] = 9.0
        assert m.support.tolist() == [0, 1]
        assert m.masses.tolist() == [0.5, 0.5]

    def test_operation_results_are_frozen(self):
        for m in (F + G, F - G, 2.0 * F, convolve(F, G), delta(3)):
            assert not m.support.flags.writeable
            assert not m.masses.flags.writeable
            with pytest.raises(ValueError):
                m.masses[0] = 1.0


class TestConvolution:
    def test_point_shift(self):
        assert tv_norm(convolve(delta(2), delta(3)) - delta(5)) == 0.0

    def test_identity_on_fixture(self):
        assert tv_norm(convolve(F, delta(0)) - F) == 0.0

    def test_bernoulli_square(self):
        # direct double sum: {0: .25, 1: .5, 2: .25}
        got = convolve(BERN_HALF, BERN_HALF)
        assert got.as_dict() == {0: 0.25, 1: 0.5, 2: 0.25}

    def test_power_conventions(self):
        assert tv_norm(power(F, 0) - delta(0)) == 0.0
        assert tv_norm(power(delta(1), 5) - delta(5)) == 0.0

    def test_power_binomial_oracle(self):
        # Binomial(3, 1/2){1} = 3/8
        assert power(BERN_HALF, 3).mass_at(1) == pytest.approx(0.375, abs=1e-15)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            power(F, -1)

    @given(measures(signed=True), measures(signed=True))
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        assert tv_norm(convolve(a, b) - convolve(b, a)) <= 1e-12

    @given(measures(signed=True), measures(signed=True), measures(signed=True))
    @settings(max_examples=60, deadline=None)
    def test_associative(self, a, b, c):
        left = convolve(convolve(a, b), c)
        right = convolve(a, convolve(b, c))
        assert tv_norm(left - right) <= 1e-12

    @given(measures(signed=True), measures(signed=True))
    @settings(max_examples=60, deadline=None)
    def test_norm_submultiplicative(self, a, b):
        assert tv_norm(convolve(a, b)) <= tv_norm(a) * tv_norm(b) + 1e-12

    def test_sparse_route_matches_dense(self):
        # Far-apart point masses force the sparse pairing path.
        a = from_entries({0: 0.5, 10**6: 0.5})
        b = from_entries({0: 0.5, -(10**6): 0.5})
        got = convolve(a, b)
        assert got.as_dict() == {-(10**6): 0.25, 0: 0.5, 10**6: 0.25}


def _reference_exp(m: LatticeMeasure, tail_tol: float) -> LatticeMeasure:
    """exp_measure summed term by term: per term one convolve, one scalar
    multiply and one measure sum, each trimmed on its own."""
    nrm = m.tv
    if nrm == 0.0:
        return _with_budget(delta(0), m.error_budget)
    halvings = max(0, math.ceil(math.log2(nrm)))
    if halvings:
        m = m * (0.5**halvings)
        tail_tol = tail_tol / 4.0 ** (halvings + 1)
        nrm = m.tv
    term_norm = 1.0
    cutoff = 0
    while True:
        next_norm = term_norm * nrm / (cutoff + 1)
        if cutoff + 2 > nrm:
            tail_bound = next_norm / (1.0 - nrm / (cutoff + 2))
            if tail_bound <= tail_tol:
                break
        term_norm = next_norm
        cutoff += 1
    acc = term = delta(0)
    for k in range(1, cutoff + 1):
        term = convolve(term, m) * (1.0 / k)
        acc = acc + term
    out = _with_budget(acc, tail_bound)
    for _ in range(halvings):
        out = convolve(out, out)
    return out


class TestExpMeasure:
    def test_exp_of_zero(self):
        zero = from_entries({})
        assert tv_norm(exp_measure(zero) - delta(0)) == 0.0

    def test_poisson_closed_form(self):
        lam = 2.0
        got = exp_measure((delta(1) - delta(0)) * lam, 1e-12)
        ks = np.arange(25)
        want = np.exp(-lam) * lam**ks / np.array([math.factorial(k) for k in ks])
        for k in range(25):
            assert got.mass_at(k) == pytest.approx(want[k], abs=1e-12)

    def test_tail_budget_recorded(self):
        m = (delta(1) - delta(0)) * 2.0
        out = exp_measure(m, 1e-6)
        assert 0.0 < out.error_budget <= 1e-6 + 1e-15

    @given(measures(signed=True))
    @settings(max_examples=30, deadline=None)
    def test_norm_bound(self, m):
        scaled = m * (2.5 / max(tv_norm(m), 2.5))
        out = exp_measure(scaled, 1e-10)
        assert tv_norm(out) <= math.exp(tv_norm(scaled)) + 1e-8

    def test_rejects_bad_tol(self):
        # NaN used to run 10^4 cutoff steps and end in RuntimeError, and
        # True ran as tol = 1.0.
        for tol in (0.0, -1e-10, math.nan, math.inf, -math.inf, True, "1e-10"):
            with pytest.raises(ValueError, match="tail_tol"):
                exp_measure(delta(1), tol)

    @given(
        measures(signed=True),
        st.floats(min_value=0.1, max_value=2.0),
        st.sampled_from([0.0, 1e-13, 1e-9]),
        st.sampled_from([1e-6, 1e-10, 1e-16]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_term_by_term_series(self, m, scale, budget, tol):
        # Signed atoms on [-8, 8] scaled to tv up to 12 reach the halving
        # path; a nonzero input budget exercises its propagation.
        arg = _with_budget(m * scale, budget)
        got = exp_measure(arg, tol)
        want = _reference_exp(arg, tol)
        # Both sum the same cut series; beyond their trims (in the
        # budgets) they differ by rounding.  Each convolution rounds a
        # result of tv t by at most its length times eps times t, each
        # squaring at most doubles a relative error, and the tv is at
        # most exp(tv(arg)).
        tv = arg.tv + budget
        eps = np.finfo(float).eps
        rounding = 8.0 * max(1.0, tv) * (len(got) + len(want) + 64) * eps * math.exp(tv)
        assert tv_norm(got - want) <= got.error_budget + want.error_budget + rounding
        # The budget covers every argument within the input's budget, here
        # arg with that much mass added at 0.
        near = exp_measure(m * scale + from_entries({0: budget}), tol)
        assert tv_norm(got - near) <= got.error_budget + near.error_budget + rounding

    def test_far_apart_atoms_take_term_by_term_path(self):
        # A dense buffer over 0..K*10^6 would hold about 10^7 floats; the
        # term-by-term loop keeps the atoms k*10^6 only.
        got = exp_measure(0.5 * (delta(10**6) - delta(0)), 1e-10)
        ks = np.arange(len(got))
        assert got.support.tolist() == (ks * 10**6).tolist()
        want = math.exp(-0.5) * 0.5**ks / np.array([math.factorial(k) for k in ks])
        assert tv_norm(got - from_entries(zip(ks * 10**6, want))) <= got.error_budget


class TestNorms:
    def test_tv_probability(self):
        assert tv_norm(F) == 1.0
        assert tv_norm(G) == 1.0

    def test_tv_fixture_difference(self):
        # |.375-.45| + |.5-.25| + |0-.25| + |.125-0| + |0-.05|
        assert tv_norm(F - G) == pytest.approx(0.75, abs=1e-15)

    def test_tv_step(self):
        assert tv_norm(delta(1) - delta(0)) == 2.0

    def test_kolmogorov_zero_on_equal(self):
        assert kolmogorov_norm(F - F) == 0.0

    def test_kolmogorov_fixture_difference(self):
        # prefix sums of F-G: -.075, .175, -.075, -.075, .05, 0
        assert kolmogorov_norm(F - G) == pytest.approx(0.175, abs=1e-15)

    @given(measures(signed=True))
    @settings(max_examples=60, deadline=None)
    def test_kolmogorov_below_tv(self, m):
        assert kolmogorov_norm(m) <= tv_norm(m) + 1e-12


class TestCharFn:
    def test_at_zero(self):
        assert char_fn(F, 0.0, 0.0, 0) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_fixture_at_pi(self):
        # .375 - .5 + .125 = 0 (atom at 4 lands on +1)
        assert abs(char_fn(F, math.pi, 0.0, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_derivative_finite_difference(self):
        t, h, center = 0.7, 1e-6, 1.0
        fd = (char_fn(F, t + h, center, 0) - char_fn(F, t - h, center, 0)) / (2 * h)
        an = char_fn(F, t, center, 1)
        assert abs(fd - an) <= 1e-6 * (1 + abs(an))

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            char_fn(F, 1.0, 0.0, 2)


    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-6, max_value=9),
                st.floats(min_value=-1.0, max_value=1.0),
            ),
            min_size=0,
            max_size=7,
            unique_by=lambda pair: pair[0],
        ),
        st.one_of(
            st.floats(min_value=-4.0, max_value=4.0),
            st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=5),
        ),
        st.floats(min_value=-5.0, max_value=5.0),
        st.sampled_from([0, 1]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_direct_sum(self, pairs, t, center, order):
        m = from_entries(pairs)
        t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
        got = np.atleast_1d(char_fn(m, t, center, order))
        shifts = [k - center for k in m.support.tolist()]
        for tj, value in zip(t_arr.tolist(), got.tolist()):
            want = sum(
                mk * (1j * sk) ** order * complex(math.cos(tj * sk), math.sin(tj * sk))
                for sk, mk in zip(shifts, m.masses.tolist())
            )
            reach = max((abs(sk) for sk in shifts), default=0.0)
            assert abs(value - want) <= 1e-13 * m.tv * (1.0 + abs(tj) * reach)

    def test_scalar_t_gives_python_complex(self):
        for order in (0, 1):
            for t in (0.7, np.float64(0.7), np.array(0.7)):
                assert type(char_fn(F, t, 1.0, order)) is complex
        assert char_fn(F, np.array([0.1, 0.2]), 0.0, 1).shape == (2,)


def _reference_canonical(support, masses, budget):
    """The algebra's former route: concatenated input, stable argsort,
    np.unique / np.add.at merge, then the trim."""
    support = np.asarray(support, dtype=np.int64).ravel()
    masses = np.asarray(masses, dtype=np.float64).ravel()
    if support.size:
        order = np.argsort(support, kind="stable")
        support = support[order]
        masses = masses[order]
        if support.size > 1 and np.any(support[1:] == support[:-1]):
            uniq, inverse = np.unique(support, return_inverse=True)
            merged = np.zeros(uniq.size, dtype=np.float64)
            np.add.at(merged, inverse, masses)
            support, masses = uniq, merged
        tv = float(np.abs(masses).sum())
        keep = (np.abs(masses) >= TRIM_RELATIVE * tv) & (masses != 0.0)
        if not np.all(keep):
            budget += float(np.abs(masses[~keep]).sum())
            support = support[keep]
            masses = masses[keep]
    return LatticeMeasure(support, masses, budget)


def _reference_mul(c, a):
    c = float(c)
    return _reference_canonical(a.support, a.masses * c, abs(c) * a.error_budget)


def _reference_add(a, b):
    return _reference_canonical(
        np.concatenate([a.support, b.support]),
        np.concatenate([a.masses, b.masses]),
        a.error_budget + b.error_budget,
    )


def _reference_sub(a, b):
    return _reference_add(a, _reference_mul(-1.0, b))


def _assert_same_bits(got, want):
    assert got.support.tobytes() == want.support.tobytes()
    assert got.masses.tobytes() == want.masses.tobytes()
    assert got.error_budget == want.error_budget


# Stored zeros of both signs, masses below TRIM_RELATIVE beside 1.0, and
# masses that only cancel exactly against a copy of themselves.
_RAW_MASSES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-18, -1e-18, 0.1, 0.2, 0.3]),
    st.floats(min_value=-2.0, max_value=2.0, allow_subnormal=True),
)


@st.composite
def _raw_measures(draw, points=st.integers(min_value=-6, max_value=6)):
    """Measures built by hand, as mb_pmf builds them: any stored masses."""
    support = sorted(draw(st.sets(points, max_size=8)))
    masses = draw(st.lists(_RAW_MASSES, min_size=len(support), max_size=len(support)))
    budget = draw(st.sampled_from([0.0, 1e-15, 0.25]))
    return LatticeMeasure(np.array(support, dtype=np.int64), np.array(masses), budget)


@st.composite
def _raw_pairs(draw):
    kind = draw(st.sampled_from(["any", "identical", "disjoint", "empty"]))
    if kind == "disjoint":
        a = draw(_raw_measures(st.integers(min_value=-6, max_value=-1)))
        b = draw(_raw_measures(st.integers(min_value=0, max_value=6)))
    else:
        a = draw(_raw_measures())
        b = draw(_raw_measures())
    if kind == "identical":
        b = LatticeMeasure(a.support, draw(st.permutations(a.masses.tolist())))
    elif kind == "empty":
        b = LatticeMeasure(np.array([], dtype=np.int64), np.array([]), b.error_budget)
    if draw(st.booleans()):
        a, b = b, a
    return a, b


class TestSortFreeAlgebra:
    """The merge-by-searchsorted sum and the sort-skipping canonical form
    land on the same bits as the former sort-and-merge route."""

    @given(_raw_pairs())
    @settings(max_examples=300, deadline=None)
    def test_add(self, pair):
        a, b = pair
        _assert_same_bits(a + b, _reference_add(a, b))

    @given(_raw_pairs())
    @settings(max_examples=300, deadline=None)
    def test_sub(self, pair):
        a, b = pair
        _assert_same_bits(a - b, _reference_sub(a, b))

    @given(
        _raw_measures(),
        st.sampled_from([0.0, -1.0, 2.5, np.float64(-0.75), 3, 1e-300]),
    )
    @settings(max_examples=200, deadline=None)
    def test_scalar_multiple(self, a, c):
        _assert_same_bits(c * a, _reference_mul(c, a))
        _assert_same_bits(a * c, _reference_mul(c, a))

    @given(_raw_measures())
    @settings(max_examples=100, deadline=None)
    def test_neg(self, a):
        _assert_same_bits(-a, _reference_mul(-1.0, a))

    def test_mb_pmf_minus_din(self):
        # The chain's law, laid on 0..n with its trimmed tails stored as 0.0,
        # keeps masses far below TRIM_RELATIVE * tv; a - b trims -b against
        # b's own tv before the sum, which a direct subtraction would not.
        params = MBParams(0.3, 0.02, 2000)
        band = mb_pmf(params)
        masses = np.zeros(params.n + 1)
        masses[band.support] = band.masses
        chain = LatticeMeasure(np.arange(params.n + 1), masses, band.error_budget)
        _, din = build_din(params)
        assert (chain.masses == 0.0).any()
        tiny = (0.0 < chain.masses) & (chain.masses < TRIM_RELATIVE * chain.tv)
        assert tiny.any()
        _assert_same_bits(chain - din, _reference_sub(chain, din))
        _assert_same_bits(din - chain, _reference_sub(din, chain))

    @given(
        st.lists(st.integers(min_value=-20, max_value=20), max_size=12),
        st.lists(st.integers(min_value=-20, max_value=20), max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_sorted_union_matches_union1d(self, x, y):
        x = np.array(x, dtype=np.int64)
        y = np.array(y, dtype=np.int64)
        got = _sorted_union(x, y)
        want = np.union1d(x, y)
        assert got.dtype == np.int64
        assert got.tobytes() == want.astype(np.int64).tobytes()


def _assert_layout(m):
    """A measure as ``LatticeMeasure._owned`` trusts it to be: int64 and
    float64 1-d arrays of one length, the support strictly increasing."""
    assert m.support.dtype == np.int64 and m.masses.dtype == np.float64
    assert m.support.ndim == m.masses.ndim == 1
    assert m.support.size == m.masses.size
    assert (m.support[1:] > m.support[:-1]).all()


# Stored zeros, subnormals and normal masses, nonnegative ones for laws.
_LAW_MASSES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 1e-18, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_subnormal=True),
)


@st.composite
def _raw_laws(draw):
    """Probability measures on [-8, 8] built by hand, stored zeros kept."""
    points = st.sets(st.integers(min_value=-8, max_value=8), min_size=1, max_size=8)
    support = sorted(draw(points))
    size = len(support)
    masses = np.array(draw(st.lists(_LAW_MASSES, min_size=size, max_size=size)))
    if masses.sum() == 0.0:
        masses[0] = 1.0
    return LatticeMeasure(np.array(support, dtype=np.int64), masses / masses.sum())


_ANY_MEASURES = st.one_of(
    _raw_laws(), _raw_measures(st.integers(min_value=-8, max_value=8))
)


def _reference_power(a, n):
    """The binary loop ``power`` ran on its own: squares built as needed,
    the set-bit squares multiplied in lowest bit first."""
    result = None
    base = a
    while n:
        if n & 1:
            result = base if result is None else convolve(result, base)
        n >>= 1
        if n:
            base = convolve(base, base)
    return delta(0) if result is None else result


_EMPTY = LatticeMeasure(np.array([], dtype=np.int64), np.array([]), 1e-15)


class TestPowers:
    """``powers`` shares one chain of squares across its counts, and each
    power keeps the bits of its own binary loop."""

    @given(
        st.one_of(_ANY_MEASURES, st.sampled_from([F, G, _EMPTY])),
        st.lists(st.integers(min_value=0, max_value=40), max_size=6),
    )
    @example(F, [12, 0, 5, 12, 1, 0, 40])
    @example(_EMPTY, [3, 0, 3])
    @example(from_entries({0: -0.5, 2: 1.5}, error_budget=0.25), [7, 2, 7])
    @settings(max_examples=200, deadline=None)
    def test_matches_binary_loop(self, a, counts):
        got = powers(a, counts)
        assert len(got) == len(counts)
        for n, law in zip(counts, got):
            _assert_same_bits(law, _reference_power(a, n))
            _assert_same_bits(power(a, n), law)

    def test_squares_shared(self):
        with mock.patch.object(lattice, "convolve", wraps=convolve) as spy:
            powers(F, (8, 3, 16, 8))
        # Four squares up to F^16 and one product for F^3.
        assert spy.call_count == 5

    @pytest.mark.parametrize(
        "bad,message",
        [
            (-1, "convolution power requires n >= 0"),
            (True, "convolution power n must be an integer"),
            (2.7, "convolution power n must be an integer"),
            (np.float64(2.0), "convolution power n must be an integer"),
            ("3", "convolution power n must be an integer"),
        ],
    )
    def test_bad_count_raises_before_any_square(self, bad, message):
        with mock.patch.object(lattice, "convolve", wraps=convolve) as spy:
            with pytest.raises(ValueError, match=message):
                powers(F, (1024, 3, bad, 5))
            with pytest.raises(ValueError, match=message):
                power(F, bad)
        assert spy.call_count == 0


class TestResultLayout:
    """No operation's result is re-scanned for order when it is built, so
    every result keeps a strictly increasing support by construction."""

    @given(
        _ANY_MEASURES, _ANY_MEASURES, st.sampled_from([0.0, -1.0, 0.3, 1e-300, 7])
    )
    @settings(max_examples=200, deadline=None)
    def test_algebra(self, a, b, c):
        for out in (a + b, a - b, b - a, c * a, a * c, -b, convolve(a, b)):
            _assert_layout(out)

    @given(_ANY_MEASURES, st.integers(min_value=0, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_power_and_exp(self, a, n):
        _assert_layout(power(a, n))
        _assert_layout(exp_measure(a, tail_tol=1e-8))

    @given(
        st.floats(min_value=0.0, max_value=0.99),
        st.floats(min_value=1e-3, max_value=1.0),
        st.lists(
            st.integers(min_value=1, max_value=300), min_size=1, max_size=4, unique=True
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_mb_pmfs(self, p, q_bar, horizons):
        for law in mb_pmfs(p, q_bar, sorted(horizons)):
            _assert_layout(law)


class TestFactorialMoments:
    def test_fixture_matching(self):
        for k, want in ((1, 1.0), (2, 1.5), (3, 3.0)):
            assert factorial_moment(F, k, "plus") == pytest.approx(want, abs=1e-15)
            assert factorial_moment(G, k, "plus") == pytest.approx(want, abs=1e-15)

    def test_fourth_moment_sum(self):
        total = factorial_moment(F, 4, "plus") + factorial_moment(G, 4, "plus")
        assert total == pytest.approx(9.0, abs=1e-12)

    def test_minus_side_vanishes_on_nonnegative(self):
        assert factorial_moment(F, 1, "minus") == 0.0
        assert factorial_moment(G, 3, "minus") == 0.0

    def test_minus_side_mirrors(self):
        m = from_entries({-2: 0.5, 1: 0.5})
        # sum over m >= k of m(m-1)...(m-k+1) * mass(-m)
        assert factorial_moment(m, 1, "minus") == pytest.approx(1.0, abs=1e-15)
        assert factorial_moment(m, 2, "minus") == pytest.approx(1.0, abs=1e-15)


def _factorial_moment_per_order(f, k, side):
    """factorial_moment as one loop per order, kept verbatim from before
    the one-pass routine as its oracle."""
    if side == "plus":
        sel = f.support >= k
        pts = f.support[sel].astype(np.float64)
    else:
        sel = f.support <= -k
        pts = (-f.support[sel]).astype(np.float64)
    weights = np.ones_like(pts)
    for j in range(k):
        weights *= pts - j
    return float(weights @ f.masses[sel])


@st.composite
def stored_measures(draw):
    """Signed measures built without the trim, so stored 0.0 masses stay:
    one to 64 points in a window from [-1, 1] to [-80, 80].  Dots of more
    than a few dozen terms are summed in several lanes, so a stray zero
    term there would show in the bits."""
    size = draw(st.integers(min_value=1, max_value=64))
    reach = draw(st.integers(min_value=(size + 1) // 2, max_value=80))
    points = draw(
        st.lists(
            st.integers(min_value=-reach, max_value=reach),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    masses = draw(
        st.lists(
            st.just(0.0) | st.floats(min_value=-1.0, max_value=1.0),
            min_size=len(points),
            max_size=len(points),
        )
    )
    return LatticeMeasure(np.array(sorted(points)), np.array(masses))


class TestOnePassFactorialMoments:
    @given(stored_measures(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_order_loop(self, m, s):
        for side in ("plus", "minus"):
            want = [_factorial_moment_per_order(m, k, side) for k in range(1, s + 3)]
            assert _factorial_moments(m, s + 2, side) == want
            for k in range(1, s + 3):
                assert factorial_moment(m, k, side) == want[k - 1]
                reach = m.support if side == "plus" else -m.support
                if not (reach >= k).any():
                    assert want[k - 1] == 0.0

    def test_orders_past_the_support_read_zero(self):
        m = LatticeMeasure(np.array([-2, 0, 1]), np.array([0.25, 0.0, 0.75]))
        assert _factorial_moments(m, 4, "plus") == [0.75, 0.0, 0.0, 0.0]
        assert _factorial_moments(m, 4, "minus") == [0.5, 0.5, 0.0, 0.0]
        assert _factorial_moments(delta(3), 5, "plus") == [3.0, 6.0, 6.0, 0.0, 0.0]


class TestSmoothness:
    def test_fixture_pair_value(self):
        assert smoothness_u(F, G) == pytest.approx(0.375, abs=1e-15)

    def test_point_mass_has_no_overlap(self):
        assert smoothness_u(delta(0)) == 0.0

    @given(measures())
    @settings(max_examples=60, deadline=None)
    def test_dual_routes_agree(self, f):
        direct = 1.0 - 0.5 * tv_norm(convolve(f, delta(1) - delta(0)))
        assert abs(smoothness_u(f) - direct) <= 1e-12


class TestConcentration:
    def test_point_mass(self):
        assert concentration(delta(0), 0.0) == 1.0
        assert concentration(delta(0), 5.0) == 1.0

    def test_fixture_window(self):
        assert concentration(F, 1.0) == pytest.approx(0.875, abs=1e-15)

    def test_half_window_isolates(self):
        assert concentration(BERN_HALF, 0.5) == pytest.approx(0.5, abs=1e-15)

    @given(measures(), st.floats(min_value=0.0, max_value=6.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_h(self, f, h):
        assert concentration(f, h) <= concentration(f, h + 1.0) + 1e-15


class TestMoments:
    def test_point(self):
        s = moments(delta(3))
        assert (s.mean, s.variance) == (3.0, 0.0)

    def test_fixture(self):
        s = moments(F)
        assert s.mean == pytest.approx(1.0, abs=1e-15)
        assert s.variance == pytest.approx(1.5, abs=1e-15)

    def test_bernoulli(self):
        for p in (0.2, 0.5, 0.9):
            s = moments(from_entries({0: 1 - p, 1: p}))
            assert s.mean == pytest.approx(p, abs=1e-15)
            assert s.variance == pytest.approx(p * (1 - p), abs=1e-14)

    def test_signed_moments_linear(self):
        m = (delta(2) - delta(1)) * 0.5
        s = signed_moments(m)
        assert s.mean == pytest.approx(0.5, abs=1e-15)

    def test_rejects_non_probability(self):
        with pytest.raises(ValueError):
            moments(delta(1) - delta(0))
