"""Weighted-measure tests: laws placed on one weight, block-sum laws and the
Kolmogorov distance.  Measures are built from one law per weight with
``WeightedMeasure(basis, factors)`` or as block sums with
``weighted_sum_distribution``."""

import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsumdist import weighted
from wsumdist.harness import EXAMPLE_F, EXAMPLE_G
from wsumdist.lattice import (
    LatticeMeasure,
    char_fn,
    convolve,
    delta,
    from_entries,
    _sorted_union,
    kolmogorov_norm,
    power,
    tv_norm,
)
from wsumdist.weighted import (
    SUPPORT_LIMIT,
    ResourceLimitError,
    WeightBasis,
    WeightedMeasure,
    _laid_on,
    weighted_sum_distribution,
    wkolmogorov_distance,
)

F = from_entries({0: 0.375, 1: 0.5, 4: 0.125})
G = from_entries({0: 0.45, 1: 0.25, 2: 0.25, 5: 0.05})
SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
BASIS = WeightBasis((1.0, SQRT2))

# Frozen by an exhaustive-enumeration oracle (verify_frozen_constant below).
N4_DISTANCE = 0.05078889624023434


def _enumeration_distance(f, g, sizes, weights):
    """CDF distance via brute-force outcome enumeration, no library calls.

    Outcomes are keyed by their exact value: ``weights`` are the exact
    numbers the float weights stand for (Fraction(1, 10) for 0.1), so
    outcomes share a location only when their exact sums are equal."""
    per_block_f = [power(f, n).as_dict() for n in sizes]
    per_block_g = [power(g, n).as_dict() for n in sizes]

    def atoms(block_maps):
        out = {}
        for combo in itertools.product(*(m.items() for m in block_maps)):
            value = sum(Fraction(w) * k for w, (k, _) in zip(weights, combo))
            mass = math.prod(m for _, m in combo)
            out[value] = out.get(value, 0.0) + mass
        return out

    fa, ga = atoms(per_block_f), atoms(per_block_g)
    grid = sorted(set(fa) | set(ga))
    cdf_f = np.cumsum([fa.get(x, 0.0) for x in grid])
    cdf_g = np.cumsum([ga.get(x, 0.0) for x in grid])
    return float(np.max(np.abs(cdf_f - cdf_g)))


# A weight 1e-9 off a commensurable one: its values lie 1e-9 and more apart
# where (1, 1.5) ties them.
NEAR_3_2 = Fraction(1.5 + 1e-9)

# Bases for the random-law properties: one to three weights, with repeated
# and commensurable ones whose value grids collapse onto shared points.
# Each weight is the exact number the float weight stands for: decimal and
# third weights tie only in exact arithmetic, as their float sums round
# apart, and the float value itself for irrational and near-rational ones.
PROPERTY_BASES = (
    (1,),
    (Fraction(SQRT2),),
    (1, 2),
    (1, Fraction(SQRT2)),
    (Fraction(SQRT2), Fraction(SQRT2)),
    (1, Fraction(SQRT2), Fraction(SQRT3)),
    (1, 2, 3),
    (Fraction(SQRT2), 1, Fraction(SQRT2)),
    (1, Fraction(1, 10)),
    (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10)),
    (1, Fraction(1, 3)),
    (1, NEAR_3_2),
)


@st.composite
def probability_laws(draw):
    """A probability law on up to three points of 0..4, masses in ninths."""
    points = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
    counts = draw(st.lists(st.integers(1, 9), min_size=len(points), max_size=len(points)))
    total = sum(counts)
    return from_entries({k: c / total for k, c in zip(points, counts)})


@st.composite
def weighted_pairs(draw):
    """Two laws, a basis and one block size in 1..3 per weight."""
    weights = draw(st.sampled_from(PROPERTY_BASES))
    sizes = tuple(draw(st.integers(1, 3)) for _ in weights)
    return draw(probability_laws()), draw(probability_laws()), weights, sizes


def _atoms(m):
    """Real atom values and masses of a weighted measure, in lexicographic
    order of the factor supports, with products that are exactly 0.0
    dropped: the outer-product build the measure once cached itself."""
    values = np.zeros(1)
    masses = np.ones(1)
    for f, w in zip(m.factors, m.basis.weights):
        values = np.add.outer(values, f.support * w).ravel()
        masses = np.multiply.outer(masses, f.masses).ravel()
    keep = masses != 0.0
    return values[keep], masses[keep]


def _unions(a, b):
    """Per weight, the union of both laws' supports where they carry
    nonzero mass: the distance's box is their product."""
    return [
        _sorted_union(f.support[f.masses != 0.0], g.support[g.masses != 0.0])
        for f, g in zip(a.factors, b.factors)
    ]


def _merge_tol(a, b):
    """The distance's merge tolerance, 4 N eps M with
    M = sum_i max |k_i| w_i over the box: twice the rounding error between
    two values with equal exact sums."""
    unions = _unions(a, b)
    magnitude = sum(
        np.abs(union).max() * w for union, w in zip(unions, a.basis.weights)
    )
    return 4 * len(unions) * np.finfo(float).eps * magnitude


def _clustered_distance(a, b):
    """Kolmogorov distance over both measures' own atoms: concatenate them,
    argsort, cluster by consecutive gaps, and sum each side per cluster."""
    (values_a, masses_a), (values_b, masses_b) = _atoms(a), _atoms(b)
    values = np.concatenate([values_a, values_b])
    if values.size == 0:
        return 0.0
    masses = np.concatenate([masses_a, masses_b])
    from_a = np.concatenate(
        [np.ones(masses_a.size, dtype=bool), np.zeros(masses_b.size, dtype=bool)]
    )
    order = np.argsort(values, kind="stable")
    values, masses, from_a = values[order], masses[order], from_a[order]
    tol = _merge_tol(a, b)
    cluster_id = np.concatenate([[0], np.cumsum(values[1:] - values[:-1] > tol)])
    clusters = int(cluster_id[-1]) + 1
    cdf_a = np.cumsum(
        np.bincount(cluster_id[from_a], weights=masses[from_a], minlength=clusters)
    )
    cdf_b = np.cumsum(
        np.bincount(cluster_id[~from_a], weights=masses[~from_a], minlength=clusters)
    )
    return float(np.max(np.abs(cdf_a - cdf_b)))


def _out_of_place_distance(a, b):
    """The distance body before it reused buffers, with the box-sized real
    points it once built, verbatim but for the merge tolerance, which it
    reads from _merge_tol: every step allocates its own box-sized array."""
    unions = _unions(a, b)
    count = math.prod(union.size for union in unions)
    if count > SUPPORT_LIMIT:
        raise ResourceLimitError(
            f"weighted support would range over {count} lattice points "
            f"(limit {SUPPORT_LIMIT})"
        )
    values, mass_a, mass_b = np.zeros(1), np.ones(1), np.ones(1)
    for union, w, f, g in zip(unions, a.basis.weights, a.factors, b.factors):
        values = np.add.outer(values, union * w).ravel()
        mass_a = np.multiply.outer(mass_a, _laid_on(union, f)).ravel()
        mass_b = np.multiply.outer(mass_b, _laid_on(union, g)).ravel()
    # In place: one box-sized temporary fewer at the distance's memory peak.
    keep = mass_a != 0.0
    keep |= mass_b != 0.0
    if not keep.all():
        # One at a time, so each unfiltered array is freed before the next copy.
        values = values[keep]
        mass_a = mass_a[keep]
        mass_b = mass_b[keep]
    if values.size == 0:
        return 0.0
    order = np.argsort(values, kind="stable")
    values = values[order]
    tol = _merge_tol(a, b)
    ends = np.flatnonzero(np.append(np.diff(values) > tol, True))
    cdf_a = np.cumsum(mass_a[order])[ends]
    cdf_b = np.cumsum(mass_b[order])[ends]
    return float(np.max(np.abs(cdf_a - cdf_b)))


def _box_size(a, b):
    """Lattice points in the distance's box: the product of the per-weight
    unions of both laws' supports where they carry nonzero mass."""
    return math.prod(union.size for union in _unions(a, b))


# Bases whose weight ratios are pairwise irrational: on small supports no two
# lattice points share a CDF location, so both routes add the same masses in
# the same order.
IRRATIONAL_BASES = ((1.0,), (SQRT2,), (1.0, SQRT2), (1.0, SQRT2, SQRT3))
# Bases with exact ties, where a location can hold several atoms of one side.
TIED_BASES = ((1.0, 2.0), (SQRT2, SQRT2), (SQRT2, 1.0, SQRT2), (1.0, 2.0, 3.0))

# Stored zeros as in mb_pmf's tail, and masses whose products underflow to 0.0.
SPECIAL_MASSES = (0.0, 0.0, 0.5, -0.25, 1.0, 1e-200, -3e-170)


@st.composite
def signed_laws(draw):
    """A signed law on up to four points of -2..4, stored zeros included."""
    points = sorted(draw(st.lists(st.integers(-2, 4), max_size=4, unique=True)))
    mass = st.one_of(
        st.sampled_from(SPECIAL_MASSES),
        st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
    )
    masses = draw(st.lists(mass, min_size=len(points), max_size=len(points)))
    return LatticeMeasure(np.array(points, dtype=np.int64), np.array(masses))


@st.composite
def signed_pairs(draw, bases):
    """Two weighted measures with one signed law per weight of a drawn basis."""
    basis = WeightBasis(draw(st.sampled_from(bases)))
    a = WeightedMeasure(basis, tuple(draw(signed_laws()) for _ in range(basis.size)))
    b = WeightedMeasure(basis, tuple(draw(signed_laws()) for _ in range(basis.size)))
    return a, b


def _block_sums(f, sizes, weights):
    basis = WeightBasis(weights)
    return weighted_sum_distribution(
        [(f, n, i + 1) for i, n in enumerate(sizes)], basis
    )


class TestBasis:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            WeightBasis((1.0, 0.0))

    @pytest.mark.parametrize("weights", [("0.5", 1.0), (1.0, True), (None,)])
    def test_weights_type_checked(self, weights):
        # float() would read "0.5" as 0.5 and True as 1.0.
        with pytest.raises(ValueError, match="weights must be real numbers"):
            WeightBasis(weights)

    def test_weights_stored_as_floats(self):
        basis = WeightBasis((1, np.float64(2.5)))
        assert basis.weights == (1.0, 2.5)
        assert all(type(w) is float for w in basis.weights)


class TestLift:
    """A law placed on one weight, with delta(0) on the others, is the
    law pushed forward by k -> w k."""

    def test_point_mass_position(self):
        values, masses = _atoms(WeightedMeasure(BASIS, (delta(0), delta(1))))
        assert masses.tolist() == [1.0]
        assert values[0] == pytest.approx(SQRT2, abs=1e-15)

    def test_preserves_tv(self):
        on_first = WeightedMeasure(BASIS, (F, delta(0)))
        on_second = WeightedMeasure(BASIS, (delta(0), F - G))
        assert np.abs(_atoms(on_first)[1]).sum() == tv_norm(F)
        assert np.abs(_atoms(on_second)[1]).sum() == tv_norm(F - G)

    def test_char_fn_scaling(self):
        # transform of the pushforward at t equals the lattice transform at w*t
        t = 1.0
        values, masses = _atoms(WeightedMeasure(BASIS, (delta(0), F)))
        direct = char_fn(F, SQRT2 * t, 0.0, 0)
        via_values = np.sum(masses * np.exp(1j * t * values))
        assert abs(via_values - direct) <= 1e-12


class TestWeightedMeasure:
    def test_budget_folds_like_lattice_convolution(self):
        a = from_entries({0: 0.25, 1: 0.75}, error_budget=1e-6)
        b = from_entries({0: -0.5, 2: 1.5}, error_budget=3e-7)
        out = WeightedMeasure(BASIS, (a, b))
        assert out.error_budget == convolve(a, b).error_budget


class TestWeightedSum:
    def test_single_binomial(self):
        basis = WeightBasis((1.0,))
        out = weighted_sum_distribution([(from_entries({0: 0.5, 1: 0.5}), 2, 1)], basis)
        values, masses = _atoms(out)
        got = dict(zip(values.tolist(), masses.tolist()))
        assert got == {0.0: 0.25, 1.0: 0.5, 2.0: 0.25}

    def test_scaled_point(self):
        basis = WeightBasis((2.0,))
        values, masses = _atoms(weighted_sum_distribution([(delta(1), 3, 1)], basis))
        assert values[0] == pytest.approx(6.0, abs=1e-15)
        assert masses[0] == 1.0

    def test_example_small_total_mass(self):
        out = weighted_sum_distribution([(F, 2, 1), (F, 2, 2)], BASIS)
        masses = _atoms(out)[1]
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(masses >= 0.0)
        assert all(f.is_probability for f in out.factors)

    def test_rejects_signed_component(self):
        with pytest.raises(ValueError):
            weighted_sum_distribution([(delta(1) - delta(0), 1, 1)], BASIS)

    @settings(max_examples=150, deadline=None)
    @given(
        weights=st.sampled_from([(1.0,), (1.0, SQRT2), (1.0, SQRT2, SQRT3)]),
        drawn=st.lists(
            st.tuples(probability_laws(), st.integers(1, 4), st.integers(1, 3)),
            min_size=1,
            max_size=5,
        ),
    )
    def test_factors_match_lift_wconvolve_fold(self, weights, drawn):
        # The reference places one power per component on its weight, with
        # delta(0) on the others, and folds the terms weight by weight with
        # lattice convolve.  The laws are from_entries-trimmed, so the
        # convolutions with delta(0) trim nothing and the factors agree bit
        # for bit.
        basis = WeightBasis(weights)
        components = [(f, n, (i - 1) % basis.size + 1) for f, n, i in drawn]
        want = None
        for f, n, index in components:
            term = [delta(0)] * basis.size
            term[index - 1] = power(f, n)
            want = term if want is None else list(map(convolve, want, term))
        want = WeightedMeasure(basis, tuple(want))
        got = weighted_sum_distribution(components, basis)
        assert got.error_budget == want.error_budget
        for mine, ref in zip(got.factors, want.factors, strict=True):
            assert np.array_equal(mine.support, ref.support)
            assert np.array_equal(mine.masses, ref.masses)
            assert mine.error_budget == ref.error_budget

    def test_index_out_of_range(self):
        with pytest.raises(IndexError, match="weight index 3 out of range 1..2"):
            weighted_sum_distribution([(F, 2, 1), (F, 1, 3)], BASIS)


class TestWKolmogorov:
    def test_self_distance(self):
        a = weighted_sum_distribution([(F, 2, 1), (F, 3, 2)], BASIS)
        assert wkolmogorov_distance(a, a) == 0.0

    def test_reduces_to_lattice_case(self):
        basis = WeightBasis((1.0,))
        a = WeightedMeasure(basis, (F,))
        b = WeightedMeasure(basis, (G,))
        assert wkolmogorov_distance(a, b) == pytest.approx(
            kolmogorov_norm(F - G), abs=1e-15
        )
        assert wkolmogorov_distance(a, b) == pytest.approx(0.175, abs=1e-15)

    def test_frozen_n4_regression(self):
        s_law = weighted_sum_distribution([(F, 2, 1), (F, 4, 2)], BASIS)
        z_law = weighted_sum_distribution([(G, 2, 1), (G, 4, 2)], BASIS)
        assert wkolmogorov_distance(s_law, z_law) == pytest.approx(
            N4_DISTANCE, abs=1e-13
        )

    def test_verify_frozen_constant(self):
        got = _enumeration_distance(F, G, (2, 4), (1.0, SQRT2))
        assert got == pytest.approx(N4_DISTANCE, abs=1e-11)

    def test_symmetry(self):
        a = weighted_sum_distribution([(F, 2, 1), (F, 2, 2)], BASIS)
        b = weighted_sum_distribution([(G, 2, 1), (G, 2, 2)], BASIS)
        assert wkolmogorov_distance(a, b) == wkolmogorov_distance(b, a)

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_triangle_inequality(self, n1, n2):
        h = from_entries({0: 0.6, 2: 0.4})
        a = weighted_sum_distribution([(F, n1, 1), (F, n2, 2)], BASIS)
        b = weighted_sum_distribution([(G, n1, 1), (G, n2, 2)], BASIS)
        c = weighted_sum_distribution([(h, n1, 1), (h, n2, 2)], BASIS)
        ab = wkolmogorov_distance(a, b)
        ac = wkolmogorov_distance(a, c)
        cb = wkolmogorov_distance(c, b)
        assert ab <= ac + cb + 1e-12

    @given(weighted_pairs())
    @example((from_entries({0: 0.45, 1: 0.35, 4: 0.2}), delta(1), (1, NEAR_3_2), (1, 2)))
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration_oracle(self, case):
        # the example's points 4 and 1 + 2 (1.5 + 1e-9) lie 2e-9 apart, where
        # a tolerance that grows with the values, such as 1e-9 (1 + max |v|),
        # merges them
        f, g, weights, sizes = case
        got = wkolmogorov_distance(
            _block_sums(f, sizes, weights), _block_sums(g, sizes, weights)
        )
        want = _enumeration_distance(f, g, sizes, weights)
        assert abs(got - want) <= 1e-12

    @given(weighted_pairs())
    @settings(max_examples=60, deadline=None)
    def test_exactly_symmetric(self, case):
        f, g, weights, sizes = case
        a = _block_sums(f, sizes, weights)
        b = _block_sums(g, sizes, weights)
        assert wkolmogorov_distance(a, b) == wkolmogorov_distance(b, a)

    @given(weighted_pairs(), st.integers(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_common_power_of_two(self, case, exponent):
        f, g, weights, sizes = case
        scaled = tuple(math.ldexp(w, exponent) for w in weights)
        base = wkolmogorov_distance(
            _block_sums(f, sizes, weights), _block_sums(g, sizes, weights)
        )
        moved = wkolmogorov_distance(
            _block_sums(f, sizes, scaled), _block_sums(g, sizes, scaled)
        )
        assert abs(base - moved) <= 1e-12

    @given(
        probability_laws(),
        probability_laws(),
        st.integers(1, 3),
        st.sampled_from((1.0, SQRT2, 0.5)),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_weight_is_lattice_norm(self, f, g, n, weight):
        got = wkolmogorov_distance(
            _block_sums(f, (n,), (weight,)), _block_sums(g, (n,), (weight,))
        )
        want = kolmogorov_norm(power(f, n) - power(g, n))
        assert abs(got - want) <= 1e-12

    def test_commensurable_weights_merge(self):
        # with weights (1, 2) the value grid collapses onto integers
        basis = WeightBasis((1.0, 2.0))
        a = WeightedMeasure(basis, (delta(2), delta(0)))
        b = WeightedMeasure(basis, (delta(0), delta(1)))
        assert wkolmogorov_distance(a, b) == 0.0


class TestUnionRoute:
    """The union-sort distance against the clustered route over each
    measure's own atoms, kept here as the reference."""

    @given(signed_pairs(IRRATIONAL_BASES))
    @settings(max_examples=150, deadline=None)
    def test_equals_clustered_route(self, pair):
        a, b = pair
        assert wkolmogorov_distance(a, b) == _clustered_distance(a, b)

    @given(signed_pairs(TIED_BASES))
    @settings(max_examples=150, deadline=None)
    def test_matches_clustered_route_with_ties(self, pair):
        # ties are accumulated atom by atom, not per cluster: the last bit may move
        a, b = pair
        assert abs(wkolmogorov_distance(a, b) - _clustered_distance(a, b)) <= 1e-12

    @given(signed_pairs(IRRATIONAL_BASES + TIED_BASES))
    @settings(max_examples=100, deadline=None)
    def test_exactly_symmetric(self, pair):
        a, b = pair
        assert wkolmogorov_distance(a, b) == wkolmogorov_distance(b, a)

    @given(signed_pairs(IRRATIONAL_BASES + TIED_BASES))
    @settings(max_examples=150, deadline=None)
    def test_equals_out_of_place_body(self, pair):
        # the buffer reuse keeps every operation, so ties match bit for bit too
        a, b = pair
        assert wkolmogorov_distance(a, b) == _out_of_place_distance(a, b)

    @pytest.mark.parametrize("other", [0.25, 0.0])
    def test_one_point_box(self, other):
        # np.diff is empty, so the one point is the only cluster end; with
        # other = 0.0 the point is a's alone
        a = _measure(BASIS.weights, ([2], [0.75]), ([0], [1.0]))
        b = _measure(BASIS.weights, ([2], [other]), ([0], [1.0]))
        assert _box_size(a, b) == 1
        assert wkolmogorov_distance(a, b) == 0.75 - other
        assert wkolmogorov_distance(a, b) == _clustered_distance(a, b)

    def test_most_negative_value_sets_tolerance(self):
        # |-10**6| sets tol near 1.8e-9, far below 5e-4: a's 0 and b's 5e-4
        # stay distinct, so a's CDF reaches 1 before b's rises from 0
        basis = WeightBasis((1.0, 5e-4))
        a = WeightedMeasure(basis, (from_entries({-(10**6): 0.5, 0: 0.5}), delta(0)))
        b = WeightedMeasure(basis, (delta(0), delta(1)))
        assert wkolmogorov_distance(a, b) == 1.0
        assert wkolmogorov_distance(a, b) == _clustered_distance(a, b)
        # on (0.1, 0.3), (-10**6 + 3) * 0.1 and -10**6 * 0.1 + 0.3 round
        # 1.5e-11 apart, within the tol near 1.8e-10 that |-10**6| sets
        basis = WeightBasis((0.1, 0.3))
        a = WeightedMeasure(basis, (delta(-(10**6) + 3), delta(0)))
        b = WeightedMeasure(basis, (delta(-(10**6)), delta(1)))
        assert wkolmogorov_distance(a, b) == 0.0
        assert wkolmogorov_distance(a, b) == _clustered_distance(a, b)

    def test_largest_value_sets_tolerance(self):
        # 10**6 sets tol near 1.8e-9, so a's 5e-4 and b's 0 stay distinct,
        # and a's 10**6 + 5e-4 and b's 10**6 too
        basis = WeightBasis((1.0, 5e-4))
        laws = from_entries({0: 0.5, 10**6: 0.5})
        a = WeightedMeasure(basis, (laws, delta(1)))
        b = WeightedMeasure(basis, (laws, delta(0)))
        assert wkolmogorov_distance(a, b) == 0.5
        assert wkolmogorov_distance(a, b) == _clustered_distance(a, b)
        # on (0.1, 0.3), (10**6 + 5) * 0.1 and (10**6 + 2) * 0.1 + 0.3
        # round 1.5e-11 apart, within the tol near 1.8e-10 that 10**6 sets
        basis = WeightBasis((0.1, 0.3))
        a = WeightedMeasure(basis, (delta(10**6 + 5), delta(0)))
        b = WeightedMeasure(basis, (delta(10**6 + 2), delta(1)))
        assert wkolmogorov_distance(a, b) == 0.0
        assert wkolmogorov_distance(a, b) == _clustered_distance(a, b)

    def test_tied_box_keeps_box_order(self):
        # 144 points on 34 integer values: ties are accumulated in box
        # order, which a sort that is not stable would change in the last bit
        k = np.arange(12)
        a = _measure((1.0, 2.0), (k, (k % 7 + 1) / 10.0), (k, (k % 5 + 1) / 3.0))
        b = _measure((1.0, 2.0), (k, (k % 3 + 1) / 7.0), (k, (k % 4 + 1) / 9.0))
        assert wkolmogorov_distance(a, b) == _out_of_place_distance(a, b)

    def test_filtered_box(self):
        # a's product at (0, 0) underflows to 0.0 where b has no atom, and
        # (3, 0) carries nothing: 4 of the 3 x 2 box points are kept
        a = WeightedMeasure(
            BASIS,
            (
                LatticeMeasure(np.array([0, 7]), np.array([1e-170, 0.5])),
                LatticeMeasure(np.array([0, 1]), np.array([1e-170, 0.5])),
            ),
        )
        b = WeightedMeasure(BASIS, (from_entries({0: 0.5, 3: 0.5}), from_entries({1: 1.0})))
        assert _box_size(a, b) == 3 * 2
        assert wkolmogorov_distance(a, b) == _clustered_distance(a, b)
        assert wkolmogorov_distance(a, b) == _out_of_place_distance(a, b)

    def test_all_zero_factor(self):
        zero = LatticeMeasure(np.array([0, 3]), np.array([0.0, 0.0]))
        a = WeightedMeasure(BASIS, (F, zero))
        b = WeightedMeasure(BASIS, (zero, G))
        assert wkolmogorov_distance(a, b) == 0.0
        g_only = WeightedMeasure(BASIS, (G, delta(0)))
        assert wkolmogorov_distance(a, g_only) == _clustered_distance(a, g_only)

    def test_underflowed_products_are_dropped(self):
        # every product of a underflows to 0.0, so its points are dropped;
        # its far point 10**9 still sets the merge tolerance, near 1e-6,
        # which must stay below the gaps between b's atoms
        tiny = LatticeMeasure(np.array([0, 10**9]), np.array([1e-170, 1e-170]))
        a = WeightedMeasure(BASIS, (tiny, from_entries({0: 1e-170})))
        b = WeightedMeasure(BASIS, (F - G, G))
        nothing = LatticeMeasure(np.array([]), np.array([]))
        empty = WeightedMeasure(BASIS, (nothing, delta(0)))
        assert wkolmogorov_distance(a, b) == wkolmogorov_distance(empty, b)
        assert wkolmogorov_distance(a, b) == _clustered_distance(a, b)

    def test_disjoint_supports(self):
        a = WeightedMeasure(BASIS, (F, F))
        b = WeightedMeasure(BASIS, (delta(10), delta(10)))
        assert wkolmogorov_distance(a, b) == pytest.approx(1.0, abs=1e-15)
        assert wkolmogorov_distance(a, b) == _clustered_distance(a, b)

    def test_basis_mismatch(self):
        other = WeightBasis((1.0, 2.0))
        with pytest.raises(ValueError):
            wkolmogorov_distance(
                WeightedMeasure(BASIS, (F, delta(0))), WeightedMeasure(other, (F, delta(0)))
            )

    def test_box_past_limit_raises(self):
        # 4001 atoms per operand, but the union box holds 4001 ** 2 points
        wide = from_entries({k: 1.0 / 4001 for k in range(4001)})
        a = WeightedMeasure(BASIS, (wide, delta(0)))
        b = WeightedMeasure(BASIS, (delta(0), wide))
        with pytest.raises(ResourceLimitError):
            wkolmogorov_distance(a, b)


def _measure(basis, *laws):
    """A weighted measure from one (points, masses) pair per weight."""
    return WeightedMeasure(
        WeightBasis(basis),
        tuple(LatticeMeasure(np.array(k, dtype=np.int64), np.array(m)) for k, m in laws),
    )


# Small boxes that put each seam case under blocks of 1, 2, 3 and 7 points.
SEAM_CASES = {
    # box 3 x 2, sorted values 0, 1, 2, 2, 3, 4: the tie at 2 spans sorted
    # positions 2 and 3, across the seam of blocks of 1 and of 3
    "tie-across-seam": (
        _measure((1.0, 2.0), ([0, 1, 2], [0.25, 0.25, 0.5]), ([0, 1], [0.5, 0.5])),
        _measure((1.0, 2.0), ([0, 2], [0.5, 0.5]), ([0, 1], [0.75, 0.25])),
    ),
    # box 5 x 2: a stores zeros at 2 and 3, b at 1 and 4; a's 1e-200 *
    # 1e-170 underflows, so (1, 1), (2, 1) and (3, 1) are dropped mid-box
    # between rows 0 and 4, which are kept whole
    "dropped-mid-box": (
        _measure(
            (1.0, SQRT2),
            ([0, 1, 2, 3, 4], [0.5, 1e-200, 0.0, 0.0, 0.25]),
            ([0, 1], [0.5, 1e-170]),
        ),
        _measure(
            (1.0, SQRT2), ([0, 1, 2, 3, 4], [0.25, 0.0, 0.5, 0.25, 0.0]), ([0], [1.0])
        ),
    ),
    # box (2 x 3) x 2: each row spans the first two weights
    "three-weights": (
        _measure((1.0, SQRT2, SQRT3), ([0, 1], [0.5, 0.5]), ([0, 2], [0.25, 0.75]), ([1], [1.0])),
        _measure((1.0, SQRT2, SQRT3), ([1], [1.0]), ([0, 1, 2], [0.5, -0.25, 0.75]), ([0], [1.0])),
    ),
    # box (2 x 2) x 2 on weights (1, 2, 3): values 0, 3, 2, 5, 3, 6, 5, 8 in
    # box order, so the ties at 3 and 5 join points of different rows
    "three-weights-tied": (
        _measure((1.0, 2.0, 3.0), ([0, 3], [0.5, 0.5]), ([0, 1], [0.5, 0.5]), ([0, 1], [0.5, 0.5])),
        _measure((1.0, 2.0, 3.0), ([0, 3], [0.25, 0.75]), ([0], [1.0]), ([0, 1], [0.75, 0.25])),
    ),
    # box (2 x 2) x 2 on weights (1, 2, 1): the rows' values are 0, 2, 1, 3
    # in box order, so the tie at 2 joins row 1's first point and row 2's
    # second, which rows taken in value order would gather the other way
    # round; with these masses that order moves the last bit
    "rows-out-of-value-order": (
        _measure(
            (1.0, 2.0, 1.0),
            ([0, 1], [0.57, 0.58]),
            ([0, 1], [-0.89, -0.26]),
            ([0, 1], [-0.83, -0.61]),
        ),
        _measure((1.0, 2.0, 1.0), ([0, 1], [0.5, 0.5]), ([0], [1.0]), ([0], [1.0])),
    ),
    # box 3 x 2 where every product underflows to 0.0
    "all-dropped": (
        _measure((1.0, SQRT2), ([0, 5], [1e-200, -1e-200]), ([0], [1e-170])),
        _measure((1.0, SQRT2), ([1], [1e-190]), ([2], [1e-180])),
    ),
    "one-point": (
        _measure((1.0, SQRT2), ([2], [0.75]), ([0], [1.0])),
        _measure((1.0, SQRT2), ([2], [0.25]), ([0], [1.0])),
    ),
    # box 4 x 3: both laws' products underflow on rows 2 and 3 by columns 1
    # and 2, which hold the box's largest values, so the top slabs keep no
    # point under blocks of 1, 2 and 3 and the walk ends on empty slabs
    "underflowed-top": (
        _measure(
            (1.0, SQRT2),
            ([0, 1, 2, 3], [0.5, 0.5, 1e-200, 1e-200]),
            ([0, 1, 2], [0.5, 1e-170, 1e-170]),
        ),
        _measure(
            (1.0, SQRT2), ([0, 1, 3], [0.25, 0.75, 1e-190]), ([0, 2], [1.0, 1e-180])
        ),
    ),
    # box 3 x 2, values 0, 1, 2 and 20 * sqrt(2) + (0, 1, 2): the slabs
    # between the two groups are empty under blocks of 1 and 2
    "empty-interior": (
        _measure((1.0, SQRT2), ([0, 1, 2], [0.25, 0.5, 0.25]), ([0, 20], [0.5, 0.5])),
        _measure((1.0, SQRT2), ([0, 2], [0.5, 0.5]), ([0, 20], [0.25, 0.75])),
    ),
    # box 4 x 3 on weights (1, 2), values 0..12 with ties at 2, 4, 6 and 8:
    # the slab bounds are integers under every block tried, and a tie lies
    # on one (at 6 under blocks of 3 and 7, at each tie under 1 and 2)
    "tie-on-bound": (
        _measure((1.0, 2.0), ([0, 2, 4, 6], [0.25, 0.25, 0.25, 0.25]), ([0, 1, 3], [0.5, 0.25, 0.25])),
        _measure((1.0, 2.0), ([0, 4, 6], [0.5, 0.25, 0.25]), ([0, 1, 3], [0.25, 0.5, 0.25])),
    ),
    # box 3 x 2 on weights (0.1, 0.3): 3 * 0.1 rounds to 0.30000000000000004
    # and 1 * 0.3 to 0.3, a float tie of one exact value that the tolerance
    # merges; under blocks of 1 and 3 a slab bound lies between the two, so
    # that merge spans a seam
    "merge-across-seam": (
        _measure((0.1, 0.3), ([0, 1, 3], [0.5, 0.25, 0.25]), ([0], [1.0])),
        _measure((0.1, 0.3), ([0, 1], [1.0, 0.5]), ([0, 1], [0.5, 0.25])),
    ),
    # one weight: a single row of 7 columns, a stored zero included
    "one-weight": (
        _measure((SQRT2,), ([0, 1, 2, 3, 5, 6], [0.25, 0.0, 0.25, 0.125, 0.25, 0.125])),
        _measure((SQRT2,), ([1, 2, 4, 6], [0.5, 0.125, 0.25, 0.125])),
    ),
}


class TestBlockSeams:
    """The distance walks its box in slabs of value holding about
    weighted._BLOCK points each; tiny blocks put every seam case on a seam."""

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @pytest.mark.parametrize("case", sorted(SEAM_CASES))
    def test_seam_cases_equal_out_of_place_body(self, case, block):
        a, b = SEAM_CASES[case]
        with mock.patch.object(weighted, "_BLOCK", block):
            got = wkolmogorov_distance(a, b)
        assert got == _out_of_place_distance(a, b)
        if case == "all-dropped":
            assert _box_size(a, b) == 3 * 2
            assert got == 0.0
        if case == "one-point":
            assert _box_size(a, b) == 1
            assert got == 0.5
        if case == "tie-on-bound":
            # slabs from 0 to 12 in ceil(12 / block) equal steps
            assert _box_size(a, b) == 12
            slabs = -(-12 // block)
            assert 6 in {k * 12 / slabs for k in range(1, slabs)}
        if case == "one-weight":
            assert _box_size(a, b) == 7
        if case == "merge-across-seam":
            # kept apart, 0.3 and 3 * 0.1 would give 0.25
            assert got == 0.125

    @given(
        row_v=st.lists(st.integers(-30, 30), min_size=1, max_size=6),
        col_v=st.lists(st.integers(-30, 30), min_size=1, max_size=6),
        scales=st.sampled_from([(0.1, 0.3), (1.0, SQRT2), (SQRT3, 0.1), (0.7, 1e-3)]),
        pick=st.integers(0, 35),
        shift=st.sampled_from([-np.inf, 0.0, np.inf]),
    )
    @settings(max_examples=200, deadline=None)
    def test_cut_counts_row_points_below_bound(self, row_v, col_v, scales, pick, shift):
        # bounds on a sum or one ulp either side of it, where
        # searchsorted(col_v, bound - row_v) can land a column off
        row_v = np.array(row_v) * scales[0]
        col_v = np.sort(np.array(col_v) * scales[1])
        sums = np.add.outer(row_v, col_v)
        bound = np.nextafter(sums.ravel()[pick % sums.size], shift)
        got = weighted._cut(row_v, col_v, bound)
        assert got.tolist() == (sums < bound).sum(axis=1).tolist()

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @given(pair=signed_pairs(IRRATIONAL_BASES + TIED_BASES))
    @settings(max_examples=60, deadline=None)
    def test_equals_out_of_place_body(self, block, pair):
        a, b = pair
        with mock.patch.object(weighted, "_BLOCK", block):
            got = wkolmogorov_distance(a, b)
        assert got == _out_of_place_distance(a, b)


@st.composite
def thin_tailed_laws(draw, signed):
    """A law on 0..size-1 whose masses fall by a drawn ratio per point, so
    its upper tail is long and thin; signed laws flip drawn masses."""
    size = draw(st.integers(3, 8))
    ratio = draw(st.sampled_from((0.5, 0.125, 1e-3, 1e-9)))
    scales = draw(st.lists(st.floats(0.25, 1.0), min_size=size, max_size=size))
    masses = np.array(scales) * ratio ** np.arange(size)
    if signed:
        masses *= draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=size, max_size=size))
    return LatticeMeasure(np.arange(size), masses)


@st.composite
def thin_tailed_pairs(draw, signed):
    """Two weighted measures with one thin-tailed law per weight."""
    basis = WeightBasis(draw(st.sampled_from(IRRATIONAL_BASES + TIED_BASES)))
    laws = thin_tailed_laws(signed)
    a = WeightedMeasure(basis, tuple(draw(laws) for _ in range(basis.size)))
    b = WeightedMeasure(basis, tuple(draw(laws) for _ in range(basis.size)))
    return a, b


def _walk(a, b, block):
    """The distance under slabs of about ``block`` points, the number of
    slabs the box splits into, and the number the walk visited: _cut runs
    once per visited slab."""
    with mock.patch.object(weighted, "_BLOCK", block), mock.patch.object(
        weighted, "_cut", wraps=weighted._cut
    ) as cut:
        got = wkolmogorov_distance(a, b)
    return got, -(-_box_size(a, b) // block), cut.call_count


class TestEarlyExit:
    """The walk stops before the slabs whose mass cannot lift a gap over
    the peak found below them; the result must keep every bit."""

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @pytest.mark.parametrize("signed", [False, True])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_thin_tails_equal_out_of_place_body(self, block, signed, data):
        a, b = data.draw(thin_tailed_pairs(signed))
        got, slabs, walked = _walk(a, b, block)
        assert walked <= slabs
        assert got == _out_of_place_distance(a, b)

    def test_example_pair_stops_early(self):
        # run_example's n = 65536 pair: 316 x 4871 points in 94 slabs; the
        # peak gap lies in slab 42, and the signed mass left above stops
        # the walk after 66
        s_law = weighted_sum_distribution([(EXAMPLE_F, 256, 1), (EXAMPLE_F, 65536, 2)], BASIS)
        z_law = weighted_sum_distribution([(EXAMPLE_G, 256, 1), (EXAMPLE_G, 65536, 2)], BASIS)
        got, slabs, walked = _walk(s_law, z_law, weighted._BLOCK)
        assert slabs == 94
        assert walked == 66
        assert got.hex() == "0x1.fed187de80000p-22"

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 2**14])
    @pytest.mark.parametrize("at", [0, 1])
    def test_differ_only_in_topmost_atom(self, block, at):
        # b's thin factor triples its topmost atom, on the rows (at = 0) or
        # the columns (at = 1): the gap grows with F's CDF along the top
        # points and peaks at the box's last one
        thin = LatticeMeasure(np.arange(12), 0.5 ** np.arange(1, 13))
        top = LatticeMeasure(np.arange(12), thin.masses * np.where(np.arange(12) == 11, 3.0, 1.0))
        a = WeightedMeasure(BASIS, (thin, F) if at == 0 else (F, thin))
        b = WeightedMeasure(BASIS, (top, F) if at == 0 else (F, top))
        got, slabs, walked = _walk(a, b, block)
        assert walked == slabs
        assert got == _out_of_place_distance(a, b)
        assert got == pytest.approx(2 * 0.5**12, rel=1e-12)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 2**14])
    def test_signed_peak_in_top_slab(self, block):
        # b's topmost atom is -0.3 in place of a's 2**-12, so the gap after
        # the box's last point, 0.3 + 2**-12, tops the 0.25-scale gaps below
        thin = LatticeMeasure(np.arange(12), 0.5 ** np.arange(1, 13))
        flipped = LatticeMeasure(np.arange(12), np.append(thin.masses[:-1], -0.3))
        a = WeightedMeasure(BASIS, (from_entries({0: 0.5, 1: 0.5}), thin))
        b = WeightedMeasure(BASIS, (from_entries({0: 0.25, 1: 0.75}), flipped))
        got, slabs, walked = _walk(a, b, block)
        assert walked == slabs
        assert got == _out_of_place_distance(a, b)
        assert got == pytest.approx(0.3 + 0.5**12, rel=1e-12)

    def test_remaining_mass_within_margin_of_peak(self):
        # one point per slab.  a's 2**-40 + 3 m + 2**-70 at 0 sets the peak;
        # after 1 the totals are 3/4 + 2**-40 + 2**-52 and 3/4 + 2**-52, a
        # gap of 2**-40.  Three masses m = 2**-54 + 2**-60 remain, 2**-70
        # short of the peak with the gap, but each rounds a's total up by
        # a half ulp of 3/4: the last gap is 2**-40 + 3 * 2**-53.  Only the
        # margin's share of the totals, |A| + |B|, keeps the walk going
        m = 2.0**-54 + 2.0**-60
        a = _measure((1.0,), ([0, 1, 2, 3, 4], [2.0**-40 + 3 * m + 2.0**-70, 0.75, m, m, m]))
        b = _measure((1.0,), ([1], [0.75 + 2.0**-52]))
        got, slabs, walked = _walk(a, b, 1)
        assert walked == slabs == 5
        assert got == _out_of_place_distance(a, b)
        assert got == 2.0**-40 + 3 * 2.0**-53

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_signed_mass_within_margin_of_peak(self, block):
        # the case above with M = 2**-50 added to both laws at 2, 3 and 4:
        # the absolute mass left is 3 (2 M + m), the signed one 3 m, 2**-70
        # short of the peak with the gap.  a's total still rounds up by a
        # half ulp of 3/4 at each point while b's adds M exactly, so only
        # the margin keeps the walk going
        m, big = 2.0**-54 + 2.0**-60, 2.0**-50
        a = _measure(
            (1.0,), ([0, 1, 2, 3, 4], [2.0**-40 + 3 * m + 2.0**-70, 0.75] + [m + big] * 3)
        )
        b = _measure((1.0,), ([1, 2, 3, 4], [0.75 + 2.0**-52] + [big] * 3))
        got, slabs, walked = _walk(a, b, block)
        assert walked == slabs
        assert got == _out_of_place_distance(a, b)
        assert got == 2.0**-40 + 3 * 2.0**-53

    @pytest.mark.parametrize(
        ("block", "slabs_walked"), [(1, (16, 2)), (2, (8, 1)), (3, (6, 1)), (7, (3, 1))]
    )
    def test_signed_mass_stops_walk(self, block, slabs_walked):
        # the gap is 0.25 after 0 and 0.15 after 1; both laws put 1/16 on
        # each of 2, ..., 15.  The absolute mass left, at least 1/8 before
        # 15, lifts 0.15 over the peak at every slab, so it would walk them
        # all, but the signed mass is 0: the walk stops after the first
        # slab that holds 1
        a = _measure((1.0,), (list(range(16)), [0.5, 0.1] + [0.0625] * 14))
        b = _measure((1.0,), (list(range(16)), [0.25, 0.2] + [0.0625] * 14))
        got, slabs, walked = _walk(a, b, block)
        assert got == _out_of_place_distance(a, b) == 0.25
        assert (slabs, walked) == slabs_walked


# Values whose stable order the slab sort must reproduce: repeats, -0.0
# beside 0.0, subnormal and overflowing spans, and infinities.
SORT_VALUES = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, -5e-324, 1e-310, 1.7e308, -1.7e308]),
)


class TestSlabOrder:
    """A slab is ordered by a 16-bit key, then by value; the composed
    permutation must be the stable argsort itself."""

    @given(
        st.lists(SORT_VALUES, min_size=1, max_size=8),
        st.lists(st.integers(0, 7), min_size=1, max_size=60),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_stable_argsort(self, pool, picks):
        # indices into a small pool make repeats likely
        values = np.array([pool[i % len(pool)] for i in picks])
        assert weighted._stable_order(values).tolist() == np.argsort(values, kind="stable").tolist()

    @pytest.mark.parametrize(
        "values",
        [
            [2.5],
            [3.0] * 5,
            [0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0],
            [-0.0, 0.0, -0.0],
            [1e-320, 0.0, 5e-324, 1e-320, -5e-324],
            [1.7e308, -1.7e308, 0.0, 1.7e308, -1.7e308],
            [1.0, 1.0 + 2**-52, 1.0, 1.0 + 2**-52, 1.0 + 2**-51],
            [np.inf, 1.0, -np.inf, 1.0, np.inf],
        ],
    )
    def test_edge_cases(self, values):
        values = np.array(values)
        assert weighted._stable_order(values).tolist() == np.argsort(values, kind="stable").tolist()

    def test_rows_of_runs(self):
        # a slab's shape: 300 sorted runs of nearby values, with ties
        rng = np.random.default_rng(5)
        values = np.concatenate([np.sort(rng.integers(0, 2000, 50) * 0.1) for _ in range(300)])
        assert weighted._stable_order(values).tolist() == np.argsort(values, kind="stable").tolist()


class TestMemory:
    def test_peak_below_three_box_arrays(self):
        # run_example's n = 16384 pair: 224 x 2464 box points, 4.2 MiB per
        # float array; the distance holds a few arrays of one slab's size
        s_law = weighted_sum_distribution([(EXAMPLE_F, 128, 1), (EXAMPLE_F, 16384, 2)], BASIS)
        z_law = weighted_sum_distribution([(EXAMPLE_G, 128, 1), (EXAMPLE_G, 16384, 2)], BASIS)
        points = _box_size(s_law, z_law)
        assert points == 224 * 2464
        tracemalloc.start()
        try:
            wkolmogorov_distance(s_law, z_law)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * points

    @pytest.mark.parametrize("n1,n,points", [(128, 16384, 224 * 2464), (256, 65536, 316 * 4871)])
    def test_peak_does_not_follow_the_box(self, n1, n, points):
        # run_example's n = 16384 and n = 65536 pairs; with slabs of about
        # 2**12 points no array grows with the box, so one call stays below
        # half of one box-sized float array
        s_law = weighted_sum_distribution([(EXAMPLE_F, n1, 1), (EXAMPLE_F, n, 2)], BASIS)
        z_law = weighted_sum_distribution([(EXAMPLE_G, n1, 1), (EXAMPLE_G, n, 2)], BASIS)
        assert _box_size(s_law, z_law) == points
        with mock.patch.object(weighted, "_BLOCK", 2**12):
            tracemalloc.start()
            try:
                wkolmogorov_distance(s_law, z_law)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 0.5 * 8 * points


class TestResourceGuard:
    def test_product_builds_but_reads_raise(self):
        # 4001 ** 2 lattice points: the product form is cheap, real values are not
        wide = from_entries({k: 1.0 / 4001 for k in range(4001)})
        m = WeightedMeasure(BASIS, (wide, wide))
        with pytest.raises(ResourceLimitError):
            wkolmogorov_distance(m, m)
