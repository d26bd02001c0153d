"""Structural bound factors: composition, anchors, invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsumdist.bounds import (
    BlockSpec,
    MomentMismatchError,
    OddSError,
    bound_iid,
    bound_independent,
    bound_independent_sym,
    bound_markov,
    bound_nb,
    check_assumptions,
    lemma_fg_gap,
    lemma_fg_gap_sym,
)
from wsumdist import lattice
from wsumdist.checks import gen_matched_pair
from wsumdist.lattice import factorial_moment, from_entries, moments, smoothness_u
from wsumdist.markov import MBParams

F = from_entries({0: 0.375, 1: 0.5, 4: 0.125})
G = from_entries({0: 0.45, 1: 0.25, 2: 0.25, 5: 0.05})

TWO_BLOCKS = [BlockSpec.iid(F, G, 10), BlockSpec.iid(F, G, 100)]


def _beta_ref(f, g, k):
    return tuple(
        factorial_moment(f, k, side) + factorial_moment(g, k, side)
        for side in ("plus", "minus")
    )


def _per_summand_reference(summand_blocks, weights, s, sym):
    """The former per-summand route: one value per summand, summed in
    summand order, factor multiplied up in component order."""
    u_sums = []
    u_total = 0.0
    variance_product = 1.0
    for block in summand_blocks:
        u_sum = float(sum(smoothness_u(f, g) for f, g in block))
        sigma2_sum = float(
            sum(max(moments(f).variance, moments(g).variance) for f, g in block)
        )
        u_sums.append(u_sum)
        u_total += u_sum
        variance_product *= 1.0 + sigma2_sum / u_sum
    term = 0.0
    for block, u_sum in zip(summand_blocks, u_sums):
        betas1 = [_beta_ref(f, g, s + 1) for f, g in block]
        if sym:
            betas2 = [_beta_ref(f, g, s + 2) for f, g in block]
            skew = float(sum(abs(bp - bm) for bp, bm in betas1))
            correction = float(
                sum(b2p + b2m for b2p, b2m in betas2) + sum(bm for _, bm in betas1)
            )
            term += u_sum ** (-s / 2.0) * (skew + correction * u_sum**-0.5)
        else:
            term += float(sum(bp + bm for bp, bm in betas1)) * u_sum ** (-s / 2.0)
    ratio = max(weights) / min(weights)
    return 1.0 * ratio * u_total**-0.5 * variance_product * term


class TestBlockSpec:
    def test_iid_flag(self):
        assert BlockSpec.iid(F, G, 4).is_iid
        spec = BlockSpec.from_summands((F, F, G), (G, G, G))
        assert not spec.is_iid
        assert spec.n == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockSpec.iid(F, G, 0)
        with pytest.raises(ValueError):
            BlockSpec.iid(F, G, 4, weight=0.0)
        with pytest.raises(ValueError):
            BlockSpec.from_summands((F, F), (G,))  # unequal lengths
        with pytest.raises(ValueError):
            BlockSpec.from_summands((), ())
        with pytest.raises(ValueError):
            BlockSpec(pairs=((F, G),), counts=(0,))
        with pytest.raises(ValueError):
            BlockSpec(pairs=((F, G), (F, F)), counts=(2,))
        with pytest.raises(ValueError):
            BlockSpec.iid(F - G, G, 4)  # signed summand rejected

    @pytest.mark.parametrize(
        "counts,weight,message",
        [
            ((2.7,), 1.0, "counts must be integers"),
            ((True,), 1.0, "counts must be integers"),
            (("3",), 1.0, "counts must be integers"),
            ((3,), True, "weight must be a real number"),
            ((3,), "2.0", "weight must be a real number"),
        ],
    )
    def test_counts_and_weight_type_checked(self, counts, weight, message):
        # int() would truncate 2.7 to 2 and read True as 1.
        with pytest.raises(ValueError, match=message):
            BlockSpec(((F, G),), counts, weight)

    def test_numpy_counts_stored_as_python(self):
        spec = BlockSpec(((F, G),), (np.int64(3),), np.float64(2.0))
        assert (type(spec.counts[0]), type(spec.weight)) == (int, float)

    def test_repeated_objects_group_to_iid(self):
        spec = BlockSpec.from_summands((F,) * 3, (G,) * 3)
        assert spec.is_iid
        assert spec.n == 3
        assert spec.pairs == ((F, G),)
        assert spec.counts == (3,)
        grouped = bound_iid([spec], 3)
        direct = bound_iid([BlockSpec.iid(F, G, 3)], 3)
        assert grouped.to_json_dict() == direct.to_json_dict()

    def test_grouping_keeps_first_seen_order(self):
        spec = BlockSpec.from_summands((F, G, F, F), (G, G, G, G))
        assert spec.pairs == ((F, G), (G, G))
        assert spec.counts == (3, 1)
        assert spec.n == 4

    def test_equal_valued_distinct_objects_stay_apart(self):
        twin = from_entries({0: 0.375, 1: 0.5, 4: 0.125})
        spec = BlockSpec.from_summands((F, twin), (G, G))
        assert not spec.is_iid
        assert spec.counts == (1, 1)


class TestCheckAssumptions:
    def test_matched_through_three(self):
        report = check_assumptions(TWO_BLOCKS, 3)
        assert report.ok
        assert report.warnings == ()

    def test_order_four_mismatch_warned(self):
        # fourth factorial moments differ (3 vs 6), so s = 4 must warn
        report = check_assumptions(TWO_BLOCKS, 4)
        assert not report.ok
        assert any("order 4" in w for w in report.warnings)

    def test_identical_pair_any_order(self):
        assert check_assumptions([BlockSpec.iid(F, F, 5)], 4).ok

    @pytest.mark.parametrize(
        "bound", [bound_iid, bound_independent, bound_independent_sym]
    )
    def test_zero_shift_overlap_raises(self, bound):
        point = from_entries({2: 1.0})  # u = 0
        with pytest.raises(ValueError, match="block 1: zero shift overlap u"):
            bound([BlockSpec.iid(F, G, 4), BlockSpec.iid(point, point, 4)], 2)

    def test_multi_pair_zero_overlap_warned(self):
        point = from_entries({2: 1.0})  # u = 0, matched with itself
        spec = BlockSpec.from_summands((F, point, F), (G, point, G))
        report = check_assumptions([spec], 3)
        assert "block 0: some summand has zero shift overlap u" in report.warnings
        assert not any("not matched" in w for w in report.warnings)

    def test_multi_pair_order_mismatch_warned(self):
        f2, g2 = gen_matched_pair(7, 2)
        assert abs(
            factorial_moment(f2, 3, "plus") - factorial_moment(g2, 3, "plus")
        ) > 1e-6
        spec = BlockSpec.from_summands((F, f2, F), (G, g2, G))
        matched = check_assumptions([spec], 2)
        assert not any("not matched" in w for w in matched.warnings)
        report = check_assumptions([spec], 3)
        assert (
            "block 0: factorial moments not matched through order 3"
            in report.warnings
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            check_assumptions(TWO_BLOCKS, 0)
        with pytest.raises(ValueError):
            check_assumptions([], 3)


class TestBoundIid:
    def test_anchor_equal_weights(self):
        report = bound_iid(TWO_BLOCKS, 3)
        assert report.components["u_total"] == pytest.approx(41.25, abs=1e-12)
        assert report.factor == pytest.approx(2.539888662414866, abs=1e-13)

    def test_anchor_weighted(self):
        blocks = [
            BlockSpec.iid(F, G, 10, weight=1.0),
            BlockSpec.iid(F, G, 100, weight=math.sqrt(2.0)),
        ]
        report = bound_iid(blocks, 3)
        assert report.factor == pytest.approx(3.5919449933047636, abs=1e-13)
        assert report.components["factor.weight_ratio"] == pytest.approx(
            math.sqrt(2.0), abs=1e-15
        )

    def test_recompose_exact(self):
        report = bound_iid(TWO_BLOCKS, 3)
        assert report.recompose() == report.factor

    @pytest.mark.parametrize("c", [0.5, 3.0])
    def test_weight_scale_invariance(self, c):
        base = bound_iid(TWO_BLOCKS, 3).factor
        scaled = [
            BlockSpec.iid(F, G, 10, weight=c),
            BlockSpec.iid(F, G, 100, weight=c),
        ]
        assert bound_iid(scaled, 3).factor == pytest.approx(base, rel=1e-14)

    def test_non_iid_block_rejected(self):
        spec = BlockSpec.from_summands((F, G), (G, G))
        with pytest.raises(ValueError):
            bound_iid([spec], 3)

    def test_json_round_trip_fields(self):
        payload = bound_iid(TWO_BLOCKS, 3).to_json_dict()
        assert payload["absolute_constant_excluded"] is True
        assert payload["factor"] == pytest.approx(2.539888662414866, abs=1e-13)
        assert "factor.beta_term" in payload["components"]


class TestBoundIndependent:
    def test_consistent_with_iid_route(self):
        # same blocks, general route carries the variance product (25.0)
        general = bound_independent(TWO_BLOCKS, 3)
        special = bound_iid(TWO_BLOCKS, 3)
        assert general.components["factor.variance_product"] == pytest.approx(
            25.0, abs=1e-12
        )
        assert general.factor == pytest.approx(25.0 * special.factor, rel=1e-12)

    def test_per_summand_lists(self):
        spec = BlockSpec.from_summands((F, G, F), (G, G, G))
        report = bound_independent([spec], 1)
        assert report.factor > 0.0
        assert report.recompose() == report.factor

    def test_grouped_block_equals_iid_block(self):
        grouped = BlockSpec.from_summands((F,) * 10, (G,) * 10)
        direct = BlockSpec.iid(F, G, 10)
        for bound, s in ((bound_independent, 3), (bound_independent_sym, 2)):
            assert bound([grouped], s).to_json_dict() == bound([direct], s).to_json_dict()

    @pytest.mark.parametrize("sym", [False, True])
    def test_distinct_summands_match_per_summand_sum(self, sym):
        weights = (1.0, math.sqrt(2.0))
        bound = bound_independent_sym if sym else bound_independent
        for s in (2,) if sym else (1, 2, 3):
            for base in (0, 1000, 7919):
                summand_blocks = [
                    [gen_matched_pair(base + seed, s) for seed in range(7)],
                    [gen_matched_pair(base + seed, s) for seed in range(100, 104)],
                ]
                blocks = [
                    BlockSpec.from_summands(
                        [f for f, _ in block], [g for _, g in block], weight=w
                    )
                    for block, w in zip(summand_blocks, weights)
                ]
                assert [b.counts for b in blocks] == [(1,) * 7, (1,) * 4]
                report = bound(blocks, s)
                want = _per_summand_reference(summand_blocks, weights, s, sym)
                assert report.factor == want, (s, base)

    def test_one_shift_overlap_per_law_and_pair(self, monkeypatch):
        # One bound call summarises each distinct pair once, even when the
        # pair recurs in another block: two shift overlaps, one per law.
        pairs = [gen_matched_pair(seed, 2) for seed in range(5)]
        blocks = [
            BlockSpec.from_summands(
                [f for f, _ in chosen], [g for _, g in chosen], weight=w
            )
            for chosen, w in ((pairs[:3], 1.0), (pairs[3:] + pairs[:1], 2.0))
        ]
        seen = []
        overlap = lattice._shift_overlap
        monkeypatch.setattr(
            lattice, "_shift_overlap", lambda f: seen.append(f) or overlap(f)
        )
        bound_independent_sym(blocks, 2)
        laws = [law for pair in pairs for law in pair]
        assert len(seen) == 2 * len(pairs)
        assert sorted(map(id, seen)) == sorted(map(id, laws))

    @pytest.mark.parametrize("call", [check_assumptions, bound_independent_sym])
    def test_built_blocks_are_not_checked_again(self, monkeypatch, call):
        # BlockSpec checked every law when the blocks were built; a bound
        # call reads their moments and overlaps without a second check.
        pairs = [gen_matched_pair(seed, 2) for seed in range(5)]
        blocks = [
            BlockSpec.from_summands(
                [f for f, _ in chosen], [g for _, g in chosen], weight=w
            )
            for chosen, w in ((pairs[:3], 1.0), (pairs[3:] + pairs[:1], 2.0))
        ]
        calls = []
        require = lattice._require_probability
        monkeypatch.setattr(
            lattice,
            "_require_probability",
            lambda f, what: calls.append(what) or require(f, what),
        )
        call(blocks, 2)
        assert calls == []


class TestBoundIndependentSym:
    def test_odd_s_rejected(self):
        with pytest.raises(OddSError):
            bound_independent_sym(TWO_BLOCKS, 3)

    def test_even_s_composes(self):
        report = bound_independent_sym(TWO_BLOCKS, 2)
        assert report.factor > 0.0
        assert report.recompose() == report.factor
        assert "factor.sym_term" in report.components


class TestBoundNb:
    def test_bracket_and_overlap(self):
        report = bound_nb([BlockSpec.iid(F, F, 10)])
        assert report.components["block0.bracket"] == pytest.approx(5.75, abs=1e-12)
        assert report.components["block0.u_tilde"] == pytest.approx(0.375, abs=1e-12)
        assert report.factor == pytest.approx(7.918099285579609, abs=1e-12)

    def test_dual_route_agreement(self):
        # r ln(1/p~) from matched params and from block factorial moments
        report = bound_nb([BlockSpec.iid(F, F, 10)])
        direct = report.components["block0.r_log_direct"]
        via_moments = report.components["block0.r_log_moments"]
        assert direct == pytest.approx(via_moments, abs=1e-12)

    def test_negative_support_rejected(self):
        signed = from_entries({-1: 0.5, 1: 0.5})
        with pytest.raises(ValueError):
            bound_nb([BlockSpec.iid(signed, signed, 5)])

    def test_weight_ratio_carried(self):
        blocks = [
            BlockSpec.iid(F, F, 10, weight=1.0),
            BlockSpec.iid(F, F, 10, weight=3.0),
        ]
        assert bound_nb(blocks).components["factor.weight_ratio"] == pytest.approx(
            3.0, abs=1e-15
        )


class TestBoundMarkov:
    def test_anchor(self):
        report = bound_markov([(MBParams(p=0.3, q_bar=0.02, n=100), 1.0)])
        assert report.factor == pytest.approx(0.004525483399593904, abs=1e-15)
        assert report.warnings == ()

    def test_horizon_clamp(self):
        # every n_k q_bar_k <= 1 clamps each term to 1, denominator sqrt(N)
        pairs = [
            (MBParams(p=0.3, q_bar=0.005, n=100), 1.0),
            (MBParams(p=0.2, q_bar=0.008, n=50), 1.0),
        ]
        report = bound_markov(pairs)
        assert report.components["horizon_total"] == pytest.approx(2.0, abs=1e-15)
        assert report.components["factor.horizon_inv_sqrt"] == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-15
        )

    def test_regime_violation_warned(self):
        report = bound_markov([(MBParams(p=0.7, q_bar=0.02, n=100), 1.0)])
        assert any("p_in_range" in w for w in report.warnings)

    def test_validation(self):
        with pytest.raises(ValueError):
            bound_markov([])
        for weight in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                bound_markov([(MBParams(p=0.3, q_bar=0.02, n=100), weight)])
        # True would read as weight 1, and "2" would fail the range test
        # with a TypeError.
        for weight in (True, "2"):
            with pytest.raises(ValueError, match="weights must be real numbers"):
                bound_markov([(MBParams(p=0.3, q_bar=0.02, n=100), weight)])


class TestFgGap:
    def test_example_values(self):
        gap, cap = lemma_fg_gap(F, G, 3)
        assert gap == pytest.approx(0.75, abs=1e-15)
        assert cap == pytest.approx(6.0, abs=1e-12)
        assert gap <= cap

    def test_identical_pair(self):
        gap, cap = lemma_fg_gap(F, F, 3)
        assert gap == 0.0
        assert cap > 0.0

    def test_mismatch_rejected(self):
        with pytest.raises(MomentMismatchError):
            lemma_fg_gap(F, from_entries({0: 0.5, 1: 0.5}), 3)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from((1, 2, 3)),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_matched_pairs_capped(self, seed, s):
        f, g = gen_matched_pair(seed, s)
        gap, cap = lemma_fg_gap(f, g, s)
        assert gap <= cap * (1.0 + 1e-12) + 1e-15

    def test_sym_example_values(self):
        residual, cap = lemma_fg_gap_sym(F, G, 2)
        assert residual == pytest.approx(7.6, abs=1e-12)
        assert cap == pytest.approx(144.0, abs=1e-12)

    def test_sym_odd_s_rejected(self):
        with pytest.raises(OddSError):
            lemma_fg_gap_sym(F, G, 3)
