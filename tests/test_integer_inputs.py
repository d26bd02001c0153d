"""Counts and orders are type-checked where they enter: int() would run a
2.7-fold power as a 2-fold one and read True as 1, so each call rejects
any value that is not an integer, bool included, with a ValueError."""

import numpy as np
import pytest

from wsumdist.approximants import nb_component_pmf, nb_match
from wsumdist.bounds import (
    BlockSpec,
    bound_iid,
    bound_independent_sym,
    check_assumptions,
    lemma_fg_gap,
    lemma_fg_gap_sym,
)
from wsumdist.checks import gen_matched_pair, run_check
from wsumdist.harness import EXAMPLE_F as F
from wsumdist.harness import EXAMPLE_G as G
from wsumdist.harness import run_example
from wsumdist.lattice import delta, factorial_moment, power
from wsumdist.markov import MBParams, cond1_check, mb_simulate
from wsumdist.weighted import WeightBasis, weighted_sum_distribution

BASIS = WeightBasis((1.0, 2.0**0.5))
BLOCKS = [BlockSpec.iid(F, G, 4, 1.0), BlockSpec.iid(F, G, 16, 2.0**0.5)]
CHAIN = MBParams(p=0.3, q_bar=0.02, n=10)

NOT_INTEGERS = [2.7, 2.5, 2.0, True, "2"]

COUNTS = {
    "component count": lambda v: weighted_sum_distribution([(F, v, 1)], BASIS),
    "weight index": lambda v: weighted_sum_distribution([(F, 2, v)], BASIS),
    "convolution power n": lambda v: power(F, v),
    "component count n": lambda v: nb_component_pmf(nb_match(2.0, 3.0), v),
    "draws": lambda v: mb_simulate(CHAIN, v, 1),
    "count": lambda v: run_check(1, v),
    "seed": lambda v: run_check(v, 2),
    # Not a count, but int() would put delta(2.7)'s mass at 2 the same way.
    "point": lambda v: delta(v),
}

ORDERS = {
    "bound_iid": ("s", lambda v: bound_iid(BLOCKS, v)),
    "check_assumptions": ("s", lambda v: check_assumptions(BLOCKS, v)),
    "bound_independent_sym": ("s", lambda v: bound_independent_sym(BLOCKS, v)),
    "lemma_fg_gap": ("s", lambda v: lemma_fg_gap(F, G, v)),
    "lemma_fg_gap_sym": ("s", lambda v: lemma_fg_gap_sym(F, G, v)),
    "run_example": ("s", lambda v: run_example((16,), s=v)),
    "gen_matched_pair": ("s", lambda v: gen_matched_pair(1, v)),
    "factorial_moment": ("factorial moment order", lambda v: factorial_moment(F, v)),
    "cond1_check": ("k0", lambda v: cond1_check(CHAIN, v)),
}


@pytest.mark.parametrize("value", NOT_INTEGERS)
@pytest.mark.parametrize("what", sorted(COUNTS))
def test_counts_must_be_integers(what, value):
    with pytest.raises(ValueError, match=f"^{what} must be an integer$"):
        COUNTS[what](value)


@pytest.mark.parametrize("value", NOT_INTEGERS)
@pytest.mark.parametrize("call", sorted(ORDERS))
def test_orders_must_be_integers(call, value):
    what, run = ORDERS[call]
    with pytest.raises(ValueError, match=f"^{what} must be an integer$"):
        run(value)


def test_numpy_integers_accepted():
    assert np.array_equal(power(F, np.int64(2)).masses, power(F, 2).masses)
    assert factorial_moment(F, np.int64(2)) == factorial_moment(F, 2)
    assert bound_iid(BLOCKS, np.int64(2)).factor == bound_iid(BLOCKS, 2).factor
