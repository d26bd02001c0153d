"""Laws of weighted sums ``w_1 S_1 + ... + w_N S_N`` of independent lattice sums.

A weight basis fixes positive reals ``w_1, ..., w_N``.  A weighted measure
stores one lattice measure per weight; its law is their product pushed
onto the real line by ``(k_1, ..., k_N) -> sum_i k_i w_i``.  Convolution
acts weight by weight on the integer lattice, so it never loses support
identity to float rounding.  A measure is only its factors: real values
are formed only where a cumulative function is read, by one builder that
raises ResourceLimitError past SUPPORT_LIMIT points.  The Kolmogorov
distance builds them once on the union of both laws' lattice points, the
concentration function on its factors' nonzero supports.  In both, real
values within a tolerance proportional to the largest value in play are
one location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import (
    LatticeMeasure,
    _sorted_union,
    convolve,
    delta,
    power,
)

__all__ = [
    "WeightBasis",
    "WeightedMeasure",
    "ResourceLimitError",
    "SUPPORT_LIMIT",
    "MERGE_TOL_SCALE",
    "lift",
    "wconvolve",
    "weighted_sum_distribution",
    "wkolmogorov_distance",
    "wconcentration",
]

# Building real values on more lattice points than this aborts with
# ResourceLimitError instead of exhausting memory.
SUPPORT_LIMIT = 10**7

# Two support points share a CDF location iff their real values differ by at
# most MERGE_TOL_SCALE * (1 + max |value|).
MERGE_TOL_SCALE = 1e-9


class ResourceLimitError(RuntimeError):
    """Raised when real values would be built on more than SUPPORT_LIMIT points."""


@dataclass(frozen=True)
class WeightBasis:
    """Ordered positive weights; weight i scales the i-th lattice factor."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        ws = tuple(float(w) for w in self.weights)
        if len(ws) < 1:
            raise ValueError("weight basis needs at least one weight")
        if any(not (w > 0.0) or not math.isfinite(w) for w in ws):
            raise ValueError("weights must be finite and positive")
        object.__setattr__(self, "weights", ws)

    @property
    def size(self) -> int:
        return len(self.weights)


@dataclass(frozen=True, eq=False)
class WeightedMeasure:
    """Finite signed measure of ``sum_i w_i X_i`` for independent lattice ``X_i``.

    ``factors`` holds one lattice measure per weight of ``basis``, in weight
    order, with ``delta(0)`` on weights that carry nothing; the measure is
    their product pushed through ``(k_1, ..., k_N) -> sum_i k_i w_i``.
    Construct via :func:`lift` and :func:`wconvolve`, or directly from one
    law per weight.
    """

    basis: WeightBasis
    factors: tuple[LatticeMeasure, ...]

    def __post_init__(self) -> None:
        factors = tuple(self.factors)
        if len(factors) != self.basis.size:
            raise ValueError("need exactly one factor per weight of the basis")
        object.__setattr__(self, "factors", factors)

    @property
    def error_budget(self) -> float:
        """The factors' budgets folded as a convolution of their products."""
        budget, tv = 0.0, 1.0
        for f in self.factors:
            budget = budget * f.tv + f.error_budget * tv + budget * f.error_budget
            tv *= f.tv
        return budget

    def __repr__(self) -> str:
        sizes = tuple(len(f) for f in self.factors)
        return f"WeightedMeasure(factor sizes {sizes}, weights {self.basis.weights})"


def lift(f: LatticeMeasure, index: int, basis: WeightBasis) -> WeightedMeasure:
    """Embed a lattice measure along weight ``index`` (1-based) of ``basis``."""
    index = int(index)
    if not 1 <= index <= basis.size:
        raise IndexError(f"weight index {index} out of range 1..{basis.size}")
    factors = [delta(0)] * basis.size
    factors[index - 1] = f
    return WeightedMeasure(basis, tuple(factors))


def wconvolve(a: WeightedMeasure, b: WeightedMeasure) -> WeightedMeasure:
    """Convolution of weighted measures over a shared basis, weight by weight:
    (mu_1 x mu_2) * (nu_1 x nu_2) = (mu_1 * nu_1) x (mu_2 * nu_2)."""
    if a.basis.weights != b.basis.weights:
        raise ValueError("weighted convolution requires a common basis")
    return WeightedMeasure(
        a.basis, tuple(convolve(f, g) for f, g in zip(a.factors, b.factors))
    )


def weighted_sum_distribution(
    components: Sequence[tuple[LatticeMeasure, int, int]],
    basis: WeightBasis,
) -> WeightedMeasure:
    """Law of ``sum_i w_{index_i} * S_i`` for independent block sums.

    Each component is ``(f, n, index)``: the summand law ``f`` (a probability
    distribution), the block count ``n >= 1``, and the 1-based weight index.
    """
    if not components:
        raise ValueError("need at least one component")
    acc: WeightedMeasure | None = None
    for f, n, index in components:
        if not f.is_probability:
            raise ValueError("component laws must be probability distributions")
        if int(n) < 1:
            raise ValueError("component count must be >= 1")
        term = lift(power(f, int(n)), index, basis)
        acc = term if acc is None else wconvolve(acc, term)
    assert acc is not None
    return acc


def _merge_tol(values: np.ndarray) -> float:
    top = float(np.max(np.abs(values))) if values.size else 0.0
    return MERGE_TOL_SCALE * (1.0 + top)


def _nonzero(f: LatticeMeasure) -> tuple[np.ndarray, np.ndarray]:
    """The support points of ``f`` that carry nonzero mass, and their masses."""
    keep = f.masses != 0.0
    return f.support[keep], f.masses[keep]


def _laid_on(support: np.ndarray, part: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``part = (points, masses)`` as masses on the sorted ``support``."""
    points, masses = part
    out = np.zeros(support.size)
    out[np.searchsorted(support, points)] = masses
    return out


def _real_points(
    weights: Sequence[float],
    supports: Sequence[np.ndarray],
    *sides: Sequence[np.ndarray],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Real values and product masses on the lattice box ``supports[0] x ...``.

    ``sides[j][i]`` holds side j's masses on ``supports[i]``.  Returns the
    values ``sum_i k_i w_i`` in lexicographic order of the box and, per
    side, the product of its masses at each point; points where every
    side's product is exactly 0.0 are dropped.  Past SUPPORT_LIMIT box
    points it raises ResourceLimitError before allocating.
    """
    count = math.prod(support.size for support in supports)
    if count > SUPPORT_LIMIT:
        raise ResourceLimitError(
            f"weighted support would range over {count} lattice points "
            f"(limit {SUPPORT_LIMIT})"
        )
    values = np.zeros(1)
    products = [np.ones(1) for _ in sides]
    for i, (support, w) in enumerate(zip(supports, weights)):
        values = np.add.outer(values, support * w).ravel()
        products = [
            np.multiply.outer(product, side[i]).ravel()
            for product, side in zip(products, sides)
        ]
    keep = products[0] != 0.0
    for product in products[1:]:
        keep |= product != 0.0
    return values[keep], [product[keep] for product in products]


def wkolmogorov_distance(a: WeightedMeasure, b: WeightedMeasure) -> float:
    """Kolmogorov distance: sup over x of |(a - b)((-inf, x])|.

    Both laws are laid on one set of lattice points: per weight, the union
    of the two factors' supports where they carry nonzero mass.  Each
    point's real value is built once and sorted once for both sides.
    Values that differ by at most the merge tolerance are one CDF location
    (clustered by consecutive gaps), and the two CDFs are compared at each
    cluster's last point.

    The work is linear in the product over weights of the union sizes,
    which exceeds both operands' atom counts when the laws spread over
    different weights; past SUPPORT_LIMIT points it raises
    ResourceLimitError before allocating.
    """
    if a.basis.weights != b.basis.weights:
        raise ValueError("Kolmogorov distance requires a common basis")
    parts = [(_nonzero(f), _nonzero(g)) for f, g in zip(a.factors, b.factors)]
    unions = [_sorted_union(fp[0], gp[0]) for fp, gp in parts]
    values, (mass_a, mass_b) = _real_points(
        a.basis.weights,
        unions,
        [_laid_on(u, fp) for u, (fp, _) in zip(unions, parts)],
        [_laid_on(u, gp) for u, (_, gp) in zip(unions, parts)],
    )
    if values.size == 0:
        return 0.0
    order = np.argsort(values, kind="stable")
    values = values[order]
    ends = np.flatnonzero(np.append(np.diff(values) > _merge_tol(values), True))
    # Both sides accumulate in the same order, so the result is exactly
    # symmetric in (a, b); a point of the other side adds +0.0.
    cdf_a = np.cumsum(mass_a[order])[ends]
    cdf_b = np.cumsum(mass_b[order])[ends]
    return float(np.max(np.abs(cdf_a - cdf_b)))


def wconcentration(f: WeightedMeasure, h: float) -> float:
    """Maximal probability of a closed window ``[x, x + h]`` on the real line.

    Every factor must be a probability distribution.  Past SUPPORT_LIMIT
    atoms it raises ResourceLimitError before allocating.
    """
    if not all(factor.is_probability for factor in f.factors):
        raise ValueError("wconcentration requires a probability distribution")
    if not (h >= 0.0):
        raise ValueError("window length h must be nonnegative")
    supports, masses = zip(*(_nonzero(factor) for factor in f.factors))
    values, (masses,) = _real_points(f.basis.weights, supports, masses)
    order = np.argsort(values, kind="stable")
    values = values[order]
    masses = masses[order]
    tol = _merge_tol(values)
    cum = np.cumsum(masses)
    right = np.searchsorted(values, values + h + tol, side="right") - 1
    left = np.searchsorted(values, values - tol, side="left")
    below_left = np.concatenate([[0.0], cum])
    return float(np.max(cum[right] - below_left[left]))
