"""Laws of weighted sums ``w_1 S_1 + ... + w_N S_N`` of independent lattice sums.

A weight basis fixes positive reals ``w_1, ..., w_N``.  A weighted measure
stores one lattice measure per weight; its law is their product pushed
onto the real line by ``(k_1, ..., k_N) -> sum_i k_i w_i``.  Convolution
acts weight by weight on the integer lattice, so it never loses support
identity to float rounding.  A measure is only its factors: real values
are formed only by the Kolmogorov distance, once, on the union of both
laws' lattice points, and it raises ResourceLimitError past SUPPORT_LIMIT
points.  Real values within a tolerance proportional to the largest value
in play are one location.
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
]

# Building the distance's real values on more lattice points than this
# aborts with ResourceLimitError instead of exhausting memory.  The distance
# holds at most five 8-byte arrays per point, so the ceiling is about
# 5 * 8 B * 10**7 = 400 MB.
SUPPORT_LIMIT = 10**7

# Two support points share a CDF location iff their real values differ by at
# most MERGE_TOL_SCALE * (1 + max |value|).
MERGE_TOL_SCALE = 1e-9


class ResourceLimitError(RuntimeError):
    """Raised when the distance would build real values on more than
    SUPPORT_LIMIT lattice points."""


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


def _laid_on(support: np.ndarray, f: LatticeMeasure) -> np.ndarray:
    """The nonzero masses of ``f`` on the sorted ``support``, zeros elsewhere."""
    keep = f.masses != 0.0
    out = np.zeros(support.size)
    out[np.searchsorted(support, f.support[keep])] = f.masses[keep]
    return out


def _real_points(
    a: WeightedMeasure, b: WeightedMeasure
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real values of the lattice points where a or b has mass, and both masses.

    Per weight, the points are the sorted union of the two factors' supports
    where they carry nonzero mass.  Returns the values ``sum_i k_i w_i`` in
    lexicographic order of the product of these unions and each law's
    product mass at each point; points where both products are exactly 0.0
    are dropped.  Past SUPPORT_LIMIT points it raises ResourceLimitError
    before allocating them.
    """
    unions = [
        _sorted_union(f.support[f.masses != 0.0], g.support[g.masses != 0.0])
        for f, g in zip(a.factors, b.factors)
    ]
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
    return values, mass_a, mass_b


def wkolmogorov_distance(a: WeightedMeasure, b: WeightedMeasure) -> float:
    """Kolmogorov distance: sup over x of |(a - b)((-inf, x])|.

    Both laws are laid on one set of lattice points: per weight, the union
    of the two factors' supports where they carry nonzero mass.  Each
    point's real value is built once and sorted once for both sides.
    Values that differ by at most MERGE_TOL_SCALE * (1 + max |value|) are
    one CDF location (clustered by consecutive gaps), and the two CDFs are
    compared at each cluster's last point.

    The work is linear in the product over weights of the union sizes,
    which exceeds both operands' atom counts when the laws spread over
    different weights; past SUPPORT_LIMIT points it raises
    ResourceLimitError before allocating.  Sorting and accumulating reuse
    buffers, so at most five 8-byte arrays of that size are live at once.
    """
    if a.basis.weights != b.basis.weights:
        raise ValueError("Kolmogorov distance requires a common basis")
    values, mass_a, mass_b = _real_points(a, b)
    if values.size == 0:
        return 0.0
    order = np.argsort(values, kind="stable")
    # Permute into reused buffers, at most five box-sized arrays at once:
    # mode="clip" lets take write straight into out (every index is valid,
    # so nothing is clipped).  Both sides accumulate in the same order, so
    # the result is exactly symmetric in (a, b); a point of the other side
    # adds +0.0.
    cdf_a = np.take(mass_a, order, out=np.empty_like(mass_a), mode="clip")
    np.cumsum(cdf_a, out=cdf_a)
    cdf_b = np.take(mass_b, order, out=mass_a, mode="clip")
    np.cumsum(cdf_b, out=cdf_b)
    values = np.take(values, order, out=mass_b, mode="clip")
    del order
    tol = MERGE_TOL_SCALE * (1.0 + max(abs(values[0]), abs(values[-1])))
    # Cluster ends: points whose next value lies more than tol above.
    last = np.empty(values.size, dtype=bool)
    np.greater(np.diff(values), tol, out=last[:-1])
    last[-1] = True
    np.abs(np.subtract(cdf_a, cdf_b, out=cdf_a), out=cdf_a)
    return float(np.max(cdf_a[last]))
