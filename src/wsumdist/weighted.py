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
# holds about 2.5 8-byte arrays per point, so the ceiling is about
# 2.5 * 8 B * 10**7 = 200 MB.
SUPPORT_LIMIT = 10**7

# Points per block when the distance walks its box and its sorted order.
_BLOCK = 2**16

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


def wkolmogorov_distance(a: WeightedMeasure, b: WeightedMeasure) -> float:
    """Kolmogorov distance: sup over x of |(a - b)((-inf, x])|.

    Both laws are laid on one box of lattice points: per weight, the union
    of the two factors' supports where they carry nonzero mass.  Each
    point's real value ``sum_i k_i w_i`` is built once and sorted once for
    both sides; points where both laws' product masses are exactly 0.0
    are dropped.  Values that differ by at most
    MERGE_TOL_SCALE * (1 + max |value|) are one CDF location (clustered by
    consecutive gaps), and the two CDFs are compared at each cluster's
    last point.

    The work is linear in the product over weights of the union sizes,
    which exceeds both operands' atom counts when the laws spread over
    different weights; past SUPPORT_LIMIT points it raises
    ResourceLimitError before allocating.  No box-sized mass array
    exists: the box is rows (every weight but the last) by columns (the
    last weight), a point's masses are a row entry times a column entry,
    and the sorted order is walked in blocks that read them from those
    small tables.  At most the values, the order and the sort's buffer,
    about 2.5 8-byte arrays per point, are live at once.
    """
    if a.basis.weights != b.basis.weights:
        raise ValueError("Kolmogorov distance requires a common basis")
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
    # Box point k is (i, j) = divmod(k, width): its value is
    # row_v[i] + col_v[j] and its masses row_a[i] * col_a[j] and
    # row_b[i] * col_b[j], the same operations the full outer products
    # would make, in weight order.
    row_v, row_a, row_b = np.zeros(1), np.ones(1), np.ones(1)
    for union, w, f, g in zip(unions[:-1], a.basis.weights, a.factors, b.factors):
        row_v = np.add.outer(row_v, union * w).ravel()
        row_a = np.multiply.outer(row_a, _laid_on(union, f)).ravel()
        row_b = np.multiply.outer(row_b, _laid_on(union, g)).ravel()
    union, w = unions[-1], a.basis.weights[-1]
    col_v = union * w
    col_a, col_b = _laid_on(union, a.factors[-1]), _laid_on(union, b.factors[-1])
    width = union.size

    # Values of the kept points in box order, built a block of whole rows
    # at a time; a block's mask is kept only if it drops points.
    values = np.empty(count)
    masks: list[tuple[int, np.ndarray]] = []
    kept = 0
    step = max(1, _BLOCK // max(width, 1))
    for r0 in range(0, row_v.size, step):
        rows = slice(r0, r0 + step)
        keep = np.multiply.outer(row_a[rows], col_a).ravel() != 0.0
        keep |= np.multiply.outer(row_b[rows], col_b).ravel() != 0.0
        block = np.add.outer(row_v[rows], col_v).ravel()
        if not keep.all():
            masks.append((r0 * width, keep))
            block = block[keep]
        values[kept : kept + block.size] = block
        kept += block.size
    if kept == 0:
        return 0.0
    values = values[:kept]
    order = np.argsort(values, kind="stable")
    tol = MERGE_TOL_SCALE * (1.0 + max(abs(values[order[0]]), abs(values[order[-1]])))
    # Cluster ends: points whose next value lies more than tol above.  Each
    # block of the sorted order takes one value past its end.
    last = np.empty(kept, dtype=bool)
    for s0 in range(0, kept, _BLOCK):
        gaps = np.diff(np.take(values, order[s0 : s0 + _BLOCK + 1]))
        np.greater(gaps, tol, out=last[s0 : s0 + gaps.size])
    last[-1] = True
    del values

    # Kept position -> box index, only when some point was dropped: a run
    # of fully kept blocks maps position p to p + (points dropped before).
    source = None
    if masks:
        source = np.arange(kept)
        pos = shift = 0
        for start, keep in masks:
            source[pos : start - shift] += shift
            pos = start - shift
            picked = np.flatnonzero(keep)
            source[pos : pos + picked.size] = picked + start
            pos += picked.size
            shift = start + keep.size - pos
        source[pos:] += shift

    # Both sides accumulate in the same order, so the result is exactly
    # symmetric in (a, b).  Slot 0 of each buffer carries the previous
    # block's last cumulative value into cumsum, which adds strictly in
    # order, so the blocks give one cumsum's numbers; -0.0 starts it, as
    # -0.0 + x is x for every x.
    size = min(kept, _BLOCK) + 1
    buf_a, buf_b = np.empty(size), np.empty(size)
    buf_a[0] = buf_b[0] = -0.0
    peak = 0.0
    for s0 in range(0, kept, _BLOCK):
        index = order[s0 : s0 + _BLOCK]
        if source is not None:
            index = source[index]
        i, j = np.divmod(index, width)
        cdf_a, cdf_b = buf_a[: index.size + 1], buf_b[: index.size + 1]
        np.multiply(row_a[i], col_a[j], out=cdf_a[1:])
        np.multiply(row_b[i], col_b[j], out=cdf_b[1:])
        np.cumsum(cdf_a, out=cdf_a)
        np.cumsum(cdf_b, out=cdf_b)
        ends = last[s0 : s0 + index.size]
        gaps = np.abs(cdf_a[1:][ends] - cdf_b[1:][ends])
        peak = np.maximum(peak, np.max(gaps, initial=0.0))
        buf_a[0], buf_b[0] = cdf_a[-1], cdf_b[-1]
    return float(peak)
