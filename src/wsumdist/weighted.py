"""Laws of weighted sums ``w_1 S_1 + ... + w_N S_N`` of independent lattice sums.

A weight basis fixes positive reals ``w_1, ..., w_N``.  A weighted measure
stores one lattice measure per weight; its law is their product pushed
onto the real line by ``(k_1, ..., k_N) -> sum_i k_i w_i``.  Convolution
acts weight by weight on the integer lattice, so it never loses support
identity to float rounding.  A measure is only its factors: real values
are formed only by the Kolmogorov distance, once, on the union of both
laws' lattice points, one slab of value at a time from the lowest, so its
memory does not grow with that union; each slab is ordered by a 16-bit
radix pass and then by value.  The walk stops once the signed difference
of the mass left above cannot lift a gap over the largest found, and it
raises ResourceLimitError past SUPPORT_LIMIT points.  Real values closer
than the rounding error their float sums can carry are one location;
values further apart are distinct, however close.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import (
    LatticeMeasure,
    _integer,
    _is_a,
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
    "weighted_sum_distribution",
    "wkolmogorov_distance",
]

# The distance aborts with ResourceLimitError instead of walking a box of
# more lattice points than this.  Its memory no longer grows with the box
# (see _BLOCK), so the ceiling bounds the work: at most one pass over the
# box, each point sorted once within its slab.
SUPPORT_LIMIT = 10**7

# Points per slab, on average, when the distance walks its box in slabs of
# value; the slabs' arrays are the only ones that grow with the box.
_BLOCK = 2**14

# The smallest value span a slab's sort scales to a 16-bit key; below it
# 65535 / span could overflow.
_KEY_SPAN_MIN = 2.0**-1000


class ResourceLimitError(RuntimeError):
    """Raised when the distance would build real values on more than
    SUPPORT_LIMIT lattice points."""


@dataclass(frozen=True)
class WeightBasis:
    """Ordered positive weights; weight i scales the i-th lattice factor."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        ws = tuple(self.weights)
        if len(ws) < 1:
            raise ValueError("weight basis needs at least one weight")
        if not all(_is_a(w, numbers.Real) for w in ws):
            raise ValueError("weights must be real numbers")
        if any(not (w > 0.0) or not math.isfinite(w) for w in ws):
            raise ValueError("weights must be finite and positive")
        object.__setattr__(self, "weights", tuple(float(w) for w in ws))

    @property
    def size(self) -> int:
        return len(self.weights)


@dataclass(frozen=True, eq=False)
class WeightedMeasure:
    """Finite signed measure of ``sum_i w_i X_i`` for independent lattice ``X_i``.

    ``factors`` holds one lattice measure per weight of ``basis``, in weight
    order, with ``delta(0)`` on weights that carry nothing; the measure is
    their product pushed through ``(k_1, ..., k_N) -> sum_i k_i w_i``.
    Construct it from one law per weight, or as the law of block sums with
    :func:`weighted_sum_distribution`.
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
    factors: list[LatticeMeasure | None] = [None] * basis.size
    for f, n, index in components:
        if not f.is_probability:
            raise ValueError("component laws must be probability distributions")
        n = _integer(n, "component count")
        if n < 1:
            raise ValueError("component count must be >= 1")
        at = _integer(index, "weight index") - 1
        if not 0 <= at < basis.size:
            raise IndexError(f"weight index {at + 1} out of range 1..{basis.size}")
        term = power(f, n)
        factors[at] = term if factors[at] is None else convolve(factors[at], term)
    return WeightedMeasure(basis, tuple(delta(0) if f is None else f for f in factors))


def _laid_on(support: np.ndarray, f: LatticeMeasure) -> np.ndarray:
    """The nonzero masses of ``f`` on the sorted ``support``, zeros elsewhere."""
    keep = f.masses != 0.0
    out = np.zeros(support.size)
    out[np.searchsorted(support, f.support[keep])] = f.masses[keep]
    return out


def _cut(row_v: np.ndarray, col_v: np.ndarray, bound: float) -> np.ndarray:
    """Per row i, the first column j with ``row_v[i] + col_v[j] >= bound``.

    The float sum is nondecreasing in j, so the columns below the cut are
    exactly the row's points below the bound.  ``searchsorted`` on
    ``bound - row_v`` can land a column off, as either float difference
    may round across the bound; the cut then steps one column at a time
    until the sums themselves straddle it.
    """
    cut = np.searchsorted(col_v, bound - row_v)
    while True:
        down = (cut > 0) & (row_v + col_v[np.maximum(cut - 1, 0)] >= bound)
        if not down.any():
            break
        cut -= down
    last = col_v.size - 1
    while True:
        up = (cut <= last) & (row_v + col_v[np.minimum(cut, last)] < bound)
        if not up.any():
            return cut
        cut += up


def _suffix_sums(terms: np.ndarray) -> np.ndarray:
    """Row k sums rows k, k + 1, ... of ``terms``, added from the last;
    a row of zeros follows.  The sums are written in place, so only the
    result outlives the call."""
    sums = np.zeros((terms.shape[0] + 1, terms.shape[1]))
    np.cumsum(terms[::-1], axis=0, out=sums[-2::-1])
    return sums


def _stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")``, ordered by a 16-bit key first.

    numpy's stable sort of the key floor(65535 (v - lo) / (hi - lo)) is a
    radix sort, and the key is equal for equal values, -0.0 and 0.0
    included, so equal values keep their index order through it.  A
    stable argsort of the values in that order, composed with it, is then
    the stable order itself; as the key never decreases as v grows, that
    second sort meets a nearly sorted array.  A span that is zero, too
    small to scale or overflows sorts the values at once.
    """
    lo = values.min()
    span = float(values.max()) - float(lo)
    if not _KEY_SPAN_MIN <= span < math.inf:
        return np.argsort(values, kind="stable")
    key = values - lo
    key *= 65535.0 / span
    first = np.argsort(key.astype(np.uint16), kind="stable")
    # key's buffer takes the values in that order
    return first[np.argsort(np.take(values, first, out=key), kind="stable")]


def wkolmogorov_distance(a: WeightedMeasure, b: WeightedMeasure) -> float:
    """Kolmogorov distance: sup over x of |(a - b)((-inf, x])|.

    Both laws are laid on one box of lattice points: per weight, the union
    of the two factors' supports where they carry nonzero mass.  Each
    point's real value ``sum_i k_i w_i`` is built once and sorted once for
    both sides; points where both laws' product masses are exactly 0.0
    are dropped.  Values that differ by at most 4 N eps M, for N weights
    and M = sum_i max |k_i| w_i over the box, are one CDF location
    (clustered by consecutive gaps): twice the rounding error between two
    float sums of one exact value (0.1 read as 1/10), so such ties merge
    and any wider gap is real.  The two CDFs are compared at each
    cluster's last point.

    The work is linear in the product over weights of the union sizes,
    which exceeds both operands' atom counts when the laws spread over
    different weights; past SUPPORT_LIMIT points it raises
    ResourceLimitError before allocating.  No array grows with the box:
    the box is rows (every weight but the last) by columns (the last
    weight), and it is walked in slabs of value, equal-width ranges that
    hold about _BLOCK points each.  A slab is gathered, sorted and
    accumulated on its own, so memory is O(rows + columns + _BLOCK); its
    sort is a radix pass on a 16-bit key of value, then a stable sort of
    that nearly sorted order, which is the slab's stable order.  Both
    sides' masses ride in one complex array, a's real and b's imaginary.
    Its products are taken on the float parts, and complex zero tests and
    sums act part by part, so its one cumsum makes the float additions of
    two.

    The walk starts at the lowest slab and stops before the first slab
    whose remaining mass cannot reach the peak, the largest gap at a
    confirmed cluster end.  With A and B the running totals and d the
    gap |A - B| after the last slab walked, a later gap is d plus at most
    the sum of |a_p - b_p| over the points p at or above the slab's lower
    bound.  Two sums bound that.  r is the absolute mass, the sum of
    |a_p| + |b_p|: |row mass| times a suffix sum of |column masses| from
    the row's cut, over the rows that meet the slab, plus a suffix sum
    over the rows wholly above it.  r_s is the signed mass: point
    p = (i, j) has a_p - b_p = (ra_i - rb_i) ca_j + rb_i (ca_j - cb_j), so
    r_s takes |ra_i - rb_i| times the suffix sum of |ca| and |rb_i| times
    that of |ca - cb|, over the same rows.  The walk stops when
    d + min(r, r_s) + slack (d + r + |A| + |B|) + floor <= peak, with
    slack = 2 (n + 8) eps and floor = 8 n eta for n box points and eta the
    smallest subnormal.  With u = eps / 2 and n u <= 1.2e-9 under
    SUPPORT_LIMIT, a later gap also carries these roundings: the cumsum
    adds at most n terms to A and B, so it errs by at most about
    n u (|A| + |B| + r); each mass is one rounded product, within u
    relative and eta / 2 absolute of its exact value, which adds at most
    u r + n eta; and r and r_s each sum nonnegative terms in at most
    rows + columns + 6 <= n + 7 rounded steps (the differences and two
    products per row, eta / 2 each), so each lies within about
    (n + 7) u relative and n eta absolute of its exact sum, and
    min(r, r_s) <= r.  With the final |.| that is at most
    (2 n + 13) u (d + r + |A| + |B|) + 3 n eta, less than half of the
    margin; the rest covers the rounding of the test itself.  So no later
    gap exceeds the peak, nor does d, the gap still pending, and the peak
    is the float the full walk returns.  Every number the walk computes is
    the one a single sort of the whole box would give, and the slabs it
    skips cannot change the maximum.
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
    if count == 0:
        return 0.0
    # Box point (i, j) has value row_v[i] + col_v[j] and masses
    # row_a[i] * col_a[j] and row_b[i] * col_b[j], the same operations the
    # full outer products would make, in weight order.
    row_v, row_a, row_b = np.zeros(1), np.ones(1), np.ones(1)
    for union, w, f, g in zip(unions[:-1], a.basis.weights, a.factors, b.factors):
        row_v = np.add.outer(row_v, union * w).ravel()
        row_a = np.multiply.outer(row_a, _laid_on(union, f)).ravel()
        row_b = np.multiply.outer(row_b, _laid_on(union, g)).ravel()
    union, w = unions[-1], a.basis.weights[-1]
    col_v = union * w
    col_a, col_b = _laid_on(union, a.factors[-1]), _laid_on(union, b.factors[-1])

    # Slab k holds the points whose exact float value v has
    # bounds[k] <= v < bounds[k + 1], so equal values share a slab, and a
    # row's share of a slab is one run of columns.  Float addition is
    # monotone, so the box's extreme values are the extreme row plus the
    # extreme column, and along the rows in value order each row's lowest
    # and highest points are nondecreasing.  The rows that meet a slab are
    # a contiguous run of that order, so a row's cut at a slab's lower bound
    # is its cut at the previous slab's upper one, or 0 if it met no slab
    # yet; cuts keeps it per row.
    slabs = -(-count // _BLOCK)
    low = row_v.min() + col_v[0]
    bounds = low + np.arange(slabs + 1) * ((row_v.max() + col_v[-1] - low) / slabs)
    bounds[0], bounds[-1] = -np.inf, np.inf
    rank = np.argsort(row_v, kind="stable")
    row_low, row_high = row_v[rank] + col_v[0], row_v[rank] + col_v[-1]
    cuts = np.zeros(row_v.size, dtype=np.intp)

    # Every box value is N float products k_i w_i added in weight order, so
    # with the weights read as doubles (relative error u = eps / 2) it lies
    # within about (N + 1) u M of its exact sum, M = sum_i max |k_i| w_i
    # bounding every partial sum.  Two values with equal exact sums differ
    # by at most (N + 1) eps M <= 2 N eps M; tol doubles that.
    eps = np.finfo(float).eps
    magnitude = sum(np.abs(union).max() * w for union, w in zip(unions, a.basis.weights))
    tol = 4 * len(unions) * eps * magnitude

    # The absolute and the signed mass at or above a slab's lower bound
    # (see the docstring): per row that meets the slab, row terms times
    # column suffix sums from its cut, plus above[top], every row from
    # rank position top up.  Column k of row_m pairs with column k of
    # tail; the first two sum to the absolute mass, the last two to the
    # signed one.
    abs_b = np.abs(row_b)
    row_m = np.stack((np.abs(row_a), abs_b, np.abs(row_a - row_b), abs_b), axis=1)
    tail = _suffix_sums(np.abs(np.stack((col_a, col_b, col_a, col_a - col_b), axis=1)))
    above = _suffix_sums((row_m * tail[0])[rank])
    slack = 2 * (count + 8) * eps
    floor = 8 * count * np.finfo(float).smallest_subnormal

    # a's masses ride as the real parts and b's as the imaginary ones, and
    # a slab's products multiply the float parts of its rows' and columns'
    # masses pair by pair.  A slab gathers its rows' runs row by row in box
    # order, so its stable order is its part of the whole box's stable
    # order.  Both sides accumulate in the same order, so the result is
    # exactly symmetric in (a, b).  Slot 0 of the cumsum carries the previous
    # slab's totals, and cumsum adds strictly in order, so the slabs give
    # one cumsum's numbers; -0.0 starts each part, as -0.0 + x is x for
    # every x.  A slab's last point is a cluster end once the next slab's
    # first value lies more than tol above it, or when no slab follows.
    row_ab = np.stack((row_a, row_b), axis=1).view(np.complex128).ravel()
    col_ab = np.stack((col_a, col_b), axis=1).view(np.complex128).ravel()
    total = complex(-0.0, -0.0)
    last = -np.inf
    peak = pending = 0.0
    for lower, upper in zip(bounds[:-1], bounds[1:]):
        top = np.searchsorted(row_low, upper)
        rows = np.sort(rank[np.searchsorted(row_high, lower) : top])
        start = cuts[rows]
        mass_a, mass_b, diff_a, diff_b = (row_m[rows] * tail[start]).sum(axis=0) + above[top]
        rest, signed = mass_a + mass_b, diff_a + diff_b
        carried = abs(total.real) + abs(total.imag)
        if pending + min(rest, signed) + (slack * (pending + rest + carried) + floor) <= peak:
            break
        rows_v = row_v[rows]
        stop = _cut(rows_v, col_v, upper)
        cuts[rows] = stop
        runs = stop - start
        first = np.cumsum(runs) - runs  # each run's first slot in the slab
        col = np.arange(runs.sum()) + np.repeat(start - first, runs)
        mass = np.repeat(row_ab[rows], runs)
        np.multiply(mass.view(float), col_ab[col].view(float), out=mass.view(float))
        values = np.repeat(rows_v, runs) + col_v[col]
        keep = mass != 0.0
        if not keep.any():
            continue
        if not keep.all():
            values, mass = values[keep], mass[keep]
        order = _stable_order(values)
        values, mass = values[order], mass[order]
        if values[0] - last > tol:
            peak = np.maximum(peak, pending)
        cdf = np.concatenate(([total], mass))
        np.cumsum(cdf, out=cdf)
        gaps = np.abs(cdf.real[1:] - cdf.imag[1:])
        peak = np.maximum(peak, np.max(gaps[:-1][np.diff(values) > tol], initial=0.0))
        total, last, pending = cdf[-1], values[-1], gaps[-1]
    return float(np.maximum(peak, pending))
