"""Laws of weighted sums ``w_1 S_1 + ... + w_N S_N`` of independent lattice sums.

A weight basis fixes positive reals ``w_1, ..., w_N``.  A weighted measure
stores one lattice measure per weight; its law is their product pushed
onto the real line by ``(k_1, ..., k_N) -> sum_i k_i w_i``.  Convolution
acts weight by weight on the integer lattice, so it never loses support
identity to float rounding.  Real values are formed only where a
cumulative function is read: the Kolmogorov distance builds them once on
the union of both laws' lattice points, the concentration function from
one measure's atoms.  In both, real values within a tolerance
proportional to the largest value in play are one location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .lattice import (
    LatticeMeasure,
    PROBABILITY_MASS_TOL,
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

# A result exceeding this many support points aborts with ResourceLimitError
# instead of exhausting memory.
SUPPORT_LIMIT = 10**7

# Two support points share a CDF location iff their real values differ by at
# most MERGE_TOL_SCALE * (1 + max |value|).
MERGE_TOL_SCALE = 1e-9


class ResourceLimitError(RuntimeError):
    """Raised when a weighted support would exceed SUPPORT_LIMIT points."""


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

    @property
    def ratio(self) -> float:
        """max weight / min weight; enters every weighted bound factor."""
        return max(self.weights) / min(self.weights)


@dataclass(frozen=True, eq=False)
class WeightedMeasure:
    """Finite signed measure of ``sum_i w_i X_i`` for independent lattice ``X_i``.

    ``factors`` holds one lattice measure per weight of ``basis``, in weight
    order, with ``delta(0)`` on weights that carry nothing; the measure is
    their product pushed through ``(k_1, ..., k_N) -> sum_i k_i w_i``.
    Construct via :func:`lift` and :func:`wconvolve`, or directly from one
    law per weight.  Real-valued atoms are built once, on first use, by
    :attr:`masses`, :meth:`values` and everything reading them.
    """

    basis: WeightBasis
    factors: tuple[LatticeMeasure, ...]

    def __post_init__(self) -> None:
        factors = tuple(self.factors)
        if len(factors) != self.basis.size:
            raise ValueError("need exactly one factor per weight of the basis")
        count = math.prod(len(f) for f in factors)
        if count > SUPPORT_LIMIT:
            raise ResourceLimitError(
                f"weighted support would hold {count} points (limit {SUPPORT_LIMIT})"
            )
        object.__setattr__(self, "factors", factors)

    @property
    def error_budget(self) -> float:
        """The factors' budgets folded as a convolution of their products."""
        budget, tv = 0.0, 1.0
        for f in self.factors:
            budget = budget * f.tv + f.error_budget * tv + budget * f.error_budget
            tv *= f.tv
        return budget

    @cached_property
    def _atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Atom values and masses in lexicographic order of the factor
        supports, with products that are exactly 0.0 dropped."""
        values = np.zeros(1)
        masses = np.ones(1)
        for f, w in zip(self.factors, self.basis.weights):
            values = np.add.outer(values, f.support * w).ravel()
            masses = np.multiply.outer(masses, f.masses).ravel()
        keep = masses != 0.0
        values, masses = values[keep], masses[keep]
        values.setflags(write=False)
        masses.setflags(write=False)
        return values, masses

    @property
    def masses(self) -> np.ndarray:
        return self._atoms[1]

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @property
    def tv(self) -> float:
        return float(np.abs(self.masses).sum())

    @property
    def is_probability(self) -> bool:
        if self.masses.size == 0:
            return False
        if np.any(self.masses < 0.0):
            return False
        return abs(self.total_mass - 1.0) <= PROBABILITY_MASS_TOL + self.error_budget

    def values(self) -> np.ndarray:
        """Real positions of the atoms, aligned with :attr:`masses`."""
        return self._atoms[0]

    def __len__(self) -> int:
        return int(self.masses.size)

    def __repr__(self) -> str:
        return (
            f"WeightedMeasure({len(self)} atoms over weights "
            f"{self.basis.weights}, mass={self.total_mass:.6g})"
        )


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


def wkolmogorov_distance(a: WeightedMeasure, b: WeightedMeasure) -> float:
    """Kolmogorov distance: sup over x of |(a - b)((-inf, x])|.

    Both laws are laid on one set of lattice points: per weight, the union
    of the two factors' supports where they carry nonzero mass.  Each
    point's real value is built as for the measures' own atoms and sorted
    once for both sides; neither measure builds its atoms.  Values that
    differ by at most the merge tolerance are one CDF location (clustered
    by consecutive gaps), and the two CDFs are compared at each cluster's
    last point.

    The work is linear in the product over weights of the union sizes,
    which exceeds both operands' atom counts when the laws spread over
    different weights; past SUPPORT_LIMIT points it raises
    ResourceLimitError before allocating.
    """
    if a.basis.weights != b.basis.weights:
        raise ValueError("Kolmogorov distance requires a common basis")
    sides = [(_nonzero(f), _nonzero(g)) for f, g in zip(a.factors, b.factors)]
    unions = [_sorted_union(fs, gs) for (fs, _), (gs, _) in sides]
    count = math.prod(u.size for u in unions)
    if count > SUPPORT_LIMIT:
        raise ResourceLimitError(
            f"Kolmogorov distance would range over {count} lattice points "
            f"(limit {SUPPORT_LIMIT})"
        )
    values = np.zeros(1)
    mass_a = np.ones(1)
    mass_b = np.ones(1)
    for support, ((fs, fm), (gs, gm)), w in zip(unions, sides, a.basis.weights):
        on_f = np.zeros(support.size)
        on_f[np.searchsorted(support, fs)] = fm
        on_g = np.zeros(support.size)
        on_g[np.searchsorted(support, gs)] = gm
        values = np.add.outer(values, support * w).ravel()
        mass_a = np.multiply.outer(mass_a, on_f).ravel()
        mass_b = np.multiply.outer(mass_b, on_g).ravel()
    keep = (mass_a != 0.0) | (mass_b != 0.0)
    values, mass_a, mass_b = values[keep], mass_a[keep], mass_b[keep]
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
    """Maximal probability of a closed window ``[x, x + h]`` on the real line."""
    if not f.is_probability:
        raise ValueError("wconcentration requires a probability distribution")
    if not (h >= 0.0):
        raise ValueError("window length h must be nonnegative")
    values = f.values()
    order = np.argsort(values, kind="stable")
    values = values[order]
    masses = f.masses[order]
    tol = _merge_tol(values)
    cum = np.cumsum(masses)
    right = np.searchsorted(values, values + h + tol, side="right") - 1
    left = np.searchsorted(values, values - tol, side="left")
    below_left = np.concatenate([[0.0], cum])
    return float(np.max(cum[right] - below_left[left]))
