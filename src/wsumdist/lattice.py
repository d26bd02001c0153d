"""Finite signed measures on the integer lattice.

The carrier type for everything in this package is a finite signed measure
stored sparsely as a sorted support array plus a mass array.  Operations are
pure functions that return new measures.  Convolution-type operations trim
atoms whose magnitude falls below a relative threshold, and the removed mass
(together with any series-truncation tails) accumulates in an
``error_budget`` carried by each measure.  The budget is a first-order bound
on the total-variation gap between the stored measure and the untruncated
value it stands for, so callers can reason about tolerances explicitly.
The Markov-Binomial laws' budgets also bound their rounding, which grows
with the horizon (7.5e-12 at n = 10^4, 7.5e-10 at 10^6), so a long chain's
mass may leave 1 by more than ``PROBABILITY_MASS_TOL`` and stay a
probability law within its budget.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "LatticeMeasure",
    "MomentSummary",
    "TRIM_RELATIVE",
    "PROBABILITY_MASS_TOL",
    "delta",
    "from_entries",
    "from_json_dict",
    "convolve",
    "power",
    "powers",
    "exp_measure",
    "tv_norm",
    "kolmogorov_norm",
    "char_fn",
    "factorial_moment",
    "moments",
    "signed_moments",
    "smoothness_u",
    "concentration",
]

# Atoms below TRIM_RELATIVE * tv_norm are dropped (and accounted for) when a
# measure is canonicalised after convolution-type operations.
TRIM_RELATIVE = 1e-16

# Slack on |total mass - 1| for the probability flag, on top of the measure's
# own error budget.  Bare float noise lives here; accountable truncation
# (tail cuts in approximant constructors) lives in the budget.
PROBABILITY_MASS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class LatticeMeasure:
    """Finite signed measure on the integers.

    ``support`` is strictly increasing and ``masses`` is the same length.
    Masses may be exactly 0.0: measures built through :func:`from_entries`
    or a convolution-type operation store none (their trim drops zeros),
    but the Markov-Binomial laws keep every entry inside their band, whose
    edges are at least eps^2, and simulated laws keep empty bins.
    Instances are immutable; build them with :func:`delta` or
    :func:`from_entries` rather than by hand.  The constructor copies its
    input and raises ``ValueError`` on non-integral points and non-finite
    masses; the operations hand their freshly built arrays to the result
    without a copy.
    """

    support: np.ndarray
    masses: np.ndarray
    error_budget: float = 0.0

    def __post_init__(self) -> None:
        s, m = _checked_input(self.support, self.masses)
        _check_layout(s, m, self.error_budget)
        if np.count_nonzero(s[1:] <= s[:-1]):
            raise ValueError("support must be strictly increasing")
        s.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "masses", m)

    @classmethod
    def _owned(
        cls, support: np.ndarray, masses: np.ndarray, budget: float
    ) -> "LatticeMeasure":
        """Wrap int64 and float64 arrays that the caller hands over and no
        longer writes, with a support it built strictly increasing: the
        public constructor's shape and budget checks, without its copy and
        its integrality, finiteness and order scans."""
        _check_layout(support, masses, budget)
        support.setflags(write=False)
        masses.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "support", support)
        object.__setattr__(out, "masses", masses)
        object.__setattr__(out, "error_budget", budget)
        return out

    # -- basic views ---------------------------------------------------

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @property
    def tv(self) -> float:
        return float(np.abs(self.masses).sum())

    @property
    def is_probability(self) -> bool:
        """All masses nonnegative and total mass 1 within tolerance.

        The tolerance is ``PROBABILITY_MASS_TOL`` plus the measure's own
        error budget, so a pmf whose tail was cut by a constructor still
        counts as a probability distribution.
        """
        if self.support.size == 0:
            return False
        if self.masses.min() < 0.0:
            return False
        return abs(self.total_mass - 1.0) <= PROBABILITY_MASS_TOL + self.error_budget

    def mass_at(self, k: int) -> float:
        i = int(np.searchsorted(self.support, k))
        if i < self.support.size and self.support[i] == k:
            return float(self.masses[i])
        return 0.0

    def entries(self) -> Iterator[tuple[int, float]]:
        for k, m in zip(self.support.tolist(), self.masses.tolist()):
            yield k, m

    def as_dict(self) -> dict[int, float]:
        return dict(self.entries())

    def to_json_dict(self) -> dict:
        return {"entries": [[k, m] for k, m in self.entries()]}

    def __len__(self) -> int:
        return int(self.support.size)

    def __repr__(self) -> str:
        n = self.support.size
        if n == 0:
            return "LatticeMeasure(zero)"
        return (
            f"LatticeMeasure({n} atoms on [{self.support[0]}, {self.support[-1]}], "
            f"mass={self.total_mass:.6g}, tv={self.tv:.6g})"
        )

    # -- linear algebra ------------------------------------------------

    def __add__(self, other: "LatticeMeasure") -> "LatticeMeasure":
        if not isinstance(other, LatticeMeasure):
            return NotImplemented
        return self._plus(other.support, other.masses, other.error_budget)

    def __sub__(self, other: "LatticeMeasure") -> "LatticeMeasure":
        """``self + (-1.0) * other`` without building the negated measure:
        other's masses are negated and trimmed as ``*`` would trim them."""
        if not isinstance(other, LatticeMeasure):
            return NotImplemented
        return self._plus(*_kept(other.support, -other.masses, other.error_budget))

    def _plus(
        self, support: np.ndarray, masses: np.ndarray, budget: float
    ) -> "LatticeMeasure":
        """Sum with the measure held in (support, masses, budget): both
        sorted supports are merged into their union, each side's masses are
        placed by ``searchsorted`` (shared points add self's mass, then
        the other's) and the result is trimmed.  Equal supports skip the
        union and add the masses in place."""
        budget = self.error_budget + budget
        if support is self.support or (
            support.size == self.support.size and (support == self.support).all()
        ):
            return _trim(self.support, self.masses + masses, budget)
        union = _sorted_union(self.support, support)
        out = np.zeros(union.size)
        out[union.searchsorted(self.support)] = self.masses
        out[union.searchsorted(support)] += masses
        return _trim(union, out, budget)

    def __neg__(self) -> "LatticeMeasure":
        return (-1.0) * self

    def __mul__(self, c: float) -> "LatticeMeasure":
        if not isinstance(c, (int, float, np.integer, np.floating)):
            return NotImplemented
        c = float(c)
        return _trim(self.support, self.masses * c, abs(c) * self.error_budget)

    __rmul__ = __mul__


@dataclass(frozen=True)
class MomentSummary:
    """First two moments of a distribution on the integers."""

    mean: float
    variance: float


def _checked_input(points, masses) -> tuple[np.ndarray, np.ndarray]:
    """Fresh int64 points and float64 masses from outside input; a
    non-integral point or a non-finite mass raises ``ValueError`` rather
    than being truncated or carried."""
    raw = np.asarray(points)
    if raw.dtype.kind == "f" and not (
        np.isfinite(raw).all() and (raw == np.floor(raw)).all()
    ):
        raise ValueError("support points must be integers")
    m = np.array(masses, dtype=np.float64)
    if not np.isfinite(m).all():
        raise ValueError("masses must be finite")
    return np.array(raw, dtype=np.int64), m


def _is_a(value, kind) -> bool:
    """isinstance against a ``numbers`` class, refusing bool (an Integral)."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _integer(value, what: str) -> int:
    """``value`` as an int; raises ValueError unless it is an integer.

    ``int()`` would truncate 2.7 to 2 and read True as 1."""
    if not _is_a(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer")
    return int(value)


def _grid(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints; raises ValueError unless it is a
    nonempty, strictly increasing run of integers >= 1."""
    grid = tuple(values)
    if not grid:
        raise ValueError(f"{what} must be nonempty")
    if not all(_is_a(n, numbers.Integral) for n in grid):
        raise ValueError(f"{what} must be integers")
    grid = tuple(int(n) for n in grid)
    if grid[0] < 1:
        raise ValueError(f"{what} must be >= 1")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{what} must be strictly increasing")
    return grid


def _check_layout(support: np.ndarray, masses: np.ndarray, budget: float) -> None:
    if support.ndim != 1 or masses.ndim != 1 or support.size != masses.size:
        raise ValueError("support and masses must be 1-d arrays of equal length")
    if not 0.0 <= budget < math.inf:
        raise ValueError("error budget must be finite and nonnegative")


def _canonical(
    support: np.ndarray, masses: np.ndarray, budget: float
) -> LatticeMeasure:
    """Sort, merge duplicate atoms, trim negligible ones, account the trim.

    A support that is already strictly increasing (entries given in
    order) is neither sorted nor merged; it goes straight to the trim.
    """
    support = np.asarray(support, dtype=np.int64).ravel()
    masses = np.asarray(masses, dtype=np.float64).ravel()
    if support.size > 1 and not (support[1:] > support[:-1]).all():
        order = np.argsort(support, kind="stable")
        support = support[order]
        masses = masses[order]
        if (support[1:] == support[:-1]).any():
            uniq, inverse = np.unique(support, return_inverse=True)
            merged = np.zeros(uniq.size, dtype=np.float64)
            np.add.at(merged, inverse, masses)
            support, masses = uniq, merged
    return _trim(support, masses, budget)


def _trim(support: np.ndarray, masses: np.ndarray, budget: float) -> LatticeMeasure:
    """Drop zero atoms and those below ``TRIM_RELATIVE`` times the tv norm
    from a sorted, duplicate-free support; their mass joins the budget.

    The arrays are handed to the result as they are, so callers pass
    arrays they no longer write: fresh ones, or a measure's own read-only
    support.
    """
    return LatticeMeasure._owned(*_kept(support, masses, budget))


def _kept(
    support: np.ndarray, masses: np.ndarray, budget: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """``_trim``'s arrays and budget, before they become a measure.

    Above a positive floor every kept atom is nonzero, so one comparison
    does; a zero floor keeps the nonzero atoms.  A NaN mass makes the
    floor NaN and is dropped into the budget, which the measure refuses.
    """
    if support.size:
        mag = np.abs(masses)
        floor = TRIM_RELATIVE * float(mag.sum())
        keep = mag >= floor if floor > 0.0 else mag > 0.0
        if np.count_nonzero(keep) < keep.size:
            budget += float(mag[~keep].sum())
            support = support[keep]
            masses = masses[keep]
    return support, masses, budget


def _sorted_union(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of two integer arrays, as ``np.union1d``
    gives them; that goes through ``np.unique``, whose first call in a
    process imports ``numpy.ma``."""
    both = np.concatenate((x, y))
    both.sort()
    keep = np.empty(both.size, dtype=bool)
    keep[:1] = True
    np.not_equal(both[1:], both[:-1], out=keep[1:])
    return both[keep]


def _with_budget(m: LatticeMeasure, extra: float) -> LatticeMeasure:
    if extra == 0.0:
        return m
    return LatticeMeasure._owned(m.support, m.masses, m.error_budget + extra)


# -- constructors -------------------------------------------------------


def delta(a: int) -> LatticeMeasure:
    """Unit point mass at the integer ``a``."""
    return LatticeMeasure._owned(
        np.array([_integer(a, "point")], dtype=np.int64), np.array([1.0]), 0.0
    )


def from_entries(
    entries: Mapping[int, float] | Iterable[tuple[int, float]],
    error_budget: float = 0.0,
) -> LatticeMeasure:
    """Measure from a ``{point: mass}`` mapping or ``(point, mass)`` pairs.

    Points must be integers (integral floats count) and masses finite;
    anything else raises ``ValueError``.
    """
    if isinstance(entries, Mapping):
        pairs = list(entries.items())
    else:
        pairs = list(entries)
    if not pairs:
        return LatticeMeasure(np.array([], dtype=np.int64), np.array([]), error_budget)
    pts, ms = _checked_input([k for k, _ in pairs], [float(v) for _, v in pairs])
    return _canonical(pts, ms, error_budget)


def from_json_dict(payload: Mapping) -> LatticeMeasure:
    return from_entries(payload["entries"])


# -- convolution algebra -------------------------------------------------


def convolve(a: LatticeMeasure, b: LatticeMeasure) -> LatticeMeasure:
    """Convolution ``a * b``; the law of a sum of independent variables.

    Runs dense over the joint span when that is no larger than the sparse
    pair count, sparse otherwise, so point masses far from the origin do not
    force huge intermediate arrays.
    """
    budget = (
        a.error_budget * b.tv
        + b.error_budget * a.tv
        + a.error_budget * b.error_budget
    )
    if a.support.size == 0 or b.support.size == 0:
        return LatticeMeasure(np.array([], dtype=np.int64), np.array([]), budget)
    span_a = int(a.support[-1] - a.support[0]) + 1
    span_b = int(b.support[-1] - b.support[0]) + 1
    dense_len = span_a + span_b - 1
    pair_count = a.support.size * b.support.size
    if dense_len <= 2 * pair_count + 4096:
        fa = np.zeros(span_a)
        fa[a.support - a.support[0]] = a.masses
        fb = np.zeros(span_b)
        fb[b.support - b.support[0]] = b.masses
        out = np.convolve(fa, fb)
        offset = int(a.support[0] + b.support[0])
        pts = np.arange(offset, offset + dense_len, dtype=np.int64)
        return _trim(pts, out, budget)
    pts = (a.support[:, None] + b.support[None, :]).ravel()
    ms = (a.masses[:, None] * b.masses[None, :]).ravel()
    return _canonical(pts, ms, budget)


def power(a: LatticeMeasure, n: int) -> LatticeMeasure:
    """n-fold convolution power, :func:`powers` at the one count n; ``n = 0``
    is delta(0)."""
    return powers(a, (n,))[0]


def powers(a: LatticeMeasure, counts: Iterable[int]) -> tuple[LatticeMeasure, ...]:
    """The n-fold convolution powers of ``a`` for each n of ``counts``, in
    the order given; ``n = 0`` gives delta(0).

    The squares a^(2^j) are built once, each the convolution of the last
    with itself, up to the largest count's top bit.  Each power is the
    product of the squares for its set bits, lowest bit first, so it does
    not depend on the other counts.  All the requested powers are held
    together until the call returns them.  Every count is checked before
    any square is built.
    """
    counts = tuple(_integer(n, "convolution power n") for n in counts)
    if any(n < 0 for n in counts):
        raise ValueError("convolution power requires n >= 0")
    distinct = set(counts)
    results: dict[int, LatticeMeasure] = {}
    square = a
    for j in range(max(distinct, default=0).bit_length()):
        if j:
            square = convolve(square, square)
        for n in distinct:
            if n >> j & 1:
                results[n] = convolve(results[n], square) if n in results else square
    return tuple(results[n] if n else delta(0) for n in counts)


@functools.cache
def _step_power(sign: int, k: int) -> LatticeMeasure:
    """``(delta(sign) - delta(0))`` to the k-th convolution power, built on
    first use and then shared; measures are immutable."""
    return power(delta(sign) - delta(0), k)


def _tail_tol(tail_tol) -> float:
    """``tail_tol`` as a float; raises ValueError unless it is a finite
    positive real (not a bool, which would run as 1.0)."""
    if not (_is_a(tail_tol, numbers.Real) and 0.0 < tail_tol < math.inf):
        raise ValueError("tail_tol must be a finite positive number")
    return float(tail_tol)


def exp_measure(m: LatticeMeasure, tail_tol: float = 1e-10) -> LatticeMeasure:
    """Exponential ``exp{m} = sum_k m^k / k!`` in the convolution algebra.

    The series is cut at the smallest K whose factorial tail bound
    ``sum_{k>K} tv(m)^k / k!`` is below ``tail_tol``; the realised bound is
    added to the result's error budget.  Arguments with tv norm above 1 are
    halved (exactly, by powers of two) until the series is well conditioned
    and the result is squared back up, which keeps float cancellation out of
    the partial sums; the squaring steps propagate budgets like any other
    convolution.  ``_exp_series`` sums the cut series, in one dense buffer
    unless that buffer would be far longer than the series has atom pairs.
    ``tail_tol`` must be a finite positive number (ValueError otherwise).
    """
    tail_tol = _tail_tol(tail_tol)
    nrm = m.tv
    if nrm == 0.0:
        return _with_budget(delta(0), m.error_budget)
    halvings = max(0, math.ceil(math.log2(nrm)))
    if halvings == 0:
        return _exp_series(m, tail_tol)
    stage_tol = tail_tol / 4.0 ** (halvings + 1)
    out = _exp_series(m * (0.5**halvings), stage_tol)
    for _ in range(halvings):
        out = convolve(out, out)
    return out


def _exp_series(m: LatticeMeasure, tail_tol: float) -> LatticeMeasure:
    """``sum_{k<=K} m^k / k!`` with K from the tail rule, budget included.

    Term k lives on [k lo, k hi] for m's support [lo, hi], so the partial
    sum fits one dense buffer from min(0, K lo) to max(0, K hi).  m is laid
    on its span once; each term is ``np.convolve(term, m) * (1/k)`` on
    plain arrays, added into the buffer at its offset, and the buffer is
    trimmed once at the end.  These are the float operations of the
    term-by-term loop, which also trimmed every term and partial sum, so
    results differ from it only where those trims dropped an atom.

    The budget is the tail bound, plus the final trim, plus the input's
    budget e propagated as exp(tv + e) - exp(tv): that bounds
    sum_{k<=K} ((tv + e)^k - tv^k) / k!, the tv gap between the terms of m
    and those of any measure within e of it, which is what the loop's
    per-term ``convolve`` budgets add up to.

    The buffer is used when its length is at most 2 K |m|^2 + 4096 points:
    ``convolve``'s dense rule, with the series counted as K products of
    |m|^2 atom pairs.  Far-apart atoms (0 and 10^6, say) would need a
    buffer of K 10^6 points, so they keep the term-by-term loop of sparse
    ``convolve``s, whose budgets propagate e term by term.
    """
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
        if cutoff > 10_000:
            raise RuntimeError("exponential series failed to converge")
    lo, hi = int(m.support[0]), int(m.support[-1])
    base = min(0, cutoff * lo)
    length = max(0, cutoff * hi) - base + 1
    if length > 2 * cutoff * m.support.size**2 + 4096:
        acc = term = delta(0)
        for k in range(1, cutoff + 1):
            term = convolve(term, m) * (1.0 / k)
            acc = acc + term
        return _with_budget(acc, tail_bound)
    dense = np.zeros(hi - lo + 1)
    dense[m.support - lo] = m.masses
    acc = np.zeros(length)
    acc[-base] = 1.0
    term = np.ones(1)
    for k in range(1, cutoff + 1):
        term = np.convolve(term, dense) * (1.0 / k)
        start = k * lo - base
        acc[start : start + term.size] += term
    inherited = math.exp(nrm) * math.expm1(m.error_budget)
    pts = np.arange(base, base + length, dtype=np.int64)
    return _trim(pts, acc, tail_bound + inherited)


# -- norms and transforms -------------------------------------------------


def tv_norm(m: LatticeMeasure) -> float:
    """Total variation norm: sum of absolute atom masses."""
    return m.tv


def kolmogorov_norm(m: LatticeMeasure) -> float:
    """Uniform norm of the cumulative function: max |m((-inf, x])|."""
    if m.support.size == 0:
        return 0.0
    return float(np.max(np.abs(np.cumsum(m.masses))))


def char_fn(
    m: LatticeMeasure,
    t: float | np.ndarray,
    center: float = 0.0,
    order: int = 0,
):
    """Fourier transform of ``m`` recentred at ``center``.

    order 0 returns ``sum_k exp(i t (k - center)) m{k}``; order 1 returns its
    derivative in ``t``.  ``t`` may be a scalar (the result is a Python
    ``complex``) or an array.  The real phases ``t (k - center)`` are built
    once and the real and imaginary parts are the cosine and sine sums;
    order 1 folds ``k - center`` into the masses first.
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    t_arr = np.asarray(t, dtype=np.float64)
    shifted = m.support.astype(np.float64) - center
    x = np.multiply.outer(t_arr, shifted)
    if order == 0:
        out = np.cos(x) @ m.masses + 1j * (np.sin(x) @ m.masses)
    else:
        w = shifted * m.masses
        out = -(np.sin(x) @ w) + 1j * (np.cos(x) @ w)
    if np.isscalar(t) or t_arr.ndim == 0:
        return complex(out)
    return out


# -- moment functionals ---------------------------------------------------


def factorial_moment(f: LatticeMeasure, k: int, side: str = "plus") -> float:
    """One-sided factorial moment of order ``k``.

    ``side="plus"`` sums ``m (m-1) ... (m-k+1) f{m}`` over ``m >= k``;
    ``side="minus"`` does the same over the left tail using ``f{-m}``.
    """
    k = _integer(k, "factorial moment order")
    if k < 1:
        raise ValueError("factorial moment order must be >= 1")
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    return _factorial_moments(f, k, side)[-1]


def _factorial_moments(f: LatticeMeasure, order: int, side: str) -> list[float]:
    """``factorial_moment(f, k, side)`` for k = 1..order from one
    ``cumprod`` table whose row k - 1 holds the falling factorials
    x (x - 1) ... (x - k + 1) of the tail's points x.  Order k dots only
    the points x >= k, a run at the top of the support (plus) or at its
    bottom (minus), in support order, so its value does not depend on
    ``order``."""
    pts = (f.support if side == "plus" else -f.support).astype(np.float64)
    table = (pts - np.arange(order)[:, None]).cumprod(axis=0)
    ks = np.arange(1, order + 1)
    if side == "plus":
        runs = [slice(i, None) for i in f.support.searchsorted(ks).tolist()]
    else:
        ends = f.support.searchsorted(-ks, side="right").tolist()
        runs = [slice(None, i) for i in ends]
    return [float(row[run] @ f.masses[run]) for row, run in zip(table, runs)]


def _require_probability(f: LatticeMeasure, what: str) -> None:
    if not f.is_probability:
        raise ValueError(f"{what} requires a probability distribution")


def moments(f: LatticeMeasure) -> MomentSummary:
    """Mean and variance of a probability distribution."""
    _require_probability(f, "moments")
    return signed_moments(f)


def signed_moments(m: LatticeMeasure) -> MomentSummary:
    """Mean and variance forms with no probability validation.

    For signed measures of total mass near 1 these are the raw first and
    second centred moment sums; the variance can come out negative.
    """
    pts = m.support.astype(np.float64)
    mean = float(pts @ m.masses)
    variance = float(((pts - mean) ** 2) @ m.masses)
    return MomentSummary(mean=mean, variance=variance)


def smoothness_u(f: LatticeMeasure, g: LatticeMeasure | None = None) -> float:
    """Lattice smoothness: overlap of a distribution with its unit shift.

    For one argument this is ``sum_k min(f{k}, f{k-1})``, equivalently
    ``1 - tv(f * (delta(1) - delta(0))) / 2``.  With two arguments the
    smaller of the two values is returned.
    """
    _require_probability(f, "smoothness_u")
    if g is not None:
        _require_probability(g, "smoothness_u")
        return min(_shift_overlap(f), _shift_overlap(g))
    return _shift_overlap(f)


def _shift_overlap(f: LatticeMeasure) -> float:
    here = f.masses
    idx = np.searchsorted(f.support, f.support - 1)
    idx = np.clip(idx, 0, max(f.support.size - 1, 0))
    below = np.where(f.support[idx] == f.support - 1, f.masses[idx], 0.0)
    return float(np.minimum(here, below).sum())


def concentration(f: LatticeMeasure, h: float) -> float:
    """Maximal probability of a closed window ``[x, x + h]``.

    The supremum is attained with the window's left end on a support point,
    so only those positions are scanned.  On the integer lattice a window of
    length ``h`` covers ``floor(h) + 1`` consecutive points.
    """
    _require_probability(f, "concentration")
    if not (h >= 0.0):
        raise ValueError("window length h must be nonnegative")
    width = int(math.floor(h + 1e-12))
    cum = f.masses.cumsum()
    right = f.support.searchsorted(f.support + width, side="right") - 1
    below_left = np.concatenate(([0.0], cum[:-1]))
    return float((cum[right] - below_left).max())
