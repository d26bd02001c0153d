"""Markov Binomial distribution: exact pmf, regime checks, simulation.

The chain lives on {0, 1}: from state 1 it stays with probability ``p`` and
leaves with ``q = 1 - p``; from state 0 it switches on with probability
``q_bar`` and stays with ``p_bar = 1 - q_bar``.  The chain starts at 0, and
the statistic is the number of time steps among 1..n spent in state 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import LatticeMeasure, _grid, _integer, _is_a

__all__ = [
    "MBParams",
    "Cond1Report",
    "mb_pmf",
    "mb_pmfs",
    "mb_variance",
    "cond1_check",
    "mb_simulate",
]

# Edge mass below _FLOOR is dropped from a product's band into the budget;
# a product's rounding moves it by about eps per unit of mass, so trimming
# adds eps times less.
_EPS = float(np.finfo(np.float64).eps)
_FLOOR = _EPS**2


def _product(a, b):
    """fl(A @ B) for polynomial matrices, trimmed, with its L1 error bound.

    A matrix is ``(lo, coeffs, err)``: ``coeffs[i, j, t]`` is the coefficient
    of z^(lo + t) in entry (i, j), and ``err`` bounds the largest column L1
    gap to the exact matrix it stands for.  Edge positions where every entry
    is below ``_FLOOR`` are dropped and their mass added to ``err``.
    """
    (lo_a, pa, err_a), (lo_b, pb, err_b) = a, b
    out = np.zeros((pa.shape[0], pb.shape[1], pa.shape[2] + pb.shape[2] - 1))
    for i in range(pa.shape[0]):
        for j in range(pb.shape[1]):
            for k in range(pa.shape[1]):
                out[i, j] += np.convolve(pa[i, k], pb[k, j])
    kept = np.flatnonzero((out >= _FLOOR).any(axis=(0, 1)))
    first, stop = int(kept[0]), int(kept[-1]) + 1
    dropped = float(out[..., :first].sum() + out[..., stop:].sum())
    # An output coefficient is two convolution sums of at most m products
    # each, added: at most m + 1 roundings on any path, so it moves by at
    # most gamma_(m+1) = (m + 1) u / (1 - (m + 1) u) of its terms' sum.
    rounds = (min(pa.shape[2], pb.shape[2]) + 1) * _EPS / 2.0
    rounding = rounds / (1.0 - rounds) * (1.0 + err_a) * (1.0 + err_b)
    err = err_a + err_b + err_a * err_b + rounding + dropped
    return lo_a + lo_b + first, out[..., first:stop], err


@dataclass(frozen=True)
class MBParams:
    """Chain parameters: stay probability p, switch-on probability q_bar, horizon n."""

    p: float
    q_bar: float
    n: int

    def __post_init__(self) -> None:
        if not (_is_a(self.p, numbers.Real) and _is_a(self.q_bar, numbers.Real)):
            raise ValueError("p and q_bar must be real numbers")
        if not _is_a(self.n, numbers.Integral):
            raise ValueError("n must be an integer")
        if not (0.0 <= self.p < 1.0):
            raise ValueError("p must lie in [0, 1)")
        if not (0.0 < self.q_bar <= 1.0):
            raise ValueError("q_bar must lie in (0, 1]")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "q_bar", float(self.q_bar))
        object.__setattr__(self, "n", int(self.n))

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def p_bar(self) -> float:
        return 1.0 - self.q_bar


@dataclass(frozen=True)
class Cond1Report:
    """Outcome of the small-switching regime check at exponent k0."""

    ok: bool
    k0: int
    clauses: dict[str, bool]

    @property
    def violated_clauses(self) -> list[str]:
        return [name for name, held in self.clauses.items() if not held]


def mb_pmf(params: MBParams) -> LatticeMeasure:
    """Pmf of the occupation count: :func:`mb_pmfs` at the one horizon n, on
    its trimmed band, with its error bound as ``error_budget``."""
    return mb_pmfs(params.p, params.q_bar, (params.n,))[0]


def mb_pmfs(
    p: float, q_bar: float, horizons: Sequence[int]
) -> tuple[LatticeMeasure, ...]:
    """Pmfs of the occupation count at each of the increasing horizons.

    With f0[k], f1[k] the probability of k successes so far with the chain
    in state 0 resp. 1, one step maps (f0, f1) to M(z) (f0, f1) in
    generating functions, M(z) = [[p_bar, q], [z q_bar, z p]].  The law at n
    is f0 + f1 of M(z)^n (1, 0).  The squares M^(2^j) are built once, each
    the product of the last with itself; each horizon's law applies the
    squares for the set bits of n to the start vector (1, 0), lowest bit
    first.  So the law at n depends only on (p, q_bar, n), whatever else
    the grid holds.  A product multiplies the banded nonnegative entry
    polynomials with ``np.convolve``, and its edge positions where every
    entry is below ``_FLOOR`` are dropped into the budget, so every factor
    is stored on its band.

    The ``error_budget`` bounds the L1 gap to the exact law of the chain
    with transition probabilities p and q_bar (q = 1 - p, p_bar = 1 - q_bar
    exactly).  Gaps are taken in the column norm, a column's largest L1
    mass.  M(1) is column-stochastic and nonnegative, so every exact power
    has norm 1, and a computed product of factors within e_a and e_b of
    their powers lies within e_a + e_b + e_a e_b of the exact product, plus
    its rounding and the mass it drops.  An output coefficient sums
    nonnegative products through at most m + 1 roundings, m the shorter
    factor's band, so the rounding is at most gamma_(m+1) (1 + e_a)(1 + e_b)
    with gamma_k = k u / (1 - k u), u = eps/2.  M itself starts with the
    larger column defect |1 - (p + q)| or |1 - (q_bar + p_bar)|, taken
    exactly: fl(1 - p) and fl(1 - q_bar) miss by that much.  Each squaring
    doubles it, so the budget grows as n times the defect plus the
    products' rounding, and summing f0 + f1 adds u.  The total mass drifts
    from 1 by up to the budget (-3.3e-11 at n = 10^6 for (0.3, 0.02)), past
    the fixed ``PROBABILITY_MASS_TOL`` near n = 5*10^4, and
    ``is_probability`` adds the budget to that tolerance.

    The bound is worst-case: 7.5e-12 (3.4 n eps) at n = 10^4 for
    (0.3, 0.02).  Against a long-double DP at n = 10^4 the L1 errors are
    3.3e-13 for (0.3, 0.02) and 6.6e-14 for (0.99, 0.001), where an n-step
    float DP errs by 1.9e-13 and 7.5e-15; all lie inside n eps = 2.2e-12.
    """
    grid = _grid(horizons, "horizons")
    chain = MBParams(p=p, q_bar=q_bar, n=grid[-1])
    p, q, q_bar, p_bar = chain.p, chain.q, chain.q_bar, chain.p_bar
    defect = max(abs(math.fsum((1.0, -p, -q))), abs(math.fsum((1.0, -q_bar, -p_bar))))
    squares = [(0, np.array([[[p_bar, 0.0], [q, 0.0]], [[0.0, q_bar], [0.0, p]]]), defect)]
    laws = []
    for n in grid:
        state = (0, np.array([[[1.0]], [[0.0]]]), 0.0)
        for j in range(n.bit_length()):
            if j == len(squares):
                squares.append(_product(squares[-1], squares[-1]))
            if n >> j & 1:
                state = _product(squares[j], state)
        lo, coeffs, err = state
        masses = coeffs[0, 0] + coeffs[1, 0]
        support = np.arange(lo, lo + masses.size, dtype=np.int64)
        laws.append(LatticeMeasure._owned(support, masses, err + _EPS / 2.0 * (1.0 + err)))
    return tuple(laws)


def mb_variance(params: MBParams) -> float:
    """Exact variance of the occupation count, by O(log n) matrix powering.

    With lambda = p - q_bar, the chain started at 0 and m_t = P(X_t = 1),
    Cov(X_s, X_t) = h_s lambda^(t-s) for s <= t, h_s = m_s (1 - m_s).  So
    Var = Sum_{s=1..n} h_s w_(n-s) with w_k = 1 + 2 Sum_{j=1..k} lambda^j,
    and the state (1, m, 1 - m, h, H, V) of step t, H and V the sums of h
    and of h w up to t, follows the linear recurrence
        m' = q_bar + lambda m,      (1 - m)' = q + lambda (1 - m),
        h' = m' (1 - m)' = q q_bar + lambda q m + lambda q_bar (1 - m)
             + lambda^2 h,
        H' = H + h',                V' = h' + (1 + lambda) H + lambda V,
    as w_(k+1) = 1 + lambda + lambda w_k.  V at n is the last entry of the
    step matrix's n-th power applied to (1, 0, 1, 0, 0, 0).

    For lambda >= 0, the sticky chains included, every entry of the step
    matrix is nonnegative, so its powers add nonnegative terms and nothing
    cancels.  Each entry rounds at most twice (eps relative), which moves
    the n-th power by at most n eps relative, and the powering's products
    of six terms add about 3 n eps more.  Against exact rationals the
    relative error is at most 1.8e-13 for q + q_bar down to 1e-4 and n up
    to 10^4, where a closed form in geometric sums, which subtracts terms
    of size n (n - Sum lambda^t), errs by up to 7e-8.  For lambda < 0
    (q + q_bar > 1, far from sticky) the entries' signs alternate and this
    bound does not apply.
    """
    q, q_bar, lam = params.q, params.q_bar, params.p - params.q_bar
    h_step = [q * q_bar, lam * q, lam * q_bar, lam * lam]
    step = np.array(
        [
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [q_bar, lam, 0.0, 0.0, 0.0, 0.0],
            [q, 0.0, lam, 0.0, 0.0, 0.0],
            h_step + [0.0, 0.0],
            h_step + [1.0, 0.0],
            h_step + [1.0 + lam, lam],
        ]
    )
    start = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    return float(np.linalg.matrix_power(step, params.n)[5] @ start)


def cond1_check(params: MBParams, k0: int = 2) -> Cond1Report:
    """Check the regime under which the signed approximant bound is stated.

    Clauses: 0 < p <= 1/2, q_bar <= 1/30, and q_bar >= n^(-k0) so the
    switch-on rate is not vanishingly small relative to the horizon.
    Block weights are validated where they enter (ExperimentConfig,
    bound_markov), not here.
    """
    k0 = _integer(k0, "k0")
    if k0 < 2:
        raise ValueError("k0 must be >= 2")
    clauses = {
        "p_in_range": 0.0 < params.p <= 0.5,
        "q_bar_small": params.q_bar <= 1.0 / 30.0,
        "q_bar_not_tiny": params.q_bar >= params.n ** (-float(k0)),
    }
    return Cond1Report(ok=all(clauses.values()), k0=k0, clauses=clauses)


def mb_simulate(
    params: MBParams, draws: int, seed: int | np.random.Generator
) -> LatticeMeasure:
    """Empirical occupation-count law from ``draws`` independent chain runs.

    ``seed`` is an integer (deterministic per value) or a ready Generator.
    """
    draws = _integer(draws, "draws")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    state = np.zeros(draws, dtype=bool)
    counts = np.zeros(draws, dtype=np.int64)
    for _ in range(params.n):
        u = rng.random(draws)
        state = np.where(state, u < params.p, u < params.q_bar)
        counts += state
    freq = np.bincount(counts, minlength=params.n + 1) / float(draws)
    return LatticeMeasure(np.arange(params.n + 1, dtype=np.int64), freq)
