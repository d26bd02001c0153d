"""Markov Binomial distribution: exact pmf, regime checks, simulation.

The chain lives on {0, 1}: from state 1 it stays with probability ``p`` and
leaves with ``q = 1 - p``; from state 0 it switches on with probability
``q_bar`` and stays with ``p_bar = 1 - q_bar``.  The chain starts at 0, and
the statistic is the number of time steps among 1..n spent in state 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import LatticeMeasure

__all__ = [
    "MBParams",
    "Cond1Report",
    "mb_pmf",
    "mb_pmfs",
    "mb_variance",
    "cond1_check",
    "mb_simulate",
]

# Edge mass below _FLOOR is dropped from the DP band into the law's budget.
# The DP's own rounding moves a law by about n * eps in L1, and trimming
# drops at most n * eps^2, eps times less.
_FLOOR = np.finfo(np.float64).eps ** 2


@dataclass(frozen=True)
class MBParams:
    """Chain parameters: stay probability p, switch-on probability q_bar, horizon n."""

    p: float
    q_bar: float
    n: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.p < 1.0):
            raise ValueError("p must lie in [0, 1)")
        if not (0.0 < self.q_bar <= 1.0):
            raise ValueError("q_bar must lie in (0, 1]")
        if int(self.n) < 1:
            raise ValueError("n must be >= 1")
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
    its trimmed band, with the dropped mass as its ``error_budget``."""
    return mb_pmfs(params.p, params.q_bar, (params.n,))[0]


def mb_pmfs(
    p: float, q_bar: float, horizons: Sequence[int]
) -> tuple[LatticeMeasure, ...]:
    """Pmfs of the occupation count at each of the increasing horizons.

    One dynamic programme runs to the largest horizon and keeps the law at
    each horizon on its way.  State arrays f0[k], f1[k] hold the probability
    of k successes so far with the chain currently in state 0 resp. 1.  A
    step updates only the band [lo, top]; every entry outside it is 0.0.
    After each step the band's edges are trimmed: the new top entry (at
    top + 1) joins the band only if its mass is at least ``_FLOOR``, and the
    lowest entry (f0 + f1 at lo) leaves it if its mass is below.  A dropped
    entry counts as 0.0 and its mass is added to a running total, and
    neither edge moves back.  Each law is stored on its band, with the total dropped
    so far as its ``error_budget``.

    Every step is a stochastic map (p + q = 1, q_bar + p_bar = 1) that
    never lowers an index, so the L1 gap between a law and the untrimmed
    O(n^2) table is at most its budget.  The band holds all mass but that
    budget, so a band of one entry is never dropped and lo never passes
    top; as each step drops at most one entry per edge, n steps drop at
    most n entries, n * ``_FLOOR`` in all.  Kept entries are the table's
    expressions in the same operand order, so a law that dropped nothing
    is bit-identical to the table.  For (p, q_bar) = (0.3, 0.02) at
    n = 10^4 the band is [75, 572], 498 masses against the table's 10001
    (8355 of them 0.0), with budget 2.9e-28.
    """
    grid = [int(n) for n in horizons]
    if not grid:
        raise ValueError("horizons must be nonempty")
    if grid[0] < 1:
        raise ValueError("horizons must be >= 1")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("horizons must be strictly increasing")
    chain = MBParams(p=p, q_bar=q_bar, n=grid[-1])
    p, q, q_bar, p_bar = chain.p, chain.q, chain.q_bar, chain.p_bar
    f0, f1, g0, g1 = (np.zeros(chain.n + 1) for _ in range(4))
    scratch = np.empty(chain.n + 1)
    f0[0] = 1.0
    # The buffers g0/g1 being overwritten hold the state two steps back.  A
    # step reads only [lo, top], and g0 is never written above top, so
    # f0[top] is 0.0 when top grows; f1[lo] is set to 0.0, as it may hold
    # a stale entry from when lo was lower.  Other entries outside the band,
    # dropped ones included, are never read.
    lo = top = 0
    dropped = 0.0
    laws = []
    wanted = iter(grid)
    horizon = next(wanted)
    for t in range(1, chain.n + 1):
        end = top + 1
        old1, old0, tmp = f1[lo:end], f0[lo:end], scratch[: end - lo]
        new1, new0 = g1[lo + 1 : end + 1], g0[lo:end]
        np.multiply(old1, p, out=new1)
        np.multiply(old0, q_bar, out=tmp)
        np.add(new1, tmp, out=new1)
        np.multiply(old1, q, out=new0)
        np.multiply(old0, p_bar, out=tmp)
        np.add(new0, tmp, out=new0)
        g1[lo] = 0.0
        if g1[end] < _FLOOR:
            dropped += g1[end]
        else:
            top = end
        if g0[lo] < _FLOOR:
            dropped += g0[lo]
            lo += 1
        f0, f1, g0, g1 = g0, g1, f0, f1
        if t == horizon:
            masses = np.add(f0[lo : top + 1], f1[lo : top + 1])
            support = np.arange(lo, top + 1, dtype=np.int64)
            laws.append(LatticeMeasure(support, masses, float(dropped)))
            horizon = next(wanted, None)
    return tuple(laws)


def mb_variance(params: MBParams) -> float:
    """Exact variance of the occupation count, in closed form and O(1).

    With lambda = p - q_bar, stationary masses pi1 = q_bar/(q + q_bar) and
    pi0 = 1 - pi1, and the chain started at 0, the occupation probability
    is m_t = pi1 (1 - lambda^t) and Cov(X_s, X_t) = m_s (pi0 lambda^(t-s)
    + pi1 lambda^t) for s < t.  Summing these over 1 <= s <= t <= n leaves
    geometric series in lambda and lambda^2; the lambda^2 series is n
    itself when lambda = -1 (p = 0, q_bar = 1), where 1 - lambda^2 = 0.

    The sums cancel when the chain is sticky (q + q_bar small): against
    ``mb_pmf`` the relative error is below 1e-13 for q + q_bar >= 0.03 but
    grows to about 1e-7 at q + q_bar = 1e-3.
    """
    n, p, q, q_bar, p_bar = params.n, params.p, params.q, params.q_bar, params.p_bar
    lam = p - q_bar
    one_minus_lam = q + q_bar
    pi1 = q_bar / one_minus_lam
    pi0 = q / one_minus_lam
    lam_n1 = lam ** (n + 1)
    # Sums over t = 1..n of lambda^t and of lambda^(2t).
    s1 = lam * (1.0 - lam**n) / one_minus_lam
    one_minus_lam2 = one_minus_lam * (p + p_bar)
    if one_minus_lam2 == 0.0:
        s2 = float(n)
    else:
        s2 = lam**2 * (1.0 - lam ** (2 * n)) / one_minus_lam2
    sum_m = pi1 * (n - s1)
    sum_m2 = pi1 * pi1 * (n - 2.0 * s1 + s2)
    # Sum over s <= n of m_s * Sum_{t=s+1..n} (pi0 lambda^(t-s) + pi1 lambda^t),
    # the s = n term being empty.
    cross = (
        pi0 * lam * sum_m
        - pi0 * pi1 * (s1 - n * lam_n1)
        + pi1 * pi1 * lam * (s1 - s2)
        - pi1 * lam_n1 * sum_m
    ) / one_minus_lam
    return sum_m - sum_m2 + 2.0 * cross


def cond1_check(params: MBParams, k0: int = 2) -> Cond1Report:
    """Check the regime under which the signed approximant bound is stated.

    Clauses: 0 < p <= 1/2, q_bar <= 1/30, and q_bar >= n^(-k0) so the
    switch-on rate is not vanishingly small relative to the horizon.
    Block weights are validated where they enter (ExperimentConfig,
    bound_markov), not here.
    """
    k0 = int(k0)
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
    draws = int(draws)
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
