"""Moment-matched approximants for lattice sums.

Two constructions live here.  The first matches a negative binomial law to a
prescribed mean and variance (possible exactly when the target is
overdispersed) and exposes the per-summand component whose n-fold
convolution power recovers the matched law.  The second builds the signed
compound-Poisson measure that tracks a Markov Binomial sum: the exponential
of a polynomial in the geometric excess measure, with coefficients chosen so
the first two moments agree with the chain's.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .lattice import (
    LatticeMeasure,
    _integer,
    _is_a,
    _tail_tol,
    convolve,
    delta,
    exp_measure,
)
from .markov import mb_variance

__all__ = [
    "UnderdispersedError",
    "NegBinParams",
    "DinCoefficients",
    "nb_match",
    "nb_component_pmf",
    "geometric_excess",
    "build_din",
]


class UnderdispersedError(ValueError):
    """Raised when a negative binomial fit needs variance > mean and lacks it."""


@dataclass(frozen=True)
class NegBinParams:
    """Negative binomial parameters: shape ``r > 0`` and success mass ``p_tilde``."""

    r: float
    p_tilde: float

    def __post_init__(self) -> None:
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise ValueError("r must be positive and finite")
        if not (0.0 < self.p_tilde < 1.0):
            raise ValueError("p_tilde must lie in (0, 1)")

    @property
    def q_tilde(self) -> float:
        return 1.0 - self.p_tilde

    @property
    def mean(self) -> float:
        return self.r * self.q_tilde / self.p_tilde

    @property
    def variance(self) -> float:
        return self.r * self.q_tilde / self.p_tilde**2


def nb_match(mean: float, variance: float) -> NegBinParams:
    """Negative binomial with the given mean and variance.

    Solves r = mean^2 / (variance - mean), p_tilde = mean / variance.
    Both must be real numbers (not bools); ValueError otherwise.
    """
    if not (_is_a(mean, numbers.Real) and _is_a(variance, numbers.Real)):
        raise ValueError("mean and variance must be real numbers")
    if not (mean > 0.0):
        raise ValueError("mean must be positive")
    if variance <= mean:
        raise UnderdispersedError(
            f"negative binomial needs variance > mean (got mean={mean}, "
            f"variance={variance})"
        )
    return NegBinParams(r=mean**2 / (variance - mean), p_tilde=mean / variance)


def nb_component_pmf(
    params: NegBinParams, n: int, tail_tol: float = 1e-10
) -> LatticeMeasure:
    """Pmf of one of ``n`` iid summands whose sum is NB(r, p_tilde).

    The component is NB(r/n, p_tilde).  Probabilities are exp of
    lgamma(shape + k) - lgamma(shape) - lgamma(k + 1) + shape log p_tilde +
    k log q_tilde, with ``math.lgamma``; the support is cut at the
    first point where a geometric domination bound puts the remaining
    tail below ``tail_tol``, and that bound enters the error budget.
    The bound uses the stepwise mass ratio q_tilde (shape + k)/(k + 1),
    which is eventually below 1, so the running float total (whose own
    rounding noise grows with the shape) never gates termination.
    ``tail_tol`` must be a finite positive number.
    """
    n = _integer(n, "component count n")
    if n < 1:
        raise ValueError("component count n must be >= 1")
    tail_tol = _tail_tol(tail_tol)
    shape = params.r / n
    log_p = math.log(params.p_tilde)
    log_q = math.log(params.q_tilde)
    chunk = 256
    masses: list[np.ndarray] = []
    total = 0.0
    cut_bound = 0.0
    start = 0
    while True:
        k = np.arange(start, start + chunk, dtype=np.float64)
        log_pmf = (
            np.array([math.lgamma(shape + j) for j in k])
            - math.lgamma(shape)
            - np.array([math.lgamma(j + 1.0) for j in k])
            + shape * log_p + k * log_q
        )
        block = np.exp(log_pmf)
        # Mass ratios pmf(j+1)/pmf(j) for j >= k never exceed
        # max(q_tilde (shape + k)/(k + 1), q_tilde), so the tail beyond k
        # is at most pmf(k) rho/(1 - rho) for that dominating rho.
        rho = np.maximum(
            params.q_tilde * (shape + k) / (k + 1.0), params.q_tilde
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            tail_cap = np.where(rho < 1.0, block * rho / (1.0 - rho), np.inf)
        hit = np.nonzero(tail_cap < tail_tol)[0]
        if hit.size:
            cut = int(hit[0])
            masses.append(block[: cut + 1])
            total += float(np.sum(block[: cut + 1]))
            cut_bound = float(tail_cap[cut])
            break
        masses.append(block)
        total += float(np.sum(block))
        start += chunk
        if start > 10**6:
            raise RuntimeError("negative binomial tail did not reach tail_tol")
    pmf = np.concatenate(masses)
    # The budget covers the cut tail plus the realised mass defect of the
    # kept part (log-gamma rounding), each tiny but neither signed.
    budget = cut_bound + abs(1.0 - total)
    return LatticeMeasure(
        np.arange(pmf.size, dtype=np.int64), pmf, error_budget=budget
    )


@dataclass(frozen=True)
class DinCoefficients:
    """Coefficients of the signed compound-Poisson approximant.

    The measure is exp{a1 * Y - a2 * Y**2} where Y is the geometric excess
    measure of the chain; ``gamma`` is the mixing rate q*q_bar/(q+q_bar).
    a1 matches the chain's mean and a2 its exact variance (see build_din).
    Under the small-switching regime (p <= 1/2, q_bar <= 1/30) gamma sits in
    [q_bar/2, q_bar] and a2 is nonnegative.
    """

    a1: float
    a2: float
    gamma: float


def geometric_excess(p: float, tail_tol: float = 1e-10) -> LatticeMeasure:
    """Centered geometric measure: mass q p^(k-1) at k >= 1 and -1 at 0,
    with q = 1 - p.

    Total mass is 0 up to the truncated geometric tail p^K < tail_tol, which
    is recorded in the error budget.  ``p = 0`` gives exactly
    delta(1) - delta(0).  ``p`` must be a real number (not a bool) and
    ``tail_tol`` a finite positive one; ValueError otherwise.
    """
    if not _is_a(p, numbers.Real):
        raise ValueError("p must be a real number")
    if not (0.0 <= p < 1.0):
        raise ValueError("p must lie in [0, 1)")
    q = 1.0 - p
    tail_tol = _tail_tol(tail_tol)
    if p == 0.0:
        return delta(1) - delta(0)
    cutoff = max(1, math.ceil(math.log(tail_tol) / math.log(p)))
    k = np.arange(1, cutoff + 1, dtype=np.float64)
    masses = q * p ** (k - 1.0)
    support = np.concatenate([[0], np.arange(1, cutoff + 1)]).astype(np.int64)
    return LatticeMeasure(
        support,
        np.concatenate([[-1.0], masses]),
        error_budget=p**cutoff,
    )


def build_din(params, tail_tol: float = 1e-10) -> tuple[DinCoefficients, LatticeMeasure]:
    """Signed compound-Poisson approximant of a Markov Binomial sum.

    ``params`` carries the chain's stay probability ``p``, switch-on
    probability ``q_bar``, and horizon ``n`` (see MBParams).  Returns the
    coefficients and the measure exp{a1*Y - a2*Y**2}, built with the
    geometric excess truncated at tail_tol/10 and the exponential expanded
    to the same tolerance, budgets combined.

    Moment behaviour: the cumulants of exp{M} are the raw moments of M, and
    Y has mass 0, m1(Y) = 1/q and m2(Y) = (1 + p)/q**2, while Y*Y has mass
    and mean 0 and m2(Y*Y) = 2/q**2.  So the result has mean a1/q and
    variance (a1 (1 + p) - 2 a2)/q**2.  a1 reproduces the chain's exact
    mean (including the start-at-zero transient) up to terms of order
    (p - q_bar)^n.  a2 = (a1 (1 + p) - q**2 Var)/2, with Var the chain's
    exact variance from ``mb_variance`` (O(log n) powering), so the
    variances agree up to rounding and the truncation budget.

    The coefficient of n in a2 is the variance's growth rate,
    q q_bar**2/(q + q_bar)**2 (p + q/(q + q_bar)) + gamma**2/2, the same as
    in the rate-only form a2 = n * rate.  The constant term, which carries
    the start-at-zero transient (6.7046e-3 at p = 0.3, q_bar = 0.02), is
    what the rate-only form lacks: without it the variance is 0.02737 too
    large at every n.  PAPER.md holds only the paper's abstract, so it
    does not settle whether the paper's a2 keeps this constant or only
    the rate term.
    """
    p, q, q_bar, n = params.p, params.q, params.q_bar, params.n
    denom = q + q_bar
    gamma = q * q_bar / denom
    a1 = gamma * (q_bar - p) / denom + n * gamma
    a2 = (a1 * (1.0 + p) - q * q * mb_variance(params)) / 2.0
    coeffs = DinCoefficients(a1=a1, a2=a2, gamma=gamma)
    y = geometric_excess(p, tail_tol / 10.0)
    argument = a1 * y - a2 * convolve(y, y)
    measure = exp_measure(argument, tail_tol / 10.0)
    return coeffs, measure
