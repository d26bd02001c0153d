"""Seeded property checks for the package's inequality toolbox.

Every check draws a random instance (lattice distributions with support
in [-8, 8], matched pairs, chain parameters) and verifies one family of
inequalities on it.  ``run_check`` executes a configurable number of
instances per family with a deterministic per-instance RNG, so a seed
fully determines the report.  Failures carry the offending instance
serialized as JSON.

The families cover: the smoothness bound on characteristic functions
(mineka2), the centered derivative bound (roos), the Fourier inversion
cap on total variation (inversion, whose integrals of |phi|^2 and
|phi'|^2 are exact sums by Parseval), concentration-function caps
(ac1, ac3), the factorial-moment expansion residual (expansion_residual),
the moment-matched gap cap and its even-order refinement (matched_gap,
matched_gap_sym), the geometric-excess transform bounds (excess_charfn), and the
basic norm inequalities (norms).

Clause contract: a family maps one RNG to a :class:`Clauses`, equal-length
``lhs``, ``rhs`` and ``slack`` arrays in a fixed order (mineka2 and
excess_charfn interleave their two clauses per grid point, and
excess_charfn's two ``gamma_*`` clauses come last) plus ``detail(i)``,
which builds clause i's JSON payload.  ``run_check`` finds the first
``lhs > rhs + slack`` in one vectorised comparison and calls ``detail``
for that clause only.

Constants that do not depend on the draw are built on first use and then
kept for the life of the process, never at import: the null-space basis
of ``gen_matched_pair`` per order s, the convolution powers of
delta(+-1) - delta(0) (``lattice._step_power``, shared with
``bounds.lemma_fg_gap_sym``) and the fixed grids of mineka2, roos and
excess_charfn with their draw-free factors.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .lattice import (
    LatticeMeasure,
    _factorial_moments,
    _integer,
    _step_power,
    char_fn,
    concentration,
    convolve,
    delta,
    exp_measure,
    kolmogorov_norm,
    moments,
    smoothness_u,
    tv_norm,
)
from .approximants import geometric_excess
from .bounds import lemma_fg_gap, lemma_fg_gap_sym
from .markov import MBParams

__all__ = [
    "RetryExhaustedError",
    "CheckResult",
    "CheckReport",
    "CHECK_NAMES",
    "CORE_INEQUALITY_CHECKS",
    "gen_matched_pair",
    "run_check",
]

GRID_POINTS = 50
SIMPSON_PANELS = 2048
QUADRATURE_SLACK = 1e-6
EXACT_SLACK = 1e-12
RESIDUAL_SLACK = 1e-9
MATCH_RETRIES = 1000
# Random measures draw their points from [-_MAX_POINT, _MAX_POINT].
_MAX_POINT = 8


class RetryExhaustedError(RuntimeError):
    """Raised when rejection sampling fails to produce a valid instance."""


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson integral of samples ``y`` on an increasing grid ``x``.

    Needs an odd number of points, so the panels pair up exactly.  The
    arithmetic follows scipy.integrate.simpson's unequal-spacing rule term
    for term, so the check families' integrals keep their bits.
    """
    if x.size < 3 or x.size % 2 == 0:
        raise ValueError("simpson needs an odd number of at least 3 points")
    h = np.diff(x)
    h0, h1 = h[:-1:2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    terms = hsum / 6.0 * (
        y[:-2:2] * (2.0 - 1.0 / h0divh1)
        + y[1::2] * (hsum * (hsum / hprod))
        + y[2::2] * (2.0 - h0divh1)
    )
    return float(np.sum(terms))


def null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of ``a``, one vector per column.

    Singular values at or below max(s)·eps·max(a.shape) count as zero,
    the same rank cut as scipy.linalg.null_space.
    """
    _u, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = np.max(s) * (np.finfo(s.dtype).eps * max(a.shape))
    rank = int(np.sum(s > tol))
    return vh[rank:].T.conj()


def _random_support(rng: np.random.Generator) -> np.ndarray:
    """2 to 8 distinct sorted points of [-_MAX_POINT, _MAX_POINT]."""
    size = int(rng.integers(2, 9))
    picks = rng.choice(2 * _MAX_POINT + 1, size=size, replace=False)
    picks.sort()
    return picks - _MAX_POINT


def _random_prob(rng: np.random.Generator) -> LatticeMeasure:
    support = _random_support(rng)
    return LatticeMeasure._owned(support, rng.dirichlet(np.ones(support.size)), 0.0)


def _random_signed(rng: np.random.Generator) -> LatticeMeasure:
    support = _random_support(rng)
    return LatticeMeasure._owned(support, rng.normal(0.0, 1.0, support.size), 0.0)


@functools.cache
def _matched_basis(s: int) -> np.ndarray:
    """Null-space basis of the rows 1, k, k(k-1), ... through order s on
    the points 0..8, i.e. of the point masses' factorial moments: the
    directions that keep a law's total mass and those moments."""
    columns = [_factorial_moments(delta(j), s, "plus") for j in range(9)]
    basis = null_space(np.vstack([np.ones(9), np.array(columns).T]))
    basis.setflags(write=False)
    return basis


def gen_matched_pair(
    seed: int | np.random.Generator, s: int
) -> tuple[LatticeMeasure, LatticeMeasure]:
    """Random pair of distributions on {0..8} with factorial moments
    matched through order s.

    The first measure is Dirichlet-random; the second adds a seeded
    element of the null space of the moment-constraint matrix, scaled to
    keep all masses nonnegative.  Raises RetryExhaustedError after 1000
    rejected draws.
    """
    s = _integer(s, "s")
    if s not in (1, 2, 3):
        raise ValueError("s must be 1, 2, or 3")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    basis = _matched_basis(s)
    support = np.arange(9, dtype=np.int64)
    for _ in range(MATCH_RETRIES):
        f_masses = rng.dirichlet(np.ones(9))
        direction = basis @ rng.normal(0.0, 1.0, basis.shape[1])
        peak = np.abs(direction).max()
        if peak < 1e-12:
            continue
        negative = direction < -1e-15
        if not negative.any():
            continue
        t_max = (f_masses[negative] / -direction[negative]).min()
        t = rng.uniform(0.2, 0.9) * t_max
        g_masses = f_masses + t * direction
        if g_masses.min() < 0.0:
            continue
        f = LatticeMeasure._owned(support, f_masses, 0.0)
        g = LatticeMeasure._owned(support, g_masses, 0.0)
        if f.is_probability and g.is_probability:
            return f, g
    raise RetryExhaustedError(
        f"no valid moment-matched pair in {MATCH_RETRIES} draws"
    )


def _entries(m: LatticeMeasure) -> list:
    return m.to_json_dict()["entries"]


class Clauses(NamedTuple):
    """One instance's inequalities as equal-length arrays.

    Clause i holds when ``lhs[i] <= rhs[i] + slack[i]``; ``detail(i)``
    builds the JSON payload that describes it, and is called only for a
    reported failure.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    detail: Callable[[int], dict]


def _clauses(lhs, rhs, slack, detail: Callable[[int], dict]) -> Clauses:
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    return Clauses(lhs, rhs, np.full(lhs.shape, slack, dtype=np.float64), detail)


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ..."""
    out = np.empty(2 * a.size)
    out[0::2] = a
    out[1::2] = b
    return out


@functools.cache
def _unit_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """mineka2's and roos's grid t on [-pi, pi] with t^2, sin(t/2)^2 and
    |sin(t/2)|."""
    t = np.linspace(-math.pi, math.pi, GRID_POINTS)
    sin_half = np.sin(t / 2.0)
    return _frozen(t, t**2, sin_half**2, np.abs(sin_half))


@functools.cache
def _excess_grid(w: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """excess_charfn's grid t on [-pi/w, pi/w], the phases w t, and the
    right-hand sides 4|sin(w t/2)| and -(4/3) sin(w t/2)^2, interleaved."""
    t = np.linspace(-math.pi / w, math.pi / w, GRID_POINTS)
    sin_half = np.sin(w * t / 2.0)
    rhs = _interleave(4.0 * np.abs(sin_half), -(4.0 / 3.0) * sin_half**2)
    return _frozen(t, w * t, rhs)


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _check_mineka2(rng: np.random.Generator) -> Clauses:
    f = _random_prob(rng)
    u = smoothness_u(f)
    t, t_sq, sin_sq, _ = _unit_grid()
    lhs = np.abs(char_fn(f, t))
    mid = 1.0 - u * t_sq / (4.0 * math.pi)
    rhs = np.exp(-u * sin_sq / math.pi)
    return _clauses(
        _interleave(lhs, mid),
        _interleave(mid, rhs),
        EXACT_SLACK,
        lambda i: {"measure": _entries(f), "u": u, "t": float(t[i // 2])},
    )


def _check_roos(rng: np.random.Generator) -> Clauses:
    f = _random_prob(rng)
    summary = moments(f)
    t, _, _, abs_sin = _unit_grid()
    lhs = np.abs(char_fn(f, t, center=summary.mean, order=1))
    rhs = math.pi**2 * summary.variance * abs_sin
    return _clauses(
        lhs,
        rhs,
        EXACT_SLACK * (1.0 + rhs),
        lambda i: {
            "measure": _entries(f),
            "variance": summary.variance,
            "t": float(t[i]),
        },
    )


def _check_inversion(rng: np.random.Generator) -> Clauses:
    m = _random_signed(rng)
    nrm = tv_norm(m)
    if nrm == 0.0:
        return _clauses([], [], [], lambda i: {})
    weights = np.abs(m.masses)
    center = float(m.support @ weights / weights.sum())
    # phi(t) = sum_k m{k} e^{itk} is a trigonometric polynomial, so by
    # Parseval (1/2pi) int_{-pi}^{pi} |phi|^2 = sum_k m{k}^2, and the
    # centred derivative sum_k (k - c) m{k} e^{itk} gives sum_k ((k - c) m{k})^2.
    w = (m.support - center) * m.masses
    base = float(m.masses @ m.masses)
    deriv = float(w @ w)
    bs = (1.0, 2.0)
    rhs = [
        math.sqrt(1.0 + b * math.pi) * math.sqrt(base + deriv / b**2) for b in bs
    ]
    return _clauses(
        [nrm, nrm],
        rhs,
        QUADRATURE_SLACK,
        lambda i: {"measure": _entries(m), "center": center, "b": bs[i]},
    )


def _check_ac1(rng: np.random.Generator) -> Clauses:
    f = _random_prob(rng)
    h = float(rng.uniform(0.3, 4.0))
    q = concentration(f, h)
    t = np.linspace(-1.0 / h, 1.0 / h, SIMPSON_PANELS + 1)
    integral = simpson(np.abs(char_fn(f, t)), t)
    rhs = (96.0 / 95.0) ** 2 * h * integral
    return _clauses(
        [q], [rhs], QUADRATURE_SLACK, lambda i: {"measure": _entries(f), "h": h}
    )


def _check_ac3(rng: np.random.Generator) -> Clauses:
    f = _random_prob(rng)
    h = float(rng.uniform(0.1, 6.0))
    a = float(rng.uniform(0.1, 6.0))
    lhs = concentration(f, h)
    rhs = (1.0 + h / a) * concentration(f, a)
    return _clauses(
        [lhs],
        [rhs],
        EXACT_SLACK,
        lambda i: {"measure": _entries(f), "h": h, "a": a},
    )


def _check_expansion_residual(rng: np.random.Generator) -> Clauses:
    f = _random_prob(rng)
    s = int(rng.integers(1, 4))
    plus, minus = (_factorial_moments(f, s + 1, side) for side in ("plus", "minus"))
    residual = f - delta(0)
    for k in range(1, s + 1):
        c_plus = plus[k - 1] / math.factorial(k)
        c_minus = minus[k - 1] / math.factorial(k)
        residual = residual - c_plus * _step_power(1, k) - c_minus * _step_power(-1, k)
    cap = (plus[s] + minus[s]) * 2.0 ** (s + 1) / math.factorial(s + 1)
    return _clauses(
        [tv_norm(residual)],
        [cap],
        RESIDUAL_SLACK * (1.0 + cap),
        lambda i: {"measure": _entries(f), "s": s},
    )


def _pair_clause(f, g, s, lhs, cap) -> Clauses:
    return _clauses(
        [lhs],
        [cap],
        RESIDUAL_SLACK * (1.0 + cap),
        lambda i: {"f": _entries(f), "g": _entries(g), "s": s},
    )


def _check_matched_gap(rng: np.random.Generator) -> Clauses:
    s = int(rng.integers(1, 4))
    f, g = gen_matched_pair(rng, s)
    return _pair_clause(f, g, s, *lemma_fg_gap(f, g, s))


def _check_matched_gap_sym(rng: np.random.Generator) -> Clauses:
    f, g = gen_matched_pair(rng, 2)
    return _pair_clause(f, g, 2, *lemma_fg_gap_sym(f, g, 2))


_GAMMA_CLAUSES = ("gamma_lower", "gamma_upper")


def _check_excess_charfn(rng: np.random.Generator) -> Clauses:
    n = int(rng.integers(60, 400))
    p = float(rng.uniform(0.05, 0.5))
    q_bar = float(rng.uniform(max(n**-2.0, 0.002), 1.0 / 30.0))
    w = float(rng.choice([1.0, math.sqrt(2.0), 2.5]))
    params = MBParams(p=p, q_bar=q_bar, n=n)
    y = geometric_excess(p, tail_tol=1e-12)
    t, phases, envelope = _excess_grid(w)
    transform = char_fn(y, phases)
    gamma = params.q * q_bar / (params.q + q_bar)
    # Per t: |transform| <= 4|sin|, then the real part decays at least as
    # fast as -(4/3)sin^2 (tight at p = 1/2, tw = pi, exactly the regime's
    # p cap).  The two gamma clauses come last.
    lhs = np.concatenate(
        [_interleave(np.abs(transform), transform.real), [q_bar / 2.0, gamma]]
    )
    rhs = np.concatenate([envelope, [gamma, q_bar]])
    slack = [RESIDUAL_SLACK] * (2 * t.size) + [EXACT_SLACK] * 2

    def detail(i: int) -> dict:
        payload = {"p": p, "q_bar": q_bar, "n": n, "w": w}
        if i < 2 * t.size:
            return dict(payload, t=float(t[i // 2]))
        return dict(payload, clause=_GAMMA_CLAUSES[i - 2 * t.size])

    return _clauses(lhs, rhs, slack, detail)


_NORM_CLAUSES = (
    "tv_submultiplicative",
    "kolmogorov_convolution",
    "kolmogorov_le_tv",
    "exp_norm",
)


def _check_norms(rng: np.random.Generator) -> Clauses:
    a = _random_signed(rng)
    b = _random_signed(rng)
    ab = convolve(a, b)
    tv_a = tv_norm(a)
    scale = 2.5 / max(tv_a, 2.5)
    small = scale * a
    exp_small = exp_measure(small, tail_tol=1e-10)
    tv_tv = tv_a * tv_norm(b)
    tv_kol = tv_a * kolmogorov_norm(b)
    return _clauses(
        [tv_norm(ab), kolmogorov_norm(ab), kolmogorov_norm(a), tv_norm(exp_small)],
        [tv_tv, tv_kol, tv_a, math.exp(tv_norm(small))],
        [
            EXACT_SLACK * (1.0 + tv_tv),
            EXACT_SLACK * (1.0 + tv_kol),
            EXACT_SLACK,
            RESIDUAL_SLACK,
        ],
        lambda i: {"a": _entries(a), "b": _entries(b), "clause": _NORM_CLAUSES[i]},
    )


_REGISTRY: dict[str, object] = {
    "mineka2": _check_mineka2,
    "roos": _check_roos,
    "inversion": _check_inversion,
    "ac1": _check_ac1,
    "ac3": _check_ac3,
    "expansion_residual": _check_expansion_residual,
    "matched_gap": _check_matched_gap,
    "matched_gap_sym": _check_matched_gap_sym,
    "excess_charfn": _check_excess_charfn,
    "norms": _check_norms,
}

CHECK_NAMES: tuple[str, ...] = tuple(_REGISTRY)

# The families whose joint zero-failure run is the headline guarantee.
CORE_INEQUALITY_CHECKS: tuple[str, ...] = (
    "mineka2",
    "roos",
    "inversion",
    "ac1",
    "ac3",
    "expansion_residual",
    "matched_gap",
    "excess_charfn",
)

MAX_RECORDED_FAILURES = 5


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one family: instance counts and serialized failures."""

    name: str
    passed: int
    failed: int
    failures: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "failed": self.failed,
            "failures": list(self.failures),
        }


@dataclass(frozen=True)
class CheckReport:
    """Aggregate outcome of a seeded run over all requested families."""

    seed: int
    count: int
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.failed == 0 for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "ok": self.ok,
            "results": [r.to_json_dict() for r in self.results],
        }


def run_check(
    seed: int,
    count: int,
    names: tuple[str, ...] | list[str] | None = None,
    corrupt: str | None = None,
) -> CheckReport:
    """Run ``count`` seeded instances of each named check family.

    The RNG for family index i, instance j derives from spawn key (i, j)
    of the master seed, so reports are deterministic per seed and
    independent of which families are selected.  ``corrupt`` names a
    selected family whose right-hand sides are forced to -1.0, a self-test
    hook demonstrating failure reporting.  ``seed`` must be an integer
    >= 0 and ``count`` one >= 1 (ValueError otherwise).
    """
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    count = _integer(count, "count")
    if count < 1:
        raise ValueError("count must be >= 1")
    selected = list(CHECK_NAMES if names is None else names)
    for name in selected:
        if name not in _REGISTRY:
            raise ValueError(f"unknown check: {name}")
    if corrupt is not None and corrupt not in _REGISTRY:
        raise ValueError(f"unknown corrupt target: {corrupt}")
    if corrupt is not None and corrupt not in selected:
        raise ValueError(f"corrupt target {corrupt} is not among the selected checks")
    results = []
    for name in selected:
        index = CHECK_NAMES.index(name)
        fn = _REGISTRY[name]
        passed = 0
        failures: list[str] = []
        for j in range(count):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(index, j))
            )
            try:
                clauses = fn(rng)
            except Exception as exc:  # generator or check precondition blew up
                bad = {"instance": j, "error": f"{type(exc).__name__}: {exc}"}
            else:
                bad = _first_failure(clauses, corrupt == name, j)
            if bad is None:
                passed += 1
            elif len(failures) < MAX_RECORDED_FAILURES:
                failures.append(json.dumps(bad, sort_keys=True))
        results.append(CheckResult(name, passed, count - passed, tuple(failures)))
    return CheckReport(seed=seed, count=count, results=tuple(results))


def _first_failure(clauses: Clauses, corrupt: bool, instance: int) -> dict | None:
    """Record of instance's first clause with lhs > rhs + slack, or None.
    A corrupted family has every right-hand side forced to -1.0."""
    rhs = np.full(clauses.lhs.shape, -1.0) if corrupt else clauses.rhs
    fails = clauses.lhs > rhs + clauses.slack
    if not np.count_nonzero(fails):
        return None
    i = int(fails.argmax())
    return {
        "instance": instance,
        "lhs": float(clauses.lhs[i]),
        "rhs": float(rhs[i]),
        "slack": float(clauses.slack[i]),
        "detail": clauses.detail(i),
    }
