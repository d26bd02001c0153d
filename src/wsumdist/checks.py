"""Seeded property checks for the package's inequality toolbox.

Every check draws a random instance (lattice distributions with support
in [-8, 8], matched pairs, chain parameters) and verifies one family of
inequalities on it.  ``run_check`` executes a configurable number of
instances per family with a deterministic per-instance RNG, so a seed
fully determines the report.  Failures carry the offending instance
serialized as JSON.

The families cover: the smoothness bound on characteristic functions
(mineka2), the centered derivative bound (roos), the Fourier inversion
cap on total variation (inversion), concentration-function caps
(ac1, ac3), the factorial-moment expansion residual (expansion_residual),
the moment-matched gap cap and its even-order refinement (matched_gap,
matched_gap_sym), the geometric-excess transform bounds (excess_charfn), and the
basic norm inequalities (norms).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    LatticeMeasure,
    char_fn,
    concentration,
    convolve,
    delta,
    exp_measure,
    factorial_moment,
    kolmogorov_norm,
    moments,
    power,
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


def _random_prob(rng: np.random.Generator) -> LatticeMeasure:
    size = int(rng.integers(2, 9))
    support = np.sort(rng.choice(np.arange(-8, 9), size=size, replace=False))
    masses = rng.dirichlet(np.ones(size))
    return LatticeMeasure(support.astype(np.int64), masses)


def _random_signed(rng: np.random.Generator) -> LatticeMeasure:
    size = int(rng.integers(2, 9))
    support = np.sort(rng.choice(np.arange(-8, 9), size=size, replace=False))
    masses = rng.normal(0.0, 1.0, size)
    return LatticeMeasure(support.astype(np.int64), masses)


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
    s = int(s)
    if s not in (1, 2, 3):
        raise ValueError("s must be 1, 2, or 3")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    points = np.arange(9, dtype=np.float64)
    rows = [np.ones(9)]
    for k in range(1, s + 1):
        row = np.ones(9)
        for shift in range(k):
            row = row * (points - shift)
        rows.append(row)
    basis = null_space(np.vstack(rows))
    support = np.arange(9, dtype=np.int64)
    for _ in range(MATCH_RETRIES):
        f_masses = rng.dirichlet(np.ones(9))
        direction = basis @ rng.normal(0.0, 1.0, basis.shape[1])
        peak = np.max(np.abs(direction))
        if peak < 1e-12:
            continue
        negative = direction < -1e-15
        if not negative.any():
            continue
        t_max = np.min(f_masses[negative] / -direction[negative])
        t = rng.uniform(0.2, 0.9) * t_max
        g_masses = f_masses + t * direction
        if g_masses.min() < 0.0:
            continue
        f = LatticeMeasure(support, f_masses)
        g = LatticeMeasure(support, g_masses)
        if f.is_probability and g.is_probability:
            return f, g
    raise RetryExhaustedError(
        f"no valid moment-matched pair in {MATCH_RETRIES} draws"
    )


def _check_mineka2(rng: np.random.Generator) -> list[tuple]:
    f = _random_prob(rng)
    u = smoothness_u(f)
    t = np.linspace(-math.pi, math.pi, GRID_POINTS)
    lhs = np.abs(char_fn(f, t))
    mid = 1.0 - u * t**2 / (4.0 * math.pi)
    rhs = np.exp(-u * np.sin(t / 2.0) ** 2 / math.pi)
    payload = {"measure": f.to_json_dict()["entries"], "u": u}
    out = []
    for i in range(t.size):
        ctx = dict(payload, t=float(t[i]))
        out.append((float(lhs[i]), float(mid[i]), EXACT_SLACK, ctx))
        out.append((float(mid[i]), float(rhs[i]), EXACT_SLACK, ctx))
    return out


def _check_roos(rng: np.random.Generator) -> list[tuple]:
    f = _random_prob(rng)
    summary = moments(f)
    t = np.linspace(-math.pi, math.pi, GRID_POINTS)
    lhs = np.abs(char_fn(f, t, center=summary.mean, order=1))
    rhs = math.pi**2 * summary.variance * np.abs(np.sin(t / 2.0))
    payload = {"measure": f.to_json_dict()["entries"], "variance": summary.variance}
    return [
        (
            float(lhs[i]),
            float(rhs[i]),
            EXACT_SLACK * (1.0 + float(rhs[i])),
            dict(payload, t=float(t[i])),
        )
        for i in range(t.size)
    ]


def _check_inversion(rng: np.random.Generator) -> list[tuple]:
    m = _random_signed(rng)
    nrm = tv_norm(m)
    if nrm == 0.0:
        return []
    weights = np.abs(m.masses)
    center = float(m.support @ weights / weights.sum())
    t = np.linspace(-math.pi, math.pi, SIMPSON_PANELS + 1)
    base = np.abs(char_fn(m, t)) ** 2
    deriv = np.abs(char_fn(m, t, center=center, order=1)) ** 2
    payload = {"measure": m.to_json_dict()["entries"], "center": center}
    out = []
    for b in (1.0, 2.0):
        integral = simpson(base + deriv / b**2, t)
        rhs = math.sqrt(1.0 + b * math.pi) * math.sqrt(
            integral / (2.0 * math.pi)
        )
        out.append((nrm, rhs, QUADRATURE_SLACK, dict(payload, b=b)))
    return out


def _check_ac1(rng: np.random.Generator) -> list[tuple]:
    f = _random_prob(rng)
    h = float(rng.uniform(0.3, 4.0))
    q = concentration(f, h)
    t = np.linspace(-1.0 / h, 1.0 / h, SIMPSON_PANELS + 1)
    integral = simpson(np.abs(char_fn(f, t)), t)
    rhs = (96.0 / 95.0) ** 2 * h * integral
    payload = {"measure": f.to_json_dict()["entries"], "h": h}
    return [(q, rhs, QUADRATURE_SLACK, payload)]


def _check_ac3(rng: np.random.Generator) -> list[tuple]:
    f = _random_prob(rng)
    h = float(rng.uniform(0.1, 6.0))
    a = float(rng.uniform(0.1, 6.0))
    lhs = concentration(f, h)
    rhs = (1.0 + h / a) * concentration(f, a)
    payload = {"measure": f.to_json_dict()["entries"], "h": h, "a": a}
    return [(lhs, rhs, EXACT_SLACK, payload)]


def _check_expansion_residual(rng: np.random.Generator) -> list[tuple]:
    f = _random_prob(rng)
    s = int(rng.integers(1, 4))
    up = delta(1) - delta(0)
    down = delta(-1) - delta(0)
    residual = f - delta(0)
    for k in range(1, s + 1):
        c_plus = factorial_moment(f, k, "plus") / math.factorial(k)
        c_minus = factorial_moment(f, k, "minus") / math.factorial(k)
        residual = residual - c_plus * power(up, k) - c_minus * power(down, k)
    cap = (
        (factorial_moment(f, s + 1, "plus") + factorial_moment(f, s + 1, "minus"))
        * 2.0 ** (s + 1)
        / math.factorial(s + 1)
    )
    payload = {"measure": f.to_json_dict()["entries"], "s": s}
    return [(tv_norm(residual), cap, RESIDUAL_SLACK * (1.0 + cap), payload)]


def _check_matched_gap(rng: np.random.Generator) -> list[tuple]:
    s = int(rng.integers(1, 4))
    f, g = gen_matched_pair(rng, s)
    gap, cap = lemma_fg_gap(f, g, s)
    payload = {
        "f": f.to_json_dict()["entries"],
        "g": g.to_json_dict()["entries"],
        "s": s,
    }
    return [(gap, cap, RESIDUAL_SLACK * (1.0 + cap), payload)]


def _check_matched_gap_sym(rng: np.random.Generator) -> list[tuple]:
    f, g = gen_matched_pair(rng, 2)
    residual, cap = lemma_fg_gap_sym(f, g, 2)
    payload = {
        "f": f.to_json_dict()["entries"],
        "g": g.to_json_dict()["entries"],
        "s": 2,
    }
    return [(residual, cap, RESIDUAL_SLACK * (1.0 + cap), payload)]


def _check_excess_charfn(rng: np.random.Generator) -> list[tuple]:
    n = int(rng.integers(60, 400))
    p = float(rng.uniform(0.05, 0.5))
    q_bar = float(rng.uniform(max(n**-2.0, 0.002), 1.0 / 30.0))
    w = float(rng.choice([1.0, math.sqrt(2.0), 2.5]))
    params = MBParams(p=p, q_bar=q_bar, n=n)
    y = geometric_excess(p, 1.0 - p, tail_tol=1e-12)
    t = np.linspace(-math.pi / w, math.pi / w, GRID_POINTS)
    transform = char_fn(y, w * t)
    sin_half = np.sin(w * t / 2.0)
    payload = {"p": p, "q_bar": q_bar, "n": n, "w": w}
    out = []
    for i in range(t.size):
        ctx = dict(payload, t=float(t[i]))
        out.append(
            (float(np.abs(transform[i])), float(4.0 * abs(sin_half[i])), RESIDUAL_SLACK, ctx)
        )
        # The real part decays at least as fast as -(4/3)sin^2; tight at
        # p = 1/2, tw = pi, which is exactly the regime's p cap.
        out.append(
            (
                float(transform[i].real),
                float(-(4.0 / 3.0) * sin_half[i] ** 2),
                RESIDUAL_SLACK,
                ctx,
            )
        )
    gamma = params.q * q_bar / (params.q + q_bar)
    out.append((q_bar / 2.0, gamma, EXACT_SLACK, dict(payload, clause="gamma_lower")))
    out.append((gamma, q_bar, EXACT_SLACK, dict(payload, clause="gamma_upper")))
    return out


def _check_norms(rng: np.random.Generator) -> list[tuple]:
    a = _random_signed(rng)
    b = _random_signed(rng)
    ab = convolve(a, b)
    payload = {"a": a.to_json_dict()["entries"], "b": b.to_json_dict()["entries"]}
    out = [
        (
            tv_norm(ab),
            tv_norm(a) * tv_norm(b),
            EXACT_SLACK * (1.0 + tv_norm(a) * tv_norm(b)),
            dict(payload, clause="tv_submultiplicative"),
        ),
        (
            kolmogorov_norm(ab),
            tv_norm(a) * kolmogorov_norm(b),
            EXACT_SLACK * (1.0 + tv_norm(a) * kolmogorov_norm(b)),
            dict(payload, clause="kolmogorov_convolution"),
        ),
        (
            kolmogorov_norm(a),
            tv_norm(a),
            EXACT_SLACK,
            dict(payload, clause="kolmogorov_le_tv"),
        ),
    ]
    scale = 2.5 / max(tv_norm(a), 2.5)
    small = scale * a
    exp_small = exp_measure(small, tail_tol=1e-10)
    out.append(
        (
            tv_norm(exp_small),
            math.exp(tv_norm(small)),
            RESIDUAL_SLACK,
            dict(payload, clause="exp_norm"),
        )
    )
    return out


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
    family whose right-hand sides are forced to -1.0, a self-test hook
    demonstrating failure reporting.
    """
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    selected = list(CHECK_NAMES if names is None else names)
    for name in selected:
        if name not in _REGISTRY:
            raise ValueError(f"unknown check: {name}")
    if corrupt is not None and corrupt not in _REGISTRY:
        raise ValueError(f"unknown corrupt target: {corrupt}")
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
                bad = None
                for lhs, rhs, slack, payload in clauses:
                    if corrupt == name:
                        rhs = -1.0
                    if lhs > rhs + slack:
                        bad = {
                            "instance": j,
                            "lhs": lhs,
                            "rhs": rhs,
                            "slack": slack,
                            "detail": payload,
                        }
                        break
            if bad is None:
                passed += 1
            elif len(failures) < MAX_RECORDED_FAILURES:
                failures.append(json.dumps(bad, sort_keys=True))
        results.append(CheckResult(name, passed, count - passed, tuple(failures)))
    return CheckReport(seed=int(seed), count=count, results=tuple(results))
