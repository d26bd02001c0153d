"""Correctness checks on workload outputs, by named column.

Outputs are checked by column name, never by payload bytes, so a later
change that adds columns or legitimately moves a number still passes when
what it prints is right.  Each check returns a list of problems; an empty
list means the output is correct.  Tolerances come from rounding bounds on
the sums involved, scaled by the float64 unit roundoff.
"""

from __future__ import annotations

import math

import numpy as np

from wsumdist.approximants import build_din
from wsumdist.checks import CHECK_NAMES
from wsumdist.lattice import kolmogorov_norm
from wsumdist.markov import MBParams, mb_pmf
from wsumdist.weighted import WeightBasis, weighted_sum_distribution

EPS = np.finfo(np.float64).eps

# weighted-sweep rows up to this n are compared with a dense recomputation.
DENSE_MAX_N = 1024

# Frozen default-config example distances at n = 16 and n = 64.
FROZEN_EXAMPLE = (0.0059008144807108365, 0.0010908881270107473)
FROZEN_TOL = 1e-15
# The tests pin nb moments to 1e-8 absolute for targets up to a few
# hundred; the moments grow with n, so the check scales that relatively.
NB_MOMENT_RTOL = 1e-10


def _columns(columns, rows) -> dict[str, list]:
    return {name: [row[i] for row in rows] for i, name in enumerate(columns)}


def _ratio_problems(cols: dict, label: str) -> list[str]:
    out = []
    for n, d, factor, ratio in zip(cols["n"], cols["distance"], cols["factor"], cols["ratio"]):
        if not 0.0 < d < 1.0:
            out.append(f"{label} n={n}: distance {d!r} outside (0, 1)")
        if not math.isclose(ratio, d / factor, rel_tol=4 * EPS, abs_tol=0.0):
            out.append(f"{label} n={n}: ratio {ratio!r} != distance / factor")
    return out


def _dense_power(support: np.ndarray, masses: np.ndarray, k: int) -> tuple[int, np.ndarray]:
    """k-fold convolution power as (offset, dense masses), without trimming."""
    base = np.zeros(int(support[-1] - support[0]) + 1)
    base[support - support[0]] = masses
    base_offset = int(support[0])
    offset, out = 0, np.ones(1)
    while k:
        if k & 1:
            out, offset = np.convolve(out, base), offset + base_offset
        k >>= 1
        if k:
            base, base_offset = np.convolve(base, base), 2 * base_offset
    return offset, out


def _dense_atoms(law, sizes, weights) -> tuple[np.ndarray, np.ndarray]:
    values, masses = np.zeros(1), np.ones(1)
    for size, weight in zip(sizes, weights):
        offset, pmf = _dense_power(law.support, law.masses, size)
        pos = (offset + np.arange(pmf.size)) * weight
        values = (values[:, None] + pos[None, :]).ravel()
        masses = (masses[:, None] * pmf[None, :]).ravel()
    return values, masses


def dense_distance(f, g, sizes, weights) -> tuple[float, int]:
    """Kolmogorov distance of the two weighted block sums, and the atom count.

    Equal coefficient pairs give bit-identical values here, so the CDF
    difference is read only after the last atom of each run of equal values.
    """
    va, ma = _dense_atoms(f, sizes, weights)
    vb, mb = _dense_atoms(g, sizes, weights)
    values = np.concatenate([va, vb])
    order = np.argsort(values, kind="stable")
    values = values[order]
    cdf = np.cumsum(np.concatenate([ma, -mb])[order])
    last = np.append(values[1:] != values[:-1], True)
    return float(np.max(np.abs(cdf[last]))), int(values.size)


def weighted_sweep(result, f, g, weights) -> list[str]:
    cols = _columns(result.columns, result.rows)
    problems = _ratio_problems(cols, "weighted-sweep")
    basis = WeightBasis(weights)
    for n, n1, n2, distance in zip(cols["n"], cols["n1"], cols["n2"], cols["distance"]):
        if n > DENSE_MAX_N:
            continue
        sizes = (n1, n2)
        want, atoms = dense_distance(f, g, sizes, weights)
        budget = sum(
            weighted_sum_distribution(
                [(law, size, i + 1) for i, size in enumerate(sizes)], basis
            ).error_budget
            for law in (f, g)
        )
        # Each side's cumulative sum runs over at most `atoms` terms of total
        # variation <= 2, so each carries <= 2 * atoms * EPS absolute error;
        # the convolution powers before it add no more than the same again.
        allowance = budget + 8 * atoms * EPS
        if abs(distance - want) > allowance:
            problems.append(
                f"weighted-sweep n={n}: distance {distance!r} vs dense {want!r} "
                f"(allowed gap {allowance:.3g})"
            )
    return problems


def _chain_mean(p: float, q_bar: float, n: int) -> float:
    """Mean occupation count by the O(n) recurrence on P(state 1 at step t)."""
    on, total = 0.0, 0.0
    for _ in range(n):
        on = on * p + (1.0 - on) * q_bar
        total += on
    return total


def markov_single(result, chain, tail_tol) -> list[str]:
    """One chain on weight 1: each distance against the 1-D lattice route."""
    cols = _columns(result.columns, result.rows)
    problems = []
    p, q_bar = chain
    for n, distance in zip(cols["n"], cols["distance"]):
        params = MBParams(p=p, q_bar=q_bar, n=n)
        h = mb_pmf(params)
        _coeffs, d = build_din(params, tail_tol)
        want = kolmogorov_norm(h - d)
        # Two cumulative sums over len(h) + len(d) atoms of total variation
        # h.tv + d.tv, in different orders.
        allowance = 4 * (len(h) + len(d)) * EPS * (h.tv + d.tv)
        if abs(distance - want) > allowance:
            problems.append(
                f"markov-sweep n={n}: distance {distance!r} vs 1-D {want!r}"
            )
        # Every DP step rounds each mass once relative to its size.
        mass_err = abs(h.total_mass - 1.0)
        if mass_err > 4 * n * EPS:
            problems.append(f"markov-sweep n={n}: mb_pmf mass off by {mass_err:.3g}")
        mean = float(np.dot(h.support, h.masses))
        want_mean = _chain_mean(p, q_bar, n)
        if abs(mean - want_mean) > 4 * n * n * EPS:
            problems.append(
                f"markov-sweep n={n}: mb_pmf mean {mean!r} vs recurrence {want_mean!r}"
            )
    return problems


def markov_weighted(result) -> list[str]:
    return _ratio_problems(_columns(result.columns, result.rows), "markov-sweep")


def cli_payload(command: str, payload: dict, count: int, families=CHECK_NAMES) -> list[str]:
    """Checks on the --json payload of one default CLI subcommand."""
    if command == "check":
        problems = []
        names = [res["name"] for res in payload["results"]]
        if names != list(families):
            problems.append(f"check: families {names}, expected {list(families)}")
        for res in payload["results"]:
            if res["passed"] != count or res["failed"] != 0:
                problems.append(
                    f"check {res['name']}: passed {res['passed']} failed {res['failed']}"
                )
        return problems
    result = payload["result"]
    cols = _columns(result["columns"], result["rows"])
    if command == "example":
        got = tuple(cols["distance"][:2])
        if any(abs(a - b) > FROZEN_TOL for a, b in zip(got, FROZEN_EXAMPLE)):
            return [f"example: distances {got!r} != frozen {FROZEN_EXAMPLE!r}"]
        return []
    if command == "markov":
        return [
            f"markov n={n}: distance {d!r} outside (0, 1)"
            for n, d in zip(cols["n"], cols["distance"])
            if not 0.0 < d < 1.0
        ]
    if command == "nb":
        return [
            f"nb n={n}: {what} {got!r} vs target {want!r}"
            for what in ("mean", "variance")
            for n, got, want in zip(cols["n"], cols[f"nb_{what}"], cols[f"target_{what}"])
            if abs(got - want) > NB_MOMENT_RTOL * max(1.0, abs(want))
        ]
    if command == "demo-intro":
        d = cols["distance"]
        if not all(b < a for a, b in zip(d, d[1:])):
            return [f"demo-intro: distances do not decrease: {d!r}"]
        return []
    raise ValueError(f"no check for command {command!r}")
