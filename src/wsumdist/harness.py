"""Experiment sweeps, rate fitting, and deterministic CSV/JSON reporting.

This module turns the library's exact-distribution machinery into small
reproducible experiments: a two-weight matched-moment sweep (run_example),
a Markov-Binomial vs signed-compound-geometric sweep (run_markov), a
negative binomial matching sweep (run_nb), and a qualitative intro demo
(demo_intro).  Each runner states one grid point as a row function and
hands it to _sweep, the one table builder: it checks the grid, appends
the bound's components after the headline columns, tags the bound's
warnings with their n, and fits one column against n.  The SweepResult's
CSV and JSON renderings are byte-deterministic for a fixed configuration.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .approximants import build_din, nb_component_pmf, nb_match
from .bounds import (
    BlockSpec,
    BoundReport,
    _Pair,
    bound_iid,
    bound_markov,
    bound_nb,
)
from .lattice import (
    LatticeMeasure,
    _grid,
    _integer,
    _is_a,
    convolve,
    delta,
    exp_measure,
    from_entries,
    kolmogorov_norm,
    moments,
    powers,
    signed_moments,
    smoothness_u,
)
from .markov import MBParams, mb_pmfs
from .weighted import (
    WeightBasis,
    WeightedMeasure,
    wkolmogorov_distance,
)

__all__ = [
    "EXAMPLE_F",
    "EXAMPLE_G",
    "SQRT2",
    "DegenerateFitError",
    "ExperimentConfig",
    "RateFit",
    "SweepResult",
    "demo_intro",
    "fit_rate",
    "run_example",
    "run_markov",
    "run_nb",
    "write_csv",
]

SQRT2 = math.sqrt(2.0)

# Two order-3 matched fixtures: nu_k+(F) = nu_k+(G) = (1, 1.5, 3) for
# k = 1, 2, 3, with beta_4 = 9, pairwise smoothness u = 3/8, and classical
# overlap criterion value nu1 - nu2 - nu1^2 = -1.5 < 0 (so the older
# compound-Poisson route does not apply while the matched-moment one does).
EXAMPLE_F = from_entries({0: 0.375, 1: 0.5, 4: 0.125})
EXAMPLE_G = from_entries({0: 0.45, 1: 0.25, 2: 0.25, 5: 0.05})

KINDS = ("example", "markov-sweep", "nb-sweep", "check", "demo-intro")


class DegenerateFitError(ValueError):
    """Raised when a rate fit has fewer than three positive points."""


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log n, log d): d ~ exp(intercept) * n**slope.

    residual is the root-mean-square deviation of log d from the fitted
    line; 0 means the points are exactly log-linear.
    """

    slope: float
    intercept: float
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "residual": self.residual,
        }


def fit_rate(points: Iterable[tuple[float, float]]) -> RateFit:
    """Ordinary least squares of log d against log n.

    Points with nonpositive n or d carry no log-scale information and are
    dropped; fewer than three surviving points raise DegenerateFitError.
    """
    good = [
        (float(n), float(d)) for n, d in points if float(n) > 0.0 and float(d) > 0.0
    ]
    if len(good) < 3:
        raise DegenerateFitError(
            f"rate fit needs >= 3 positive points, got {len(good)}"
        )
    x = np.log(np.array([n for n, _ in good]))
    y = np.log(np.array([d for _, d in good]))
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return RateFit(slope=float(slope), intercept=float(intercept), residual=residual)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run.

    kind selects the sweep; n_grid is empty (check reads none) or a
    strictly increasing run of integers >= 1, as every sweep needs.  chains
    holds one (p, q_bar) pair per weight for markov sweeps.  seed drives
    every randomized kind and count sizes the check suite; tail_tol is
    forwarded to all series truncations; out is an optional CSV path.

    The constructor checks every value, from Python, JSON or a flag, once:
    s, k0, seed, count and n_grid's entries take integers (numbers.Integral),
    weights, tail_tol and each chain's p and q_bar real numbers (numbers.Real),
    never bool; n_grid, weights and chains are lists or tuples, and out is a
    str or None.  Values are stored as Python ints, floats and tuples.
    """

    kind: str
    n_grid: tuple[int, ...] = ()
    s: int = 3
    k0: int = 2
    weights: tuple[float, ...] = (1.0,)
    chains: tuple[tuple[float, float], ...] = ((0.3, 0.02),)
    seed: int = 1
    count: int = 200
    tail_tol: float = 1e-10
    out: str | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name != "out" and getattr(self, f.name) is None:
                raise ValueError(f"config field {f.name!r} must not be null")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind: {self.kind!r} (choose from {KINDS})")
        for name in ("n_grid", "weights", "chains"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"config field {name!r} must be a list")
        if not all(isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in self.chains):
            raise ValueError("config field 'chains' must hold [p, q_bar] pairs")
        # int() would truncate 16.7 and read True as 1, float() would read
        # True as 1.0 and "0.5" as 0.5, and open() would take a number as
        # out for a file descriptor.
        chain_values = [v for pair in self.chains for v in pair]
        items = {"n_grid": self.n_grid, "weights": self.weights, "chains": chain_values}
        for names, kind, takes in (
            (("n_grid", "s", "k0", "seed", "count"), numbers.Integral, "integers"),
            (("weights", "chains", "tail_tol"), numbers.Real, "numbers"),
        ):
            for name in names:
                value = getattr(self, name)
                given = items.get(name, [value])
                if not all(_is_a(v, kind) for v in given):
                    raise ValueError(
                        f"bad config value: {name!r} takes {takes}, got {value!r}"
                    )
        if not isinstance(self.out, (str, type(None))):
            raise ValueError(
                f"bad config value: 'out' takes a path or null, got {self.out!r}"
            )
        put = partial(object.__setattr__, self)
        put("n_grid", _grid(self.n_grid, "n_grid") if self.n_grid else ())
        put("weights", tuple(float(w) for w in self.weights))
        put("chains", tuple((float(p), float(qb)) for p, qb in self.chains))
        for name in ("s", "k0", "seed", "count"):
            put(name, int(getattr(self, name)))
        put("tail_tol", float(self.tail_tol))
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if self.k0 < 2:
            raise ValueError("k0 must be >= 2")
        if not self.weights or any(not (w > 0.0 and math.isfinite(w)) for w in self.weights):
            raise ValueError("weights must be positive and finite")
        if not all(0.0 <= p < 1.0 and 0.0 < qb <= 1.0 for p, qb in self.chains):
            raise ValueError("chains entries must be (p in [0,1), q_bar in (0,1])")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not (0.0 < self.tail_tol < 1.0):
            raise ValueError("tail_tol must lie in (0, 1)")

    def to_json_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["n_grid"] = list(self.n_grid)
        payload["weights"] = list(self.weights)
        payload["chains"] = [list(pair) for pair in self.chains]
        return payload

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            # A payload without kind misses the one required field.
            raise ValueError(f"bad config value: {exc}") from exc

    def override(self, **changes) -> "ExperimentConfig":
        """Copy with the given non-None fields replaced (flag precedence)."""
        actual = {k: v for k, v in changes.items() if v is not None}
        return replace(self, **actual) if actual else self


@dataclass(frozen=True)
class SweepResult:
    """Tabular outcome of a sweep: named columns, one row per grid point.

    Dotted column names (block0.u, factor.beta_term, ...) are flattened
    bound components; undotted ones are the headline quantities.  to_text
    shows only the undotted columns, while to_csv_text and to_json_dict
    carry everything.  Both renderings are byte-deterministic: integers
    print as integers and floats via repr, which round-trips exactly.
    """

    kind: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    fit: RateFit | None = None
    prelude: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row width does not match columns")

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def to_csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "fit": self.fit.to_json_dict() if self.fit is not None else None,
            "prelude": dict(self.prelude),
            "warnings": list(self.warnings),
        }

    def to_text(self) -> str:
        out: list[str] = []
        for key, value in self.prelude.items():
            out.append(f"{key} = {_cell(value)}")
        keep = [i for i, c in enumerate(self.columns) if "." not in c]
        header = [self.columns[i] for i in keep]
        body = [[_text_cell(row[i]) for i in keep] for row in self.rows]
        widths = [
            max(len(header[j]), *(len(r[j]) for r in body)) if body else len(header[j])
            for j in range(len(header))
        ]
        out.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        for r in body:
            out.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
        if self.fit is not None:
            out.append(
                f"rate fit: slope {self.fit.slope:.4f}, "
                f"intercept {self.fit.intercept:.4f}, "
                f"residual {self.fit.residual:.4f}"
            )
        for w in self.warnings:
            out.append(f"warning: {w}")
        return "\n".join(out) + "\n"


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _text_cell(v) -> str:
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return f"{float(v):.6g}"


def write_csv(result: SweepResult, path: str) -> None:
    """Write the full table as CSV with deterministic bytes."""
    with open(path, "w", newline="\n") as fh:
        fh.write(result.to_csv_text())


def json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


Headline = tuple[tuple[str, object], ...]


def _sweep(
    kind: str,
    n_grid: Sequence[int],
    row: Callable[[int], tuple[Headline, BoundReport | None]],
    prelude: dict,
    fit_column: str = "distance",
) -> SweepResult:
    """Tabulate row(n) over the grid, in grid order.

    row returns the headline (name, value) pairs and the bound report, or
    None when the sweep has no bound.  Each table row is n, the headline
    values, then the report's components in sorted key order.  Every
    report warning is recorded once per n as ``n=<n>: <warning>``.
    fit_column is fitted against n; a fit with fewer than three positive
    points is left out.
    """
    grid = _grid(n_grid, "n_grid")
    rows = []
    warnings: list[str] = []
    for n in grid:
        head, report = row(n)
        components = {} if report is None else report.components
        keys = tuple(sorted(components))
        columns = ("n", *(name for name, _ in head), *keys)
        values = (value for _, value in head)
        rows.append((n, *values, *(components[k] for k in keys)))
        for w in () if report is None else report.warnings:
            tag = f"n={n}: {w}"
            if tag not in warnings:
                warnings.append(tag)
    at = columns.index(fit_column)
    try:
        fit = fit_rate((r[0], r[at]) for r in rows)
    except DegenerateFitError:
        fit = None
    return SweepResult(
        kind=kind,
        columns=columns,
        rows=tuple(rows),
        fit=fit,
        prelude=prelude,
        warnings=tuple(warnings),
    )


def _block_sizes(n: int, weights: Sequence[float]) -> list[int]:
    # The first block gets ceil(sqrt(n)) summands, the second (and any
    # further) block n each, so the first block's share vanishes as the
    # sweep grows; a single weight carries all n.
    if len(weights) == 1:
        return [n]
    return [math.isqrt(n - 1) + 1] + [n] * (len(weights) - 1)


def run_example(
    n_grid: Sequence[int],
    *,
    weights: Sequence[float] = (1.0, SQRT2),
    s: int = 3,
) -> SweepResult:
    """Sweep exact Kolmogorov distance between weighted matched block sums
    against the iid structural factor.

    For each n the two laws are built summand-for-summand: block i holds
    n_i independent copies of F = EXAMPLE_F (resp. G = EXAMPLE_G) scaled by
    weight w_i, with n_1 = ceil(sqrt(n)) and n_2 = n under the default
    two-weight layout.  The block laws F^(*n_i) and G^(*n_i) of the whole
    grid come from one chain of squares each (``powers``, as ``mb_pmfs``
    squares once for the Markov laws), and each law is the product of its
    set-bit squares, so it does not depend on the rest of the grid.
    The prelude verifies the fixture prerequisites before any distance is
    computed: order-s factorial-moment matching, beta_{s+1}, smoothness u,
    and the value of the classical overlap criterion (negative here, so
    that route is unavailable).  Returns rows of distance, factor, and
    their ratio plus every flattened factor component, the bound's
    hypothesis warnings, and the fitted log-log rate of distance against n.
    """
    f, g = EXAMPLE_F, EXAMPLE_G
    basis = WeightBasis(weights)
    weights = basis.weights

    s = _integer(s, "s")
    if s < 1:
        raise ValueError("s must be >= 1")
    pair = _Pair.of(f, g, s + 1)
    nu_f, nu_g = pair.plus
    prelude: dict = {}
    for k in range(1, s + 1):
        prelude[f"nu{k}.f"] = nu_f[k - 1]
        prelude[f"nu{k}.g"] = nu_g[k - 1]
    bp, bm = pair.beta(s + 1)
    prelude[f"beta{s + 1}"] = bp + bm
    prelude["u"] = smoothness_u(f, g)
    prelude["overlap_criterion"] = nu_f[0] - nu_f[1] - nu_f[0] ** 2

    grid = _grid(n_grid, "n_grid")
    counts = tuple(dict.fromkeys(k for n in grid for k in _block_sizes(n, weights)))
    laws: list[dict[int, LatticeMeasure]] = []

    def row(n: int) -> tuple[Headline, BoundReport]:
        sizes = _block_sizes(n, weights)
        blocks = [
            BlockSpec.iid(f, g, size, weight) for size, weight in zip(sizes, weights)
        ]
        report = bound_iid(blocks, s)
        if report.factor == 0.0:
            # beta_{s+1} vanishes when s + 1 exceeds the laws' support.
            raise ValueError(
                "; ".join((f"n={n}: structural factor is 0", *report.warnings))
            )
        if not laws:
            # The grid's laws are built at the first row, after its factor
            # check, so a zero factor raises before any convolution.
            laws.extend(dict(zip(counts, powers(law, counts))) for law in (f, g))
        f_laws, g_laws = laws
        s_law = WeightedMeasure(basis, tuple(f_laws[size] for size in sizes))
        z_law = WeightedMeasure(basis, tuple(g_laws[size] for size in sizes))
        distance = wkolmogorov_distance(s_law, z_law)
        head = (
            ("n1", sizes[0]),
            ("n2", sizes[-1]),
            ("distance", distance),
            ("factor", report.factor),
            ("ratio", distance / report.factor),
        )
        return head, report

    return _sweep("example", grid, row, prelude)


def run_markov(config: ExperimentConfig) -> SweepResult:
    """Sweep the exact Kolmogorov distance between a weighted sum of
    Markov-Binomial blocks and its signed compound-geometric approximant.

    For each n, every (p, q_bar) chain runs for n steps: H is its exact
    law (``mb_pmfs`` squares each chain's transfer matrix once for the whole
    grid, so a grid to n = 10^6 takes milliseconds, and H's error_budget
    bounds its rounding), D the signed exponential with matched rate
    coefficients; both are scaled by their weight and convolved across
    blocks.  Rows carry the distance, the structural factor, their ratio,
    all factor components, and the approximant's bookkeeping columns: the
    signed-mass defect |D(Z) - 1|, the gaps between D's first two moments
    and H's, and ``din_budget``, the sum of the chains' D error budgets.
    D's coefficients match H's mean and exact variance, so both gaps are
    truncation-level quantities; the columns show that they stay so, and
    ``din_budget`` shows the series truncation behind them, which grows
    with n.
    """
    if len(config.chains) != len(config.weights):
        raise ValueError("need exactly one (p, q_bar) chain per weight")
    basis = WeightBasis(config.weights)

    def chain_laws():
        # Deferred to the first row, after _sweep has checked the grid;
        # _sweep asks for the rows in grid order.
        yield from zip(*(mb_pmfs(p, qb, config.n_grid) for p, qb in config.chains))

    laws = chain_laws()

    def row(n: int) -> tuple[Headline, BoundReport]:
        h_parts = next(laws)
        pairs = []
        d_parts = []
        mass_defect = 0.0
        mean_gap = 0.0
        var_gap = 0.0
        din_budget = 0.0
        for (p, q_bar), w, h in zip(config.chains, config.weights, h_parts):
            params = MBParams(p=p, q_bar=q_bar, n=n)
            pairs.append((params, w))
            _coeffs, d = build_din(params, config.tail_tol)
            d_parts.append(d)
            hm = moments(h)
            dm = signed_moments(d)
            mass_defect += abs(d.total_mass - 1.0)
            mean_gap += abs(dm.mean - hm.mean)
            var_gap += abs(dm.variance - hm.variance)
            din_budget += d.error_budget
        report = bound_markov(pairs, config.k0)
        # Each chain's law is one factor of the weighted measure.
        distance = wkolmogorov_distance(
            WeightedMeasure(basis, tuple(h_parts)),
            WeightedMeasure(basis, tuple(d_parts)),
        )
        head = (
            ("distance", distance),
            ("factor", report.factor),
            ("ratio", distance / report.factor),
            ("mass_defect", mass_defect),
            ("mean_gap", mean_gap),
            ("variance_gap", var_gap),
            ("din_budget", din_budget),
        )
        return head, report

    prelude = {
        "k0": config.k0,
        "tail_tol": config.tail_tol,
    }
    for i, ((p, qb), w) in enumerate(zip(config.chains, config.weights)):
        prelude[f"chain{i}.p"] = p
        prelude[f"chain{i}.q_bar"] = qb
        prelude[f"chain{i}.weight"] = w
    return _sweep("markov-sweep", config.n_grid, row, prelude)


def run_nb(
    n_grid: Sequence[int],
    *,
    tail_tol: float = 1e-13,
) -> SweepResult:
    """Sweep the negative binomial matched to n-fold block sums of F = EXAMPLE_F.

    For each n the target moments are (n * mean(F), n * variance(F));
    nb_match solves for (r, p~) and the truncated pmf's realised mean and
    variance are reported next to the targets, along with the structural
    factor for the matched approximation and its flattened components.
    The factor's fitted slope is the headline: with F's per-summand
    moments fixed, it decays like n^(-1/2).
    """
    summary = moments(EXAMPLE_F)

    def row(n: int) -> tuple[Headline, BoundReport]:
        report = bound_nb([BlockSpec.iid(EXAMPLE_F, EXAMPLE_F, n, 1.0)])
        params = nb_match(n * summary.mean, n * summary.variance)
        realised = moments(nb_component_pmf(params, 1, tail_tol))
        head = (
            ("r", params.r),
            ("p_tilde", params.p_tilde),
            ("target_mean", n * summary.mean),
            ("target_variance", n * summary.variance),
            ("nb_mean", realised.mean),
            ("nb_variance", realised.variance),
            ("factor", report.factor),
        )
        return head, report

    prelude = {
        "summand_mean": summary.mean,
        "summand_variance": summary.variance,
        "tail_tol": tail_tol,
    }
    return _sweep("nb-sweep", n_grid, row, prelude, fit_column="factor")


def demo_intro(
    n_grid: Sequence[int],
    *,
    tail_tol: float = 1e-10,
) -> SweepResult:
    """Qualitative opener: two Poisson-plus-coin sums drift together.

    S(n) adds a fair-ish coin (success 1/3) to a Poisson(n) count and
    Z(n) a slightly different coin (success 1/4); the Poisson factor is
    built by exponentiating n * (delta_1 - delta_0) with truncation
    budget tail_tol.  The Kolmogorov distance between the two laws
    decreases as n grows even though the coins never change, because the
    shared heavy factor smooths the difference out.
    """
    step = delta(1) - delta(0)
    coin_s = from_entries({0: 2.0 / 3.0, 1: 1.0 / 3.0})
    coin_z = from_entries({0: 3.0 / 4.0, 1: 1.0 / 4.0})

    def row(n: int) -> tuple[Headline, None]:
        poisson = exp_measure(step * float(n), tail_tol)
        distance = kolmogorov_norm(
            convolve(poisson, coin_s) - convolve(poisson, coin_z)
        )
        return (("distance", distance),), None

    return _sweep("demo-intro", n_grid, row, {"tail_tol": tail_tol})
