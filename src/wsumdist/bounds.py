"""Constant-free structural factors for Kolmogorov-distance error bounds.

Each bound on |L(S) - L(Z)|_K in this package has the shape
(absolute constant) x (structural factor).  The absolute constants are
never specified, so every report here sets them to 1 and says so via
``absolute_constant_excluded``.  The factor is always the product, in
insertion order, of the report's components whose keys carry the
``factor.`` prefix; remaining components are named intermediates kept for
inspection and CSV output.

Block model: S = sum_i w_i * (X_i1 + ... + X_in_i) against the analogous
Z built from G-distributed summands, with everything independent.  A
BlockSpec holds one i: its distinct summand pairs (F_j, G_j), how many
summands each pair stands for, and the weight.  A bound call tabulates
each distinct pair once (the smaller shift overlap u, the larger variance,
both laws' factorial moments of orders 1..s+2 on both tails), and every
term and hypothesis check reads that table.  It lives for the call only:
measures hash by identity, so a longer-lived cache would keep them alive.
BlockSpec checks each law once, when the block is built, that it is a
probability law; measures are immutable, so the bounds never check again.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from . import lattice
from .lattice import LatticeMeasure, convolve, delta, signed_moments, tv_norm
from .approximants import nb_match
from .markov import MBParams, cond1_check

__all__ = [
    "OddSError",
    "MomentMismatchError",
    "BlockSpec",
    "AssumptionReport",
    "BoundReport",
    "check_assumptions",
    "bound_independent",
    "bound_independent_sym",
    "bound_iid",
    "bound_nb",
    "bound_markov",
    "lemma_fg_gap",
    "lemma_fg_gap_sym",
]

MOMENT_MATCH_TOL = 1e-10


class OddSError(ValueError):
    """Raised when an even-order expansion is requested with odd s."""


class MomentMismatchError(ValueError):
    """Raised when inputs lack the factorial-moment matching they promise."""


@dataclass(frozen=True)
class BlockSpec:
    """One weighted block of summands and its approximating counterparts.

    ``pairs`` holds the distinct summand pairs (F_j, G_j) and ``counts``
    how many of the block's n = Sum_j count_j summands each stands for.
    ``from_summands`` groups by object identity: the same two objects
    repeated make an iid block; equal-valued distinct objects stay apart.
    """

    pairs: tuple[tuple[LatticeMeasure, LatticeMeasure], ...]
    counts: tuple[int, ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        pairs = tuple((f, g) for f, g in self.pairs)
        counts = tuple(self.counts)
        if not pairs or len(counts) != len(pairs):
            raise ValueError("need at least one pair and one count per pair")
        if not all(lattice._is_a(c, numbers.Integral) for c in counts):
            raise ValueError("block counts must be integers")
        if min(counts) < 1:
            raise ValueError("block counts must be >= 1")
        if not lattice._is_a(self.weight, numbers.Real):
            raise ValueError("weight must be a real number")
        if not (self.weight > 0.0 and math.isfinite(self.weight)):
            raise ValueError("weight must be positive and finite")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "counts", tuple(int(c) for c in counts))
        object.__setattr__(self, "weight", float(self.weight))
        for pair in pairs:
            for side in pair:
                if not side.is_probability:
                    raise ValueError("block summands must be probability laws")

    @classmethod
    def iid(
        cls, f: LatticeMeasure, g: LatticeMeasure, n: int, weight: float = 1.0
    ) -> "BlockSpec":
        return cls(pairs=((f, g),), counts=(n,), weight=weight)

    @classmethod
    def from_summands(
        cls,
        f_list: tuple[LatticeMeasure, ...],
        g_list: tuple[LatticeMeasure, ...],
        weight: float = 1.0,
    ) -> "BlockSpec":
        f_list, g_list = tuple(f_list), tuple(g_list)
        if len(f_list) != len(g_list):
            raise ValueError("f_list and g_list must have equal length")
        # LatticeMeasure hashes and compares by identity.
        counts = Counter(zip(f_list, g_list))
        return cls(tuple(counts), tuple(counts.values()), weight)

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def is_iid(self) -> bool:
        return len(self.pairs) == 1

    def total(self, fn) -> float:
        """Sum_j count_j fn(F_j, G_j), one call of fn per distinct pair."""
        return float(sum(c * fn(f, g) for (f, g), c in zip(self.pairs, self.counts)))


@dataclass(frozen=True)
class AssumptionReport:
    """Whether the blocks satisfy the bound hypotheses; warnings only."""

    ok: bool
    s: int
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class BoundReport:
    """A structural bound factor with its named composition.

    ``factor`` is exactly the product of the components whose keys start
    with ``factor.``, taken in insertion order; ``recompose`` reproduces
    it bit for bit.  Absolute constants are excluded throughout.
    """

    factor: float
    components: dict[str, float] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()
    absolute_constant_excluded: bool = True

    def recompose(self) -> float:
        return _factor_product(self.components)

    def to_json_dict(self) -> dict:
        return {
            "factor": self.factor,
            "components": dict(self.components),
            "warnings": list(self.warnings),
            "absolute_constant_excluded": self.absolute_constant_excluded,
        }


def _factor_product(components: dict[str, float]) -> float:
    out = 1.0
    for key, value in components.items():
        if key.startswith("factor."):
            out *= value
    return out


def _finish(components: dict[str, float], warnings: tuple[str, ...]) -> BoundReport:
    return BoundReport(_factor_product(components), components, warnings)


def _weight_ratio(weights: list[float]) -> float:
    return max(weights) / min(weights)


class _Pair(NamedTuple):
    """One pair (F, G) as the bounds read it: ``plus`` is F's and G's
    right-tail factorial moments, each a list indexed by k - 1, ``minus``
    their left tails.  u and variance, NaN unless passed to ``of`` after the
    order, are the smaller shift overlap and the larger variance."""

    plus: tuple[list[float], list[float]]
    minus: tuple[list[float], list[float]]
    u: float = math.nan
    variance: float = math.nan

    @classmethod
    def of(cls, f: LatticeMeasure, g: LatticeMeasure, order: int, *rest) -> "_Pair":
        def tail(side: str) -> tuple[list[float], list[float]]:
            return tuple(lattice._factorial_moments(m, order, side) for m in (f, g))

        return cls(tail("plus"), tail("minus"), *rest)

    def beta(self, k: int) -> tuple[float, float]:
        """(beta+_k, beta-_k): the order-k moments of F and G, per tail."""
        return tuple(f[k - 1] + g[k - 1] for f, g in (self.plus, self.minus))

    def mismatch(self, s: int) -> str:
        """What first breaks the matching through order s, k = 1..s and plus
        before minus: a gap above MOMENT_MATCH_TOL; "" when there is none."""
        for k in range(1, s + 1):
            for side, (of_f, of_g) in (("plus", self.plus), ("minus", self.minus)):
                gap = abs(of_f[k - 1] - of_g[k - 1])
                if gap > MOMENT_MATCH_TOL:
                    return f"order-{k} {side} factorial moments differ by {gap:.3e}"
        return ""


def check_assumptions(blocks: list[BlockSpec], s: int) -> AssumptionReport:
    """Verify the bound hypotheses: smoothness, enough total overlap per
    block, factorial moments matched through order s, finite order-(s+1)
    moment sums.  Violations become warnings, never hard failures."""
    s, _, warnings = _checked(blocks, s)
    return AssumptionReport(ok=not warnings, s=s, warnings=warnings)


def _checked(blocks: list[BlockSpec], s) -> tuple[int, dict, tuple[str, ...]]:
    """s as an int, each distinct pair's summary, and the hypotheses' warnings."""
    s = lattice._integer(s, "s")
    if s < 1:
        raise ValueError("s must be >= 1")
    if not blocks:
        raise ValueError("need at least one block")
    table = {}
    for f, g in dict.fromkeys(pair for block in blocks for pair in block.pairs):
        u = min(lattice._shift_overlap(f), lattice._shift_overlap(g))
        variance = max(signed_moments(f).variance, signed_moments(g).variance)
        table[f, g] = _Pair.of(f, g, s + 2, u, variance)
    warnings: list[str] = []
    for i, block in enumerate(blocks):
        summaries = [table[pair] for pair in block.pairs]
        if min(p.u for p in summaries) <= 0.0:
            warnings.append(f"block {i}: some summand has zero shift overlap u")
        if block.total(lambda f, g: table[f, g].u) < 1.0:
            warnings.append(f"block {i}: total shift overlap below 1")
        if any(p.mismatch(s) for p in summaries):
            warnings.append(
                f"block {i}: factorial moments not matched through order {s}"
            )
        if not all(math.isfinite(sum(p.beta(s + 1))) for p in summaries):
            warnings.append(f"block {i}: order-{s + 1} moment sum not finite")
    return s, table, tuple(warnings)


def _independent_prefactor(blocks: list[BlockSpec], s: int) -> tuple:
    """_checked's result and the components both independent bounds share."""
    s, table, warnings = _checked(blocks, s)
    components = {"factor.weight_ratio": _weight_ratio([b.weight for b in blocks])}
    u_total = 0.0
    variance_product = 1.0
    for i, block in enumerate(blocks):
        u_sum = block.total(lambda f, g: table[f, g].u)
        if u_sum <= 0.0:
            raise ValueError(f"block {i}: zero shift overlap u in every summand")
        sigma2_sum = block.total(lambda f, g: table[f, g].variance)
        u_total += u_sum
        variance_product *= 1.0 + sigma2_sum / u_sum
        components[f"block{i}.u_sum"] = u_sum
        components[f"block{i}.sigma2_sum"] = sigma2_sum
    components["factor.total_u_inv_sqrt"] = u_total**-0.5
    components["factor.variance_product"] = variance_product
    components["u_total"] = u_total
    return s, table, warnings, components


def bound_independent(blocks: list[BlockSpec], s: int) -> BoundReport:
    """Structural factor for independent, not necessarily identically
    distributed blocks with moments matched through order s:

    (max w/min w) (Sum u)^(-1/2) Prod_l(1 + Sum sigma^2/Sum u)
    x Sum_i Sum_j beta_{s+1}(F_ij, G_ij) (Sum_k u_ik)^(-s/2).
    """
    s, table, warnings, components = _independent_prefactor(blocks, s)
    beta_term = 0.0
    for i, block in enumerate(blocks):
        u_sum = components[f"block{i}.u_sum"]
        block_beta = block.total(lambda f, g: sum(table[f, g].beta(s + 1)))
        beta_term += block_beta * u_sum ** (-s / 2.0)
        components[f"block{i}.beta{s + 1}"] = block_beta
    components["factor.beta_term"] = beta_term
    return _finish(components, warnings)


def bound_independent_sym(blocks: list[BlockSpec], s: int) -> BoundReport:
    """Even-s refinement of bound_independent: the order-(s+1) term enters
    through |beta+ - beta-| and the symmetric part is pushed to order s+2
    with an extra (Sum u)^(-1/2) damping."""
    if lattice._integer(s, "s") % 2 != 0:
        raise OddSError("the symmetric refinement needs even s")
    s, table, warnings, components = _independent_prefactor(blocks, s)

    def skew_of(f, g):
        bp, bm = table[f, g].beta(s + 1)
        return abs(bp - bm)

    sym_term = 0.0
    for i, block in enumerate(blocks):
        u_sum = components[f"block{i}.u_sum"]
        skew = block.total(skew_of)
        correction = block.total(
            lambda f, g: sum(table[f, g].beta(s + 2))
        ) + block.total(lambda f, g: table[f, g].beta(s + 1)[1])
        sym_term += u_sum ** (-s / 2.0) * (skew + correction * u_sum**-0.5)
        components[f"block{i}.beta{s + 1}_skew"] = skew
        components[f"block{i}.beta{s + 2}_correction"] = correction
    components["factor.sym_term"] = sym_term
    return _finish(components, warnings)


def bound_iid(blocks: list[BlockSpec], s: int) -> BoundReport:
    """Structural factor for iid-within-block inputs (no variance product):

    (max w/min w) (Sum n_i u_i)^(-1/2)
    x Sum_i beta_{s+1}(F_i, G_i) / (n_i^(s/2-1) u_i^(s/2)).

    Every block must be iid: one distinct pair, as ``from_summands`` of
    the same two objects repeated gives.
    """
    for i, block in enumerate(blocks):
        if not block.is_iid:
            raise ValueError(f"block {i} is not iid; use bound_independent")
    s, table, warnings = _checked(blocks, s)
    components = {"factor.weight_ratio": _weight_ratio([b.weight for b in blocks])}
    u_total = 0.0
    for i, block in enumerate(blocks):
        u = table[block.pairs[0]].u
        if u <= 0.0:
            raise ValueError(f"block {i}: zero shift overlap u")
        u_total += block.n * u
        components[f"block{i}.u"] = u
        components[f"block{i}.n"] = float(block.n)
    components["factor.weighted_u_inv_sqrt"] = u_total**-0.5
    beta_term = 0.0
    for i, block in enumerate(blocks):
        u = components[f"block{i}.u"]
        bp, bm = table[block.pairs[0]].beta(s + 1)
        beta_term += (bp + bm) / (block.n ** (s / 2.0 - 1.0) * u ** (s / 2.0))
        components[f"block{i}.beta{s + 1}"] = bp + bm
    components["factor.beta_term"] = beta_term
    components["u_total"] = u_total
    return _finish(components, warnings)


def _r_log_inv_p_from_moments(nu1: float, nu2: float) -> float:
    """Factorial-moment route to r*ln(1/p_tilde) for a block sum with
    first two factorial moments nu1, nu2 (overdispersion required)."""
    excess = nu2 - nu1**2
    if excess <= 0.0 or nu1 <= 0.0:
        raise ValueError("factorial-moment route needs nu2 > nu1^2 > 0")
    return nu1**2 / excess * math.log((excess + nu1) / nu1)


def bound_nb(blocks: list[BlockSpec]) -> BoundReport:
    """Structural factor for matched negative binomial targets.

    Each block must be iid with nonnegative summand support and
    overdispersed block sums.  The factor is

    (max w/min w) (Sum n_k u~_k)^(-1/2)
    x Sum_k [nu3 + nu1 nu2 + nu1^3 + (nu2 - nu1^2)^2/nu1](F_k) / u~_k,

    with u~_k = 1 - max(||(d1 - d0) F_k||, (r_k ln(1/p~_k))^(-1/2)) / 2.
    The r_k ln(1/p~_k) quantity is reported along both routes: directly
    from the matched (r_k, p~_k) and from the block-sum factorial moments.
    """
    laws = [block.pairs[0][0] for block in blocks]
    for i, (block, f) in enumerate(zip(blocks, laws)):
        if not block.is_iid:
            raise ValueError(f"block {i} is not iid")
        if f.support.size and f.support[0] < 0:
            raise ValueError(f"block {i}: summands must be nonnegative")
    ratio = _weight_ratio([b.weight for b in blocks])
    components: dict[str, float] = {"factor.weight_ratio": ratio}
    warnings: list[str] = []
    u_tildes = []
    for i, (block, f) in enumerate(zip(blocks, laws)):
        summary = signed_moments(f)
        block_mean = block.n * summary.mean
        block_var = block.n * summary.variance
        params = nb_match(block_mean, block_var)
        r_log_direct = params.r * math.log(1.0 / params.p_tilde)
        nu1_s = block_mean
        nu2_s = block_var + block_mean**2 - block_mean
        r_log_moments = _r_log_inv_p_from_moments(nu1_s, nu2_s)
        shift_norm = tv_norm(convolve(f, delta(1) - delta(0)))
        u_tilde = 1.0 - 0.5 * max(shift_norm, r_log_direct**-0.5)
        if u_tilde <= 0.0:
            warnings.append(f"block {i}: nonpositive smoothed overlap u~")
        u_tildes.append(u_tilde)
        components[f"block{i}.r"] = params.r
        components[f"block{i}.p_tilde"] = params.p_tilde
        components[f"block{i}.r_log_direct"] = r_log_direct
        components[f"block{i}.r_log_moments"] = r_log_moments
        components[f"block{i}.u_tilde"] = u_tilde
        components[f"block{i}.n"] = float(block.n)
    total = sum(b.n * ut for b, ut in zip(blocks, u_tildes))
    components["factor.weighted_u_inv_sqrt"] = total**-0.5
    bracket_term = 0.0
    for i, f in enumerate(laws):
        nu1, nu2, nu3 = lattice._factorial_moments(f, 3, "plus")
        bracket = nu3 + nu1 * nu2 + nu1**3 + (nu2 - nu1**2) ** 2 / nu1
        bracket_term += bracket / u_tildes[i]
        components[f"block{i}.bracket"] = bracket
    components["factor.bracket_term"] = bracket_term
    components["u_total"] = float(total)
    return _finish(components, tuple(warnings))


def bound_markov(
    pairs: list[tuple[MBParams, float]], k0: int = 2
) -> BoundReport:
    """Structural factor for weighted sums of Markov Binomial blocks:

    (max w/min w) x Sum_i q_bar_i (p_i + q_bar_i)
    / sqrt(Sum_k max(n_k q_bar_k, 1)).

    Regime violations (see cond1_check) are carried as warnings.
    """
    if not pairs:
        raise ValueError("need at least one block")
    warnings: list[str] = []
    weights = [w for _, w in pairs]
    if not all(lattice._is_a(w, numbers.Real) for w in weights):
        raise ValueError("weights must be real numbers")
    weights = [float(w) for w in weights]
    if not all(w > 0.0 and math.isfinite(w) for w in weights):
        raise ValueError("weights must be positive and finite")
    components: dict[str, float] = {"factor.weight_ratio": _weight_ratio(weights)}
    switch_sum = 0.0
    horizon_total = 0.0
    for i, (params, _) in enumerate(pairs):
        report = cond1_check(params, k0)
        if not report.ok:
            failed = sorted(report.violated_clauses)
            warnings.append(f"block {i}: regime clauses failed: {', '.join(failed)}")
        switch_sum += params.q_bar * (params.p + params.q_bar)
        horizon_total += max(params.n * params.q_bar, 1.0)
        components[f"block{i}.gamma"] = (
            params.q * params.q_bar / (params.q + params.q_bar)
        )
        components[f"block{i}.q_bar"] = params.q_bar
        components[f"block{i}.n"] = float(params.n)
    components["factor.switch_sum"] = switch_sum
    components["factor.horizon_inv_sqrt"] = horizon_total**-0.5
    components["horizon_total"] = horizon_total
    return _finish(components, tuple(warnings))


def _require_matched(f: LatticeMeasure, g: LatticeMeasure, s) -> tuple[int, _Pair]:
    """s as an int, and the pair's tails through order s + 2; raises unless
    s is an integer >= 1 and the factorial moments match through order s."""
    s = lattice._integer(s, "s")
    if s < 1:
        raise ValueError("s must be >= 1")
    pair = _Pair.of(f, g, s + 2)
    if message := pair.mismatch(s):
        raise MomentMismatchError(message)
    return s, pair


def lemma_fg_gap(
    f: LatticeMeasure, g: LatticeMeasure, s: int
) -> tuple[float, float]:
    """Total-variation gap of a moment-matched pair and its structural cap.

    With factorial moments matched through order s, ||F - G|| is at most
    beta_{s+1} 2^(s+1)/(s+1)! where beta_{s+1} sums the order-(s+1)
    moments of both measures and both tails.  Returns (gap, cap) and
    raises if the cap is violated (it cannot be unless inputs lie about
    moment matching beyond tolerance).
    """
    s, pair = _require_matched(f, g, s)
    gap = tv_norm(f - g)
    bp, bm = pair.beta(s + 1)
    cap = (bp + bm) * 2.0 ** (s + 1) / math.factorial(s + 1)
    if gap > cap * (1.0 + 1e-12) + 1e-15:
        raise ArithmeticError(
            f"moment-matched gap {gap} exceeded its structural cap {cap}"
        )
    return gap, cap


def lemma_fg_gap_sym(
    f: LatticeMeasure, g: LatticeMeasure, s: int
) -> tuple[float, float]:
    """Even-s refinement: subtract the explicit skew term from F - G and
    cap the residual.

    The residual is F - G - (beta+ - beta-)_{s+1}/(s+1)! (d1 - d0)^(s+1);
    its cap [beta_{s+2} total + beta-_{s+1}] 2^(s+2) uses an unspecified
    order-dependent constant taken as 1, so treat it as a heuristic
    envelope (empirically slack by orders of magnitude).  Returns
    (residual_tv, cap).
    """
    if lattice._integer(s, "s") % 2 != 0:
        raise OddSError("the symmetric refinement needs even s")
    s, pair = _require_matched(f, g, s)
    bp1, bm1 = pair.beta(s + 1)
    leading = ((bp1 - bm1) / math.factorial(s + 1)) * lattice._step_power(1, s + 1)
    residual = (f - g) - leading
    bp2, bm2 = pair.beta(s + 2)
    cap = (bp2 + bm2 + bm1) * 2.0 ** (s + 2)
    return tv_norm(residual), cap
