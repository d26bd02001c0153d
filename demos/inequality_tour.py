"""
Randomized inequality tour
==========================

Every structural inequality in the library is wrapped as a seeded check
family over random instances: smoothing bounds for convolution norms,
the Fourier inversion cap with its integrals summed exactly by Parseval,
moment-matched gap caps, and the transform envelopes of the geometric
excess measure.  One seed fixes every instance, so a run is exactly
reproducible.
"""

from wsumdist import (
    CHECK_NAMES,
    CORE_INEQUALITY_CHECKS,
    factorial_moment,
    gen_matched_pair,
    lemma_fg_gap,
    run_check,
    tv_norm,
)

print("check families:", ", ".join(CHECK_NAMES))
print()

# The headline run: the core families at 60 instances each (the test
# suite uses 200).  Zero failures expected.
report = run_check(seed=1, count=60, names=CORE_INEQUALITY_CHECKS)
for res in report.results:
    print(f"{res.name:>20}: passed {res.passed:3d} failed {res.failed}")
print(f"all ok: {report.ok}")
print()

# The failure path is reachable on purpose: corrupting one family's
# right-hand sides to -1 shows what a broken inequality would report.
bad = run_check(seed=1, count=4, names=("roos",), corrupt="roos")
print(f"corrupted roos: failed {bad.results[0].failed} of 4; first record:")
print(" ", bad.results[0].failures[0])
print()

# Random moment-matched pairs drive the gap checks: factorial moments
# agree through order s, yet the laws differ, and the order-(s+1) cap
# still holds.
f, g = gen_matched_pair(42, 3)
gap, cap = lemma_fg_gap(f, g, 3)
print(f"matched pair: tv gap {gap:.6f} <= cap {cap:.6f}")
for k in (1, 2, 3, 4):
    print(
        f"  nu_{k}: F {factorial_moment(f, k):.6f}  G {factorial_moment(g, k):.6f}"
    )
print(f"  tv(F - G) = {tv_norm(f - g):.6f}")
