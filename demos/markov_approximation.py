"""
Markov-Binomial law vs signed compound-geometric approximant
============================================================

The number of ones in n steps of a sticky two-state chain is computed
exactly by powering the chain's 2x2 transfer matrix of polynomials, then
approximated by the exponential of a scaled geometric excess measure: a
signed measure with total mass one whose mean and variance match the
chain law's.  The Kolmogorov gap
between the two decays at about n^(-0.6) in the sticky small-switch regime.
"""

from wsumdist import (
    ExperimentConfig,
    MBParams,
    build_din,
    cond1_check,
    mb_pmf,
    mb_simulate,
    moments,
    run_markov,
    signed_moments,
)

PARAMS = MBParams(p=0.3, q_bar=0.02, n=100)

# The regime gate: sticky chain (p <= 1/2), rare switch-on
# (q_bar <= 1/30), switch rate not vanishing against the horizon.
report = cond1_check(PARAMS)
print(f"regime ok: {report.ok}  clauses: {report.clauses}")

# Exact law vs a million simulated chains: the exact law is the ground
# truth, the simulation just illustrates it.
law = mb_pmf(PARAMS)
sim = mb_simulate(PARAMS, 1_000_000, seed=7)
print(f"exact mean {moments(law).mean:.6f}, simulated {moments(sim).mean:.6f}")

# The signed approximant: rate gamma in [q_bar/2, q_bar], linear and
# quadratic exponent coefficients fitted to the chain's moments.  The
# quadratic coefficient carries the chain's exact variance, start-at-zero
# transient included, so both gaps sit at the truncation level.
coeffs, d = build_din(PARAMS)
print(f"gamma {coeffs.gamma:.6g}, a1 {coeffs.a1:.6g}, a2 {coeffs.a2:.6g}")
print(f"approximant mass {d.total_mass:.12f}")
print(f"mean gap {signed_moments(d).mean - moments(law).mean:.3e}")
print(f"variance gap {signed_moments(d).variance - moments(law).variance:.3e}")
print()

# Across horizons the distance falls by about 2.5x as n quadruples, and
# the ratio to the structural factor stays within a narrow band.
result = run_markov(ExperimentConfig(kind="markov-sweep", n_grid=(50, 100, 200, 400)))
print(result.to_text())
