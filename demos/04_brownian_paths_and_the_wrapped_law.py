"""
Brownian motion meets the wrapping map
======================================

Brownian motion on the group is simulated by a geodesic random walk:
each step exponentiates an algebra increment whose coordinates are random
signs +-sqrt(h).  The signs match the Gaussian moments to order 3, which is
all a scheme of weak order 1 needs (the simplified weak Euler scheme of
Kloeden & Platen, Numerical Solution of SDEs, 1992, 14.1), and geodesic
random walks converge to Brownian motion (Jorgensen, Z. Wahrsch. 32, 1975).
On a torus exp is a homomorphism, so the walk takes its whole horizon as
one step of normal increments and the endpoint is exact.  The time-t
law is the plain heat kernel up to an O(h) bias, and after an
exp(||rho||^2 t / 2) reweighting it matches the wrapped flat Gaussian,
whose algebra endpoints are still drawn exactly Gaussian.  Everything
below is Monte Carlo with counter-based streams, so reruns with the same
seed reproduce bit for bit.
"""

import numpy as np

from wrapkit import (
    SdeConfig,
    conjugacy_coordinate,
    empirical_density_table,
    feynman_kac_weight,
    make_group,
    mc_expect_central,
    real_character,
    sample_group_endpoint,
    wrap_bm_check,
)

g = make_group("su2")
cfg = SdeConfig(group=g, t=1.0, step=5e-3, paths=40_000, seed=7)

# endpoints land on the group; their conjugacy coordinate fills the alcove
theta = conjugacy_coordinate(g, sample_group_endpoint(cfg))[:, 0]
print(f"{cfg.paths} endpoints at t={cfg.t}: "
      f"mean angle {theta.mean():.4f}, max {theta.max():.4f} (< 2 pi)")

# ---------------------------------------------------------------------------
# Histogram the angles against the predicted radial density q_t x Weyl
# factor.  Every populated bin should sit within 4/sqrt(expected).
# ---------------------------------------------------------------------------

score, rows = empirical_density_table(g, cfg, 8)
print(f"\ndensity check score = {score:.3f} (pass means < 1)")
for lo, hi, expected, observed, dev, thr in rows:
    mark = "-" if not np.isfinite(dev) else f"dev {dev:.4f} vs {thr:.4f}"
    print(f"  [{lo:.2f}, {hi:.2f})  expected {expected:9.1f} "
          f"observed {observed:6d}  {mark}")

# ---------------------------------------------------------------------------
# The wrapped-law theorem, as statistics: the flat-side expectation of
# j * (f o exp) equals the group-side expectation of f divided by the
# Feynman-Kac weight.
# ---------------------------------------------------------------------------

f = real_character(g, (1,))
rep = wrap_bm_check(g, f, SdeConfig(group=g, t=0.5, step=5e-3,
                                    paths=40_000, seed=7))
print(f"\nwrap check at t=0.5: flat side {rep.lhs.mean:.5f} "
      f"+- {rep.lhs.stderr:.5f}, group side {rep.rhs.mean:.5f} "
      f"+- {rep.rhs.stderr:.5f}, z = {rep.z:.2f}")
print(f"Feynman-Kac weight e^(||rho||^2 t/2) = {feynman_kac_weight(g, 0.5):.6f}")

# the theory says both sides estimate d exp(-||pi+rho||^2 t / 2)
exact = 2.0 * np.exp(-1.0 * 0.5 / 2.0)
print(f"exact value 2 e^(-t/2) = {exact:.5f}")

# plain (unweighted) expectations decay at the gap rate instead
est = mc_expect_central(f, cfg)
plain = 2.0 * np.exp(-0.75 * cfg.t / 2.0)
print(f"\nplain E[chi(xi_t)] = {est.mean:.5f} +- {est.stderr:.5f} "
      f"vs 2 e^(-3t/8) = {plain:.5f}")
