"""
The projection limit experiment
===============================

After centering and sqrt(n)-rescaling, the projected posterior and the
projected estimator converge to explicit soft-threshold functionals of
Gaussian vectors.  This limit is where the calibration constants come
from, and it is cheap to simulate directly: no regression data, just the
limiting Gram matrix C, the noise scale, the penalty, and the signs of
the true coefficients (0 marks a noise coordinate).
"""

import numpy as np

from sparseproj.limits import (
    LimitSpec,
    limitcheck_rows,
    sample_t_star,
    zero_mass_probability,
)

# one spec serves every penalty: lambda0 is an argument of each function
spec = LimitSpec(C=np.eye(3), sigma0=1.0, theta0_signs=(1, -1, 0))

# 1. draws of the limiting projected estimator, conditional on a local
#    parameter delta: signal coordinates shift by a constant, the noise
#    coordinate is soft-thresholded and has an atom at exactly 0
delta = np.zeros(3)
T = sample_t_star(spec, 1.0, delta, seed=0, count=20000)
print("limiting projected estimator, delta = 0:")
print(f"  signal coord means  {T[:, 0].mean():+.3f} {T[:, 1].mean():+.3f} "
      f"(shifted by -sign * lambda0/2 = -+0.5)")
print(f"  noise coord zeros   {np.mean(T[:, 2] == 0.0):.4f} of draws")

# 2. that atom is the source of sparse model probabilities; its size is
#    P(|N(0,1)| <= lambda0/2) at delta = 0 and shrinks as the penalty does
print("\nzero-mass probability of the noise coordinate")
print(" lambda0   estimate   exact")
from math import erf, sqrt
for lam0 in (0.5, 1.0, 2.0):
    est = zero_mass_probability(spec, lam0, delta, inner=20000, seed=1)
    exact = erf(lam0 / (2.0 * sqrt(2.0)))
    print(f"   {lam0:4.1f}    {est:.4f}    {exact:.4f}")

# 3. the coverage verification sweep the CLI exposes as `sparseproj
#    limitcheck`: calibrate each coordinate's level for 0.95 at its effective
#    penalty lambda0 / (sigma0 * sqrt(C_jj)) (here lambda0 itself), then estimate
#    every penalty's per-coordinate coverage in one nested Monte-Carlo pass
#    (each outer draw is generated once, with one certified solve per outer
#    draw for every penalty) and set it against the analytic value
rows = limitcheck_rows(spec, lambdas=(0.5, 1.0, 2.0), target=0.95,
                       outer=500, inner=500, seed=3)
print("\ncalibrated coverage in the limit (500 x 500 draws, target 0.95)")
print(" lambda0  coord  role    level    estimate  analytic   mc se")
for r in rows:
    print(f"   {r['lambda0']:4.1f}    {r['coordinate']}    {r['role']:<6} "
          f"{r['level']:.4f}   {r['estimate']:.4f}    {r['analytic']:.4f}   "
          f"{r['mc_se']:.4f}")

# signal rows estimate the target itself; noise rows estimate the higher
# analytic noise coverage, so both columns should agree within a few se
