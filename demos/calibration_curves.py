"""
Why credible intervals need recalibration
=========================================

The l1 projection biases every draw toward zero, so a naive 95% credible
interval undercovers true signals.  The asymptotic coverage of a
level-alpha interval has a closed form in the limit experiment:

  signal coordinate:  psi(alpha, lambda0)   (falls below 1 - alpha)
  noise coordinate:   psi0(alpha, lambda0)  (never below psi)

Inverting psi gives the working level that restores the target coverage.
"""

import numpy as np

from sparseproj.calibration import (
    display_level,
    effective_penalty,
    psi,
    psi_zero,
    solve_gamma,
)

# 1. coverage erosion: nominal 95% intervals as the penalty grows
print("asymptotic coverage of a nominal 95% interval")
print(" lambda0   signal   noise")
for lam0 in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0):
    print(f"   {lam0:4.2f}    {psi(0.05, lam0):.4f}   {psi_zero(0.05, lam0):.4f}")

# at lambda0 = 0 there is no projection bias and both equal 1 - alpha;
# noise coordinates always sit at or above signal ones

# 2. the fix: solve for the level whose signal coverage IS the target
print("\nworking levels that restore the target")
print(" lambda0   target   level    signal   noise")
for lam0 in (0.5, 1.0, 2.0):
    for target in (0.90, 0.95):
        level, psi_signal, psi_noise = solve_gamma(lam0, target)
        print(f"   {lam0:4.1f}     {target:.2f}   {level:.4f}   "
              f"{psi_signal:.4f}   {psi_noise:.4f}")

# the signal column lands back on the target by construction; the noise column
# overshoots it, which is the price of exact signal coverage

# 3. per-coordinate effective penalty: a coordinate's Gram diagonal c_j and
#    an error-scale estimate enter through effective_penalty, which acts as
#    lambda0 / (sigma0 * sqrt(c_j)): twice the shrinkage lambda_n / (2 c_j)
#    of the coordinate, in units of its estimate's spread sigma0 /
#    sqrt(c_j * n).  A stronger column (large c_j) or a noisier fit (large
#    sigma0) feels less of the same penalty and needs less widening
print("\nsame lambda0, different coordinate scale:")
for c_j, sigma0, note in ((1.0, 1.0, ""), (0.25, 1.0, "  (weak column: stronger bias)"),
                          (4.0, 1.0, "  (strong column: weaker bias)"),
                          (1.0, 2.0, "  (noise drowns it)")):
    level = solve_gamma(effective_penalty(1.0, c_j, sigma0), 0.95)[0]
    print(f"  c_j={c_j:g}, sigma0={sigma0:g}  ->  level {level:.4f}{note}")

# 4. the printed table truncates to 4 decimals (never rounds up, so a
#    printed level is always attained)
lvl = solve_gamma(1.0, 0.95)[0]
print(f"\nfull precision {lvl!r} prints as {display_level(lvl)}")

# 5. the monotone picture at a glance: working level vs penalty
lams = np.arange(0.0, 4.01, 0.5)
levels = [solve_gamma(l, 0.95)[0] if l > 0 else 0.95 for l in lams]
width = 48
print("\nworking level for target 0.95 (bar = level - 0.95)")
for l, lv in zip(lams, levels):
    bar = "#" * int(round((lv - 0.95) / 0.05 * width))
    print(f"  lambda0 {l:3.1f}  {lv:.4f} {bar}")
