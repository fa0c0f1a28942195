"""Analytic limiting-coverage functions and credibility-level calibration.

For a componentwise credible interval built at credibility 1 - gamma, the
limiting frequentist coverage depends on the component's effective penalty
lam0 (effective_penalty; the rescaled penalty itself at unit Gram diagonal
and error s.d.) and on whether the true coefficient is a signal or a zero:

    signal coverage   psi(gamma, lam0)  = Phi(lam0/2 + z) - Phi(lam0/2 - z)
    zero coverage     psi_zero(gamma, lam0) = P(h_zero(lam0, Z) <= 1 - gamma)

with z = z_{gamma/2} and Z standard normal.  Calibration inverts psi in
gamma so a requested coverage target is hit exactly in the limit.  There is
one root solve, _newton_zeros: a safeguarded Newton iteration on z over a
whole array of effective penalties, with the normal CDF taken per element
from math.erfc.  effective_penalty is the one place that turns the rescaled
penalty, a component's Gram diagonal and the error s.d. into the penalty
that component is calibrated at (`fit`, `calibrate`, `limitcheck`).
solve_levels returns the levels of a whole array of such penalties at once
(every component of a fit; one column per target of calibration_table), and
solve_gamma returns one penalty's level with psi and psi_zero there
(`calibrate`, `limitcheck`).

Since psi < 1 - gamma for lam0 > 0, the requested credibility must exceed
the coverage target; a table row says by how much.
"""

from __future__ import annotations

import io
import math

import numpy as np

from .normal import INV_SQRT_2PI, norm_cdf, norm_ppf

_BISECT_TOL = 1e-12
_Z_HI = 40.0  # Phi saturates to double precision well before this
_NEWTON_TOL = 1e-14


def h_plus(lambda0: float, zeta: float) -> float:
    """Conditional coverage of a positive-signal coordinate given the
    standardized limit draw zeta: 2*Phi(|zeta - lambda0/2|) - 1.  A negative
    signal's is the mirror image, h_plus(lambda0, -zeta)."""
    return 2.0 * norm_cdf(abs(zeta - 0.5 * lambda0)) - 1.0


def h_zero(lambda0: float, zeta: float) -> float:
    """Conditional coverage of a zero coordinate given zeta.

    Piecewise in zeta with breakpoint b = lambda0/2; the middle branch covers
    |zeta| <= b and the outer branches are mirror images of each other, so
    h_zero is even in zeta.
    """
    b = 0.5 * lambda0
    if zeta > b:
        return norm_cdf(zeta - b) - norm_cdf(-zeta - b)
    if zeta < -b:
        return norm_cdf(-zeta + b) - norm_cdf(zeta + b)
    return norm_cdf(zeta + b) - norm_cdf(zeta - b)


def psi(alpha: float, lambda0: float) -> float:
    """Limiting coverage of a signal coordinate at credibility 1 - alpha."""
    z = norm_ppf(1.0 - 0.5 * alpha)
    return norm_cdf(0.5 * lambda0 + z) - norm_cdf(0.5 * lambda0 - z)


def _bisect(f, lo: float, hi: float, tol: float = _BISECT_TOL) -> float:
    # f(lo) and f(hi) must bracket a sign change; plain midpoint bisection
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def psi_zero(alpha: float, lambda0: float) -> float:
    """Limiting coverage of a zero coordinate at credibility 1 - alpha.

    The defining integral is the standard-normal mass of the set where
    h_zero <= 1 - alpha.  h_zero is even, decreasing on [0, b] and
    increasing on [b, inf) with b = lambda0/2, so that set is a symmetric
    pair of intervals whose endpoints are found by bisection on the two
    monotone branches.
    """
    if lambda0 == 0.0:
        return 1.0 - alpha
    b = 0.5 * lambda0
    t = 1.0 - alpha
    f = lambda z: h_zero(lambda0, z) - t
    if f(b) > 0.0:
        return 0.0  # even the minimum of h_zero exceeds the credibility
    z1 = 0.0 if f(0.0) <= 0.0 else _bisect(f, 0.0, b)
    hi = b + _Z_HI
    z2 = _bisect(f, b, hi) if f(hi) > 0.0 else hi
    return 2.0 * (norm_cdf(z2) - norm_cdf(z1))


def _cdf(x: np.ndarray) -> np.ndarray:
    """norm_cdf of every element, so arrays and scalars round alike."""
    return np.fromiter((norm_cdf(v) for v in x.tolist()), float, x.size)


def _newton_zeros(lambda_eff: np.ndarray, target: float) -> np.ndarray:
    """The root z >= 0 of Phi(l/2 + z) - Phi(l/2 - z) = target at every penalty
    l of a 1-d array; the left side rises strictly from 0 to 1 in z.

    Each root is bracketed in [0, _Z_HI] and starts at the exact root for
    penalty 0, norm_ppf(0.5 + target/2).  Every iteration evaluates the
    residual, shrinks the bracket to the side holding the root, and takes a
    Newton step; when that step would not land strictly inside the bracket,
    or the density has underflowed to 0 (a penalty far above the level's
    range), it bisects instead.  A root is done once a step moves it by at
    most 1e-14 or its residual is exactly 0.
    """
    half = 0.5 * lambda_eff
    z = np.full(half.shape, norm_ppf(0.5 + 0.5 * target))
    lo = np.zeros(half.shape)
    hi = np.full(half.shape, _Z_HI)
    todo = np.arange(half.size)
    for _ in range(200):
        if todo.size == 0:
            break
        h, zt, lt, ht = half[todo], z[todo], lo[todo], hi[todo]
        f = _cdf(h + zt) - _cdf(h - zt) - target
        below = f < 0.0
        lt = np.where(below, zt, lt)
        ht = np.where(below, ht, zt)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            slope = INV_SQRT_2PI * (np.exp(-0.5 * (h + zt) ** 2)
                                    + np.exp(-0.5 * (h - zt) ** 2))
            step = zt - f / slope
        inside = (lt < step) & (step < ht)  # false for the inf or NaN of slope 0
        znew = np.where(f == 0.0, zt, np.where(inside, step, 0.5 * (lt + ht)))
        z[todo], lo[todo], hi[todo] = znew, lt, ht
        todo = todo[~(np.abs(znew - zt) <= _NEWTON_TOL)]
    return z


def _clipped_gamma(cdf_z):
    """gamma = 2(1 - Phi(z)) from Phi(z), clipped to [1e-15, 1 - 1e-15]: the
    floor keeps 1 - gamma/2 strictly below 1.0 in doubles, so the quantile
    lookups inside psi stay well defined when the penalty saturates the
    level."""
    return np.clip(2.0 * (1.0 - cdf_z), 1e-15, 1.0 - 1e-15)


def effective_penalty(lambda0, c, sigma0):
    """The penalty a component is calibrated at: lambda0 / (sigma0 * sqrt(c)),
    from the rescaled penalty lambda0, the component's limiting Gram
    diagonal c (a number or an array) and the error s.d. sigma0.

    For a diagonal C the substitution v = sigma0 * w / sqrt(c) turns the
    limit problem v'Cv - 2 sigma0 v'C^{1/2} Delta + lambda0 * pen(v) into
    sigma0^2 (w'w - 2 w'Delta + pen(w) * lambda0 / (sigma0 sqrt(c))): the
    unit-scale problem at this penalty, the one psi and psi_zero describe.
    A zero denominator or an overflow gives inf, which solve_levels
    rejects."""
    with np.errstate(divide="ignore", over="ignore"):
        return lambda0 / (sigma0 * np.sqrt(c))


def _gammas(lambda_eff, target: float) -> np.ndarray:
    """The clipped gamma of every effective penalty in lambda_eff (any
    shape), from one _newton_zeros solve.  The penalties must be finite and
    nonnegative, and target must lie in (0, 1)."""
    lam = np.asarray(lambda_eff, dtype=float)
    if not 0.0 < target < 1.0:
        raise ValueError("target must lie in (0, 1)")
    bad = np.flatnonzero(~((0.0 <= lam) & (lam < math.inf)))
    if bad.size:
        raise ValueError("effective penalty lambda0/(sigma0*sqrt(c_j)) must be finite and "
                         f"nonnegative, got {lam.flat[bad[0]]} at index {bad[0]}")
    z = _newton_zeros(lam.ravel(), float(target))
    return _clipped_gamma(_cdf(z)).reshape(lam.shape)


def solve_levels(lambda_eff, target: float) -> np.ndarray:
    """Credibility level of each component from its effective penalty
    (effective_penalty), for a whole array of penalties in one vectorized
    Newton solve."""
    return 1.0 - _gammas(lambda_eff, target)


def solve_gamma(lambda_eff: float, target: float) -> tuple[float, float, float]:
    """(level, psi, psi_zero) at one effective penalty: the credibility level
    1 - gamma whose limiting signal coverage equals target, from the solve
    and checks of solve_levels, with the signal and zero coverage at that
    gamma."""
    lam = float(lambda_eff)
    gamma = float(_gammas(lam, target))
    return 1.0 - gamma, psi(gamma, lam), psi_zero(gamma, lam)


# Penalty grid of the reference calibration table: 0.05..1 by 0.05,
# 1.1..2 by 0.1, 2.2..3 by 0.2, then 3.5 and 4.
TABLE_LAMBDAS = tuple(
    [round(0.05 * k, 2) for k in range(1, 21)]
    + [round(1.0 + 0.1 * k, 1) for k in range(1, 11)]
    + [round(2.0 + 0.2 * k, 1) for k in range(1, 6)]
    + [3.5, 4.0]
)
TABLE_TARGETS = (0.9, 0.925, 0.95, 0.975, 0.99)


def calibration_table(lambdas=TABLE_LAMBDAS, targets=TABLE_TARGETS) -> list[list[float]]:
    """Credibility level over the grid: one row per lambda, one solve_levels column per target."""
    if not lambdas or not targets:
        raise ValueError("lambdas and targets must be nonempty")
    return np.column_stack([solve_levels(lambdas, t) for t in targets]).tolist()


def display_level(level: float) -> str:
    """Four-decimal display of a credibility level, truncated rather than
    rounded so the printed value never overstates the computed one (the
    reference-table convention: 0.970852 displays as 0.9708, 0.990173 as
    0.9901).  The 1e-9 nudge only absorbs representation noise at an exact
    four-decimal boundary.
    """
    return f"{math.floor(level * 10000.0 + 1e-9) / 10000.0:.4f}"


def calibration_table_csv(lambdas=TABLE_LAMBDAS, targets=TABLE_TARGETS) -> str:
    """CSV text of the calibration table: rows lambda, columns targets.

    Cells use the truncating four-decimal display convention of
    display_level; calibration_table keeps full precision.
    """
    rows = calibration_table(lambdas, targets)
    out = io.StringIO()
    out.write("lambda," + ",".join(f"{t:g}" for t in targets) + "\n")
    for lam, row in zip(lambdas, rows):
        out.write(f"{lam:g}," + ",".join(display_level(v) for v in row) + "\n")
    return out.getvalue()
