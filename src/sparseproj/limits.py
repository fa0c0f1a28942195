"""Monte-Carlo sampler for the limiting random objects behind the coverage
theory, plus numerical verification of the coverage and zero-mass claims.

The centered and scaled LASSO estimate converges to the random vector xi,
the minimizer of

    v'Cv - 2 sigma0 v'C^{1/2} Delta + lambda0 * pen(v),
    pen(v) = sum_{signals} v_j sign0_j + sum_{noise} |v_j|,

with Delta standard normal, while the projected posterior draw (centered at
the LASSO estimate, same scaling) converges given the data to

    T* = argmin_t t'Ct - 2 t'CW* + lambda0 * pen(t),
    W* | Delta ~ N(sigma0 C^{-1/2} Delta, sigma0^2 C^{-1}).

limiting_coverage_mc estimates the probability, over Delta, that the
conditional T*-mass of the credible ball around xi reaches a given level,
which is exactly the asymptotic coverage the calibrated level controls.  It
makes one pass across penalties and norms: Delta and W* do not depend on
lambda0, so each outer draw is generated once; each penalty then solves xi
and the T* draws in one shared-Q call of the projection solver _solve, a
column-major coordinate-descent batch (row 0 is xi), and counts the
conditional masses of every norm on it.  sample_t_star draws T* alone, for
zero_mass_probability.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import SparseProjError
from .projection import _solve
from .regions import minkowski_norms
from .types import NormSelector, frozen_copy

_SNAP = 1e-12  # float dust below this is treated as an exact zero


@dataclass(frozen=True)
class LimitSpec:
    """Limit-experiment configuration: Gram limit C, noise scale sigma0,
    rescaled penalty lambda0, and the sign pattern of the true coefficients
    (0 entries mark noise coordinates)."""

    C: np.ndarray
    sigma0: float
    lambda0: float
    theta0_signs: np.ndarray

    def __post_init__(self):
        C = np.asarray(self.C, dtype=float)
        signs = frozen_copy(self.theta0_signs).ravel()
        if signs.size == 0:
            raise ValueError("theta0_signs must name at least one coordinate")
        if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] != signs.shape[0]:
            raise ValueError("C must be p x p matching theta0_signs")
        if not np.isfinite(C).all():
            i, j = np.argwhere(~np.isfinite(C))[0]
            raise ValueError(f"C must be finite, got {C[i, j]} at ({i}, {j})")
        if float(np.abs(C - C.T).max()) > 1e-10 * max(1.0, float(np.abs(C).max())):
            raise ValueError("C must be symmetric")
        if not np.all(np.isin(signs, (-1.0, 0.0, 1.0))):
            raise ValueError("theta0_signs entries must be -1, 0, or +1")
        if np.linalg.eigvalsh(0.5 * (C + C.T)).min() <= 0:
            raise ValueError("C must be positive definite")
        if not 0.0 < self.sigma0 < math.inf:
            raise ValueError(f"sigma0 must be positive and finite, got {self.sigma0}")
        if not 0.0 <= self.lambda0 < math.inf:
            raise ValueError(f"lambda0 must be finite and nonnegative, got {self.lambda0}")
        object.__setattr__(self, "C", frozen_copy(0.5 * (C + C.T)))
        object.__setattr__(self, "theta0_signs", signs)

    @property
    def p(self) -> int:
        return self.theta0_signs.shape[0]

    @property
    def s0(self) -> int:
        return int(np.count_nonzero(self.theta0_signs))


def _sqrt_factors(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C^{1/2}, C^{-1/2}) by symmetric eigendecomposition, eigenvalues
    floored at 1e-12 to absorb round-off."""
    w, V = np.linalg.eigh(C)
    w = np.maximum(w, 1e-12)
    root = np.sqrt(w)
    return (V * root) @ V.T, (V / root) @ V.T


def _solve_limit_batch(spec: LimitSpec, B: np.ndarray) -> np.ndarray:
    """Minimize u'Cu - 2u'B_i + lambda0*pen(u) for every row of B."""
    B = np.atleast_2d(B)
    if spec.lambda0 == 0.0:
        return np.linalg.solve(spec.C, B.T).T
    U, _ = _solve(spec.C, B, spec.lambda0, spec.theta0_signs, np.broadcast_to(0.0, B.shape))
    U[np.abs(U) < _SNAP] = 0.0
    return U


def sample_t_star(spec: LimitSpec, delta: np.ndarray, seed: int,
                  count: int = 1) -> np.ndarray:
    """Draw T* given delta: W* from its conditional normal law, then the
    penalized quadratic with b = C W*.  Returns an array of shape (count, p)."""
    delta = np.asarray(delta, dtype=float).ravel()
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x75)))
    _, Cinvhalf = _sqrt_factors(spec.C)  # C^{-1/2} is symmetric
    W = spec.sigma0 * (delta + rng.standard_normal((count, spec.p))) @ Cinvhalf
    return _solve_limit_batch(spec, W @ spec.C)


def _coverage_masses(specs: tuple[LimitSpec, ...], selectors: tuple[NormSelector, ...],
                     outer_index: int, inner: int, seed: int,
                     factors: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(L, S) conditional masses of one outer draw, in counts: [l, k] is
    #{||T* - xi|| <= ||xi||} in selectors[k]'s norm under specs[l].  The
    right-hand sides are drawn once for all specs, row 0 xi's, rows 1.. the
    T* draws'; each spec solves them in one batch."""
    first = specs[0]
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(outer_index))))
    delta = rng.standard_normal(first.p)
    Chalf, Cinvhalf = factors
    B = np.empty((inner + 1, first.p), order="F")
    B[0] = first.sigma0 * (Chalf @ delta)
    np.matmul(first.sigma0 * (delta + rng.standard_normal((inner, first.p))) @ Cinvhalf,
              first.C, out=B[1:])
    masses = np.empty((len(specs), len(selectors)), dtype=np.int64)
    for spec, row in zip(specs, masses):
        try:
            U = _solve_limit_batch(spec, B)
        except SparseProjError as exc:
            raise type(exc)(f"outer draw {outer_index} (lambda0={spec.lambda0:g}, "
                            f"seed={seed}): {exc}") from exc
        xi = U[0]
        U[1:] -= xi  # rows 1.. now hold T* - xi; freed before the next solve
        for k, selector in enumerate(selectors):
            r0 = minkowski_norms(xi, selector)
            row[k] = np.count_nonzero(minkowski_norms(U[1:], selector) <= r0)
        del U, xi
    return masses


def limiting_coverage_mc(spec: LimitSpec | Sequence[LimitSpec], selectors: Sequence[NormSelector],
                         level: float | Sequence[float], outer: int, inner: int, seed: int,
                         workers: int = 1) -> np.ndarray:
    """Estimate the limiting coverage bound by nested Monte Carlo, for every
    penalty and selector in one pass.

    For each of `outer` draws of Delta, q(Delta) = P(||T* - xi|| <= ||xi||
    | Delta) is estimated from `inner` draws of W*, and entry k is the
    fraction of Delta draws with q(Delta) <= level in selectors[k]'s norm.
    One spec and one level give shape (S,); specs that differ only in
    lambda0, with one level each, give (L, S), and every spec reads the same
    Delta and W* draws.  Outer draw i owns the RNG stream (seed, i), so the
    result is identical for any worker count, and each entry equals a
    single-spec, single-selector call.
    """
    single = isinstance(spec, LimitSpec)
    specs = (spec,) if single else tuple(spec)
    levels = np.array([level] if single else level, dtype=float)
    selectors = tuple(selectors)
    if not specs or levels.shape != (len(specs),):
        raise ValueError("give one level per spec")
    for s in specs[1:]:
        if not (s.sigma0 == specs[0].sigma0 and np.array_equal(s.C, specs[0].C)
                and np.array_equal(s.theta0_signs, specs[0].theta0_signs)):
            raise ValueError(f"spec at lambda0={s.lambda0:g} differs from the first in "
                             "C, sigma0 or theta0_signs, so it cannot share its draws")
    if outer < 100 or inner < 100:
        raise ValueError("outer and inner must each be at least 100")
    if not np.all((0.0 < levels) & (levels < 1.0)):
        raise ValueError("level must lie in (0, 1)")
    draw = partial(_coverage_masses, specs, selectors, inner=inner, seed=seed,
                   factors=_sqrt_factors(specs[0].C))
    bounds = levels[:, None] * inner  # hit: mass <= level, in counts
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, outer // (8 * workers))
            hits = sum(q <= bounds for q in pool.map(draw, range(outer), chunksize=chunk))
    else:
        hits = sum(draw(i) <= bounds for i in range(outer))
    return hits[0] / outer if single else hits / outer


def zero_mass_probability(spec: LimitSpec, delta: np.ndarray, inner: int,
                          seed: int) -> float:
    """Fraction of T* draws whose noise coordinates are all exactly zero.

    For lambda0 > 0 this is strictly positive, which is why the projected
    posterior can put real mass on sparse models; at lambda0 = 0 the law of
    T* is continuous and the function short-circuits to 0.  Requires at
    least one noise coordinate.
    """
    if spec.lambda0 <= 0.0:
        # continuous law; exact zeros have probability 0
        return 0.0
    noise = spec.theta0_signs == 0
    if not noise.any():
        raise ValueError("spec has no noise coordinate")
    T = sample_t_star(spec, delta, seed, count=inner)
    all_zero = (T[:, noise] == 0.0).all(axis=1)
    return float(np.count_nonzero(all_zero) / inner)


def limitcheck_rows(spec_builder, lambdas, target: float, outer: int, inner: int,
                    seed: int, workers: int = 1) -> list[dict]:
    """Coverage verification sweep used by the CLI: one row per
    (lambda0, coordinate) with the MC estimate and its analytic benchmark."""
    from .calibration import CalibrationQuery, solve_gamma

    lambdas = list(lambdas)
    if not lambdas:
        return []
    specs = [spec_builder(lam) for lam in lambdas]
    results = [solve_gamma(CalibrationQuery(lambda0=lam, target=target)) for lam in lambdas]
    estimates = limiting_coverage_mc(
        specs, [NormSelector.component(j) for j in range(specs[0].p)],
        [res.gamma_level for res in results], outer, inner, seed, workers=workers)
    rows = []
    for lam, spec, res, row in zip(lambdas, specs, results, estimates.tolist()):
        for j, est in enumerate(row):
            is_noise = spec.theta0_signs[j] == 0
            rows.append({"lambda0": lam, "coordinate": j,
                         "role": "noise" if is_noise else "signal",
                         "level": res.gamma_level, "estimate": est,
                         "mc_se": float(np.sqrt(est * (1.0 - est) / outer)),
                         "analytic": res.psi0_at_gamma if is_noise else res.psi_at_gamma})
    return rows
