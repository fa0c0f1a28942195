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
takes several norms at once: each outer draw of Delta solves xi and its
inner T* batch once, in one column-major coordinate-descent batch whose row
0 is xi and whose other rows are the T* draws, and counts the hits of every
norm on them, with the square-root factors of C computed once per call.
xi is solved only there, as row 0; sample_t_star draws T* alone, for
zero_mass_probability.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SparseProjError
from .projection import _cd_shared
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


def _solve_limit_batch(spec: LimitSpec, B: np.ndarray, tol: float = 1e-10,
                       max_sweeps: int = 10_000) -> np.ndarray:
    """Minimize u'Cu - 2u'B_i + lambda0*pen(u) for every row of B."""
    signs = spec.theta0_signs
    if spec.lambda0 == 0.0:
        return np.linalg.solve(spec.C, B.T).T
    U, _ = _cd_shared(spec.C, np.atleast_2d(B), spec.lambda0, signs,
                      np.zeros_like(np.atleast_2d(B)), tol, max_sweeps)
    U[np.abs(U) < _SNAP] = 0.0
    return U


def _sample_w_star(spec: LimitSpec, delta: np.ndarray, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    _, Cinvhalf = _sqrt_factors(spec.C)
    Z = rng.standard_normal((count, spec.p))
    return spec.sigma0 * (delta + Z) @ Cinvhalf  # C^{-1/2} symmetric

def sample_t_star(spec: LimitSpec, delta: np.ndarray, seed: int,
                  count: int = 1) -> np.ndarray:
    """Draw T* given delta: W* from its conditional normal law, then the
    penalized quadratic with b = C W*.  Returns an array of shape (count, p)."""
    delta = np.asarray(delta, dtype=float).ravel()
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x75)))
    W = _sample_w_star(spec, delta, count, rng)
    return _solve_limit_batch(spec, W @ spec.C)


def _coverage_hits(spec: LimitSpec, selectors: tuple[NormSelector, ...],
                   level: float, outer_index: int, inner: int, seed: int,
                   factors: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Per selector, 1 if the conditional credible-ball mass at this outer
    draw is <= level.  xi and the inner T* batch are solved once and shared,
    in one column-major batch: row 0 holds xi's right-hand side, rows
    1..inner those of the T* draws."""
    try:
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(outer_index))))
        delta = rng.standard_normal(spec.p)
        Chalf, Cinvhalf = factors
        W = spec.sigma0 * (delta + rng.standard_normal((inner, spec.p))) @ Cinvhalf
        B = np.empty((inner + 1, spec.p), order="F")
        B[0] = spec.sigma0 * (Chalf @ delta)
        np.matmul(W, spec.C, out=B[1:])
        U = _solve_limit_batch(spec, B)
    except SparseProjError as exc:
        raise type(exc)(f"outer draw {outer_index} (lambda0={spec.lambda0:g}, "
                        f"seed={seed}): {exc}") from exc
    xi = U[0]
    D = U[1:] - xi
    hits = np.empty(len(selectors), dtype=np.int64)
    for k, selector in enumerate(selectors):
        r0 = minkowski_norms(xi, selector)
        q = np.count_nonzero(minkowski_norms(D, selector) <= r0)  # mass, in counts
        hits[k] = q <= level * inner
    return hits


def limiting_coverage_mc(spec: LimitSpec, selectors: Sequence[NormSelector],
                         level: float, outer: int, inner: int, seed: int,
                         workers: int = 1) -> np.ndarray:
    """Estimate the limiting coverage bound by nested Monte Carlo, once per
    selector, in one pass.

    For each of `outer` draws of Delta, the conditional probability
    q(Delta) = P(||T* - xi|| <= ||xi|| | Delta) is estimated from `inner`
    draws of W*, and entry k of the returned array is the fraction of Delta
    draws with q(Delta) <= level in the norm of selectors[k].  Every selector
    reads the same xi and T* draws, so each outer draw costs one solve
    whatever the number of selectors.  Each outer draw owns an RNG stream
    keyed by (seed, outer index), so the result is identical for any worker
    count, and each entry equals a single-selector call.
    """
    selectors = tuple(selectors)
    if outer < 100 or inner < 100:
        raise ValueError("outer and inner must each be at least 100")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    factors = _sqrt_factors(spec.C)
    args = [(spec, selectors, level, i, inner, seed, factors) for i in range(outer)]
    hits = np.zeros(len(selectors), dtype=np.int64)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for h in pool.map(_coverage_hits_star, args,
                              chunksize=max(1, outer // (8 * workers))):
                hits += h
    else:
        for a in args:
            hits += _coverage_hits(*a)
    return hits / outer


def _coverage_hits_star(args) -> np.ndarray:
    return _coverage_hits(*args)


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

    rows = []
    for lam in lambdas:
        spec = spec_builder(lam)
        res = solve_gamma(CalibrationQuery(lambda0=lam, target=target))
        estimates = limiting_coverage_mc(
            spec, [NormSelector.component(j) for j in range(spec.p)],
            res.gamma_level, outer, inner, seed, workers=workers)
        for j, est in enumerate(estimates.tolist()):
            is_noise = spec.theta0_signs[j] == 0
            rows.append({
                "lambda0": lam,
                "coordinate": j,
                "role": "noise" if is_noise else "signal",
                "level": res.gamma_level,
                "estimate": est,
                "mc_se": float(np.sqrt(est * (1.0 - est) / outer)),
                "analytic": res.psi0_at_gamma if is_noise else res.psi_at_gamma,
            })
    return rows
