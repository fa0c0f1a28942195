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

So CW* = sigma0 C^{1/2} (Delta + Z) with Z standard normal, and xi's
right-hand side is the Z = 0 case: every right-hand side is one product
with C^{1/2}, which the LimitSpec keeps from the eigendecomposition that
checks C.

limiting_coverage_mc estimates, for every coordinate j, the probability
over Delta that the conditional T*-mass of the component interval
|t_j - xi_j| <= |xi_j| reaches a given level, which is exactly the
asymptotic coverage the calibrated level controls.  Delta and W* do not
depend on lambda0, so each outer draw is generated once, and its
right-hand sides (xi's, then the T* draws', from one product) are stacked
penalty-major into one batch with one penalty per row, which one call of
the projection solver _solve certifies whole.  A zero penalty (the
Bernstein-von Mises case) is one more row penalty: on C = I it certifies
in one sweep with a linear solve's bits, and on an ill-conditioned C it
needs coordinate descent to converge, as a positive penalty does.  Every
penalty's and coordinate's conditional mass is then counted in one
comparison.  sample_t_star draws T* alone, for zero_mass_probability, from
the same right-hand-side builder and solve.  A LimitSpec holds C, sigma0
and the signs, and every function takes the penalty lambda0 (or a list of
them) beside it.  limitcheck_rows calibrates each coordinate's level at
its effective penalty (calibration.effective_penalty) and sets the
estimates beside psi and psi_zero there.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .calibration import effective_penalty, solve_gamma
from .errors import SparseProjError
from .projection import _solve
from .types import frozen_copy, map_chunks

_SNAP = 1e-12  # float dust below this is treated as an exact zero


@dataclass(frozen=True)
class LimitSpec:
    """Limit-experiment configuration: Gram limit C, noise scale sigma0 and
    the sign pattern of the true coefficients (0 entries mark noise
    coordinates).  The rescaled penalty lambda0 is an argument of each
    function, so one spec serves a whole sweep of penalties.  C_half is
    C^{1/2}, from the eigendecomposition that checks C, its eigenvalues
    floored at 1e-12 to absorb round-off."""

    C: np.ndarray
    sigma0: float
    theta0_signs: np.ndarray
    C_half: np.ndarray = field(init=False, compare=False)

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
        C = 0.5 * (C + C.T)
        w, V = np.linalg.eigh(C)
        if w.min() <= 0:
            raise ValueError("C must be positive definite")
        if not 0.0 < self.sigma0 < math.inf:
            raise ValueError(f"sigma0 must be positive and finite, got {self.sigma0}")
        object.__setattr__(self, "C", frozen_copy(C))
        object.__setattr__(self, "C_half", frozen_copy((V * np.sqrt(np.maximum(w, 1e-12))) @ V.T))
        object.__setattr__(self, "theta0_signs", signs)

    @property
    def p(self) -> int:
        return self.theta0_signs.shape[0]


def _checked_lambda0(lambda0: float) -> float:
    if not 0.0 <= lambda0 < math.inf:
        raise ValueError(f"lambda0 must be finite and nonnegative, got {lambda0}")
    return float(lambda0)


def _limit_rhs(spec: LimitSpec, delta: np.ndarray, Z: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """sigma0 (delta + Z_i) C^{1/2} for every row Z_i of Z, which it
    overwrites: T*'s right-hand side C W* for a standard normal row, as
    C W* = sigma0 C^{1/2} (delta + Z) by W*'s law, and xi's for a zero row."""
    Z += delta
    Z *= spec.sigma0
    return np.matmul(Z, spec.C_half, out=out)


def _limit_solve(spec: LimitSpec, B: np.ndarray, lam: float | np.ndarray,
                 buffers: tuple[np.ndarray, ...], name: Callable[[int], str]) -> np.ndarray:
    """Minimizers of u'Cu - 2u'B_i + lam*pen(u) for every row of B at the
    penalty lam, one or one per row (zero included), by one certified
    _solve call in buffers (U, G, S), which names row i as name(i); float
    dust |u| < _SNAP then becomes an exact zero (a negative one -0.0)."""
    U, _ = _solve(spec.C, B, lam, spec.theta0_signs, np.broadcast_to(0.0, B.shape), buffers, name)
    U *= np.abs(U, out=buffers[2]) >= _SNAP
    return U


def _checked_delta(spec: LimitSpec, delta: np.ndarray, count: int, count_name: str) -> np.ndarray:
    delta = np.asarray(delta, dtype=float).ravel()
    if delta.shape[0] != spec.p:
        raise ValueError(f"delta has length {delta.shape[0]}, expected {spec.p}")
    if not np.isfinite(delta).all():
        j = int(np.flatnonzero(~np.isfinite(delta))[0])
        raise ValueError(f"delta must be finite, got {delta[j]} at index {j}")
    if not count >= 1:
        raise ValueError(f"{count_name} must be at least 1, got {count}")
    return delta


def sample_t_star(spec: LimitSpec, lambda0: float, delta: np.ndarray, seed: int,
                  count: int = 1) -> np.ndarray:
    """Draw T* at penalty lambda0 given delta, a finite length-p vector:
    W* from its conditional normal law, then the penalized quadratic with
    b = C W*.  Returns an array of shape (count, p)."""
    lambda0 = _checked_lambda0(lambda0)
    delta = _checked_delta(spec, delta, count, "count")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x75)))
    B = _limit_rhs(spec, delta, rng.standard_normal((count, spec.p)))
    return _limit_solve(spec, B, lambda0, [np.empty(B.shape, order="F") for _ in range(3)],
                        lambda k: f"lambda0={lambda0:g}, T* draw {k}")


def _draw_buffers(lambdas: tuple[float, ...], inner: int, p: int) -> tuple[np.ndarray, ...]:
    """The work arrays of an outer draw, which every draw of a chunk reuses:
    the per-row penalties of the one _solve call, then (B, U, G, S), each
    F-ordered with one (inner + 1, p) block per penalty: the stacked
    right-hand sides, and _solve's solutions and certificate work (G and S
    then hold the counting work).  At the default sizes each is over glibc's
    mmap threshold, so fresh ones on every draw would fault pages in again."""
    rows = len(lambdas) * (inner + 1)
    return (np.repeat(lambdas, inner + 1),
            *(np.empty((rows, p), order="F") for _ in range(4)))


def _count_masses(T: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Counts #{k >= 1: |T[..., k] - T[..., 0]| <= |T[..., 0]|} along the last
    axis, which holds xi at 0 and the T* draws after it; |T - xi| is formed
    in work, shaped like T."""
    xi = T[..., :1]
    D = np.subtract(T, xi, out=work)
    np.abs(D, out=D)
    return np.count_nonzero(D[..., 1:] <= np.abs(xi), axis=-1)


def _coverage_masses(spec: LimitSpec, lambdas: tuple[float, ...], outer_index: int,
                     inner: int, seed: int,
                     buffers: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """(L, p) conditional masses of one outer draw, in counts: [l, j] is
    #{|T*_j - xi_j| <= |xi_j|} at penalty lambdas[l].  The right-hand sides
    are formed once for all penalties by one _limit_rhs product, row 0
    xi's, rows 1.. the T* draws', and every penalty, zero included, solves
    them in one certified _solve call, its own block of the stacked batch
    at its own per-row penalty.  buffers, from _draw_buffers, are fresh by
    default."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(outer_index))))
    delta = rng.standard_normal(spec.p)
    lam_rows, B, U, G, S = buffers or _draw_buffers(lambdas, inner, spec.p)
    rows = inner + 1
    Z = np.zeros((rows, spec.p))  # row 0 is xi's
    rng.standard_normal(out=Z[1:])
    _limit_rhs(spec, delta, Z, out=B[:rows])
    for block in range(1, len(lambdas)):
        B[block * rows:(block + 1) * rows] = B[:rows]

    def name(i: int) -> str:
        block, k = divmod(i, rows)
        return f"lambda0={lambdas[block]:g}, " + (f"T* draw {k - 1}" if k else "xi")

    try:
        U = _limit_solve(spec, B, lam_rows, (U, G, S), name)
    except SparseProjError as exc:
        listed = ",".join(f"{lam:g}" for lam in lambdas)
        raise type(exc)(f"outer draw {outer_index} (lambda0={listed}, seed={seed}): "
                        f"{exc}") from exc
    T = U.T.reshape(spec.p, len(lambdas), rows)  # [j, block, row], a view
    return _count_masses(T, G.T.reshape(T.shape)).T


def _coverage_hits(spec: LimitSpec, lambdas: tuple[float, ...], bounds: np.ndarray,
                   indices: range, inner: int, seed: int) -> np.ndarray:
    """(L, p) counts of the outer draws at indices whose mass is within
    bounds, the draws in order and all in one set of draw buffers."""
    buffers = _draw_buffers(lambdas, inner, spec.p)
    return sum(_coverage_masses(spec, lambdas, i, inner, seed, buffers) <= bounds
               for i in indices)


def limiting_coverage_mc(spec: LimitSpec, lambdas: Sequence[float], levels, outer: int,
                         inner: int, seed: int, workers: int = 1) -> np.ndarray:
    """Estimate the limiting coverage of every component interval by nested
    Monte Carlo, for every penalty in one pass.

    For each of `outer` draws of Delta, q_j(Delta) = P(|T*_j - xi_j| <=
    |xi_j| | Delta) is estimated from `inner` draws of W*, and entry [l, j]
    is the fraction of Delta draws with q_j(Delta) <= levels[l] (one level
    for every coordinate) or levels[l][j] (one per coordinate) at penalty
    lambdas[l].  Every penalty reads the same Delta and W* draws, so the
    (L, p) result has in each row what a call with that penalty alone
    gives.  Outer draw i owns the RNG stream (seed, i), so the result is
    identical for any worker count.  Workers take contiguous chunks of
    outer indices (types.map_chunks), each in its own draw buffers.
    """
    lambdas = tuple(_checked_lambda0(lam) for lam in lambdas)
    levels = np.array(levels, dtype=float)
    if levels.ndim == 1:
        levels = levels[:, None]
    if not lambdas or levels.shape not in ((len(lambdas), 1), (len(lambdas), spec.p)):
        raise ValueError("give one level per penalty, or one per penalty and coordinate")
    if outer < 100 or inner < 100:
        raise ValueError("outer and inner must each be at least 100")
    if not np.all((0.0 < levels) & (levels < 1.0)):
        raise ValueError("level must lie in (0, 1)")
    chunk = partial(_coverage_hits, spec, lambdas, levels * inner,  # hit: mass <= level
                    inner=inner, seed=seed)
    return sum(map_chunks(chunk, outer, workers)) / outer


def zero_mass_probability(spec: LimitSpec, lambda0: float, delta: np.ndarray, inner: int,
                          seed: int) -> float:
    """Fraction of T* draws at penalty lambda0 whose noise coordinates are all
    exactly zero.

    For lambda0 > 0 this is strictly positive, which is why the projected
    posterior can put real mass on sparse models; at lambda0 = 0 the law of
    T* is continuous and the function short-circuits to 0.  Requires at
    least one noise coordinate.
    """
    _checked_delta(spec, delta, inner, "inner")
    lambda0 = _checked_lambda0(lambda0)
    noise = spec.theta0_signs == 0
    if not noise.any():
        raise ValueError("spec has no noise coordinate")
    if lambda0 == 0.0:
        return 0.0
    T = sample_t_star(spec, lambda0, delta, seed, count=inner)
    return float(np.count_nonzero((T[:, noise] == 0.0).all(axis=1)) / inner)


def limitcheck_rows(spec: LimitSpec, lambdas, target: float, outer: int, inner: int,
                    seed: int, workers: int = 1) -> list[dict]:
    """Coverage verification sweep used by the CLI: one row per (lambda0,
    coordinate) with the MC estimate at the coordinate's calibrated level
    and its analytic benchmark.  Coordinate j is calibrated at its effective
    penalty, effective_penalty(lambda0, C_jj, sigma0)."""
    lambdas = list(lambdas)
    if not lambdas:
        return []
    penalties = effective_penalty(np.array(lambdas, dtype=float)[:, None], np.diag(spec.C),
                                  spec.sigma0).tolist()  # [l][j]: lambdas[l], coordinate j
    solved = {lam: solve_gamma(lam, target) for lam in set().union(*penalties)}
    cells = [[solved[lam] for lam in row] for row in penalties]
    estimates = limiting_coverage_mc(spec, lambdas, [[cell[0] for cell in row] for row in cells],
                                     outer, inner, seed, workers=workers)
    rows = []
    for lam, row, row_est in zip(lambdas, cells, estimates.tolist()):
        for j, ((level, psi_signal, psi_noise), est) in enumerate(zip(row, row_est)):
            is_noise = spec.theta0_signs[j] == 0
            rows.append({"lambda0": lam, "coordinate": j,
                         "role": "noise" if is_noise else "signal",
                         "level": level, "estimate": est,
                         "mc_se": float(np.sqrt(est * (1.0 - est) / outer)),
                         "analytic": psi_noise if is_noise else psi_signal})
    return rows
