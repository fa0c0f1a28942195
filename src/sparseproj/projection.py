"""Sparsity-inducing projection via coordinate descent, and the LASSO center
and the cross-validation path via a certified sign-pattern Newton step.

All problems here share one quadratic form

    f(u) = u'Qu - 2 u'b + lam * penalty(u)

where penalty(u) sums |u_j| over unsigned coordinates and s_j*u_j over signed
ones.  PENALTY CONVENTION: this objective corresponds to the regression loss
(1/n)||Y - Xu||^2 + lam*||u||_1, so the soft-threshold level is lam/2 per
unit of the Gram diagonal.  Common library conventions (e.g. a 1/(2n) loss
factor) differ by a factor of 2; a lam fitted elsewhere must be doubled, or
halved, accordingly before it is passed in here.

The entry points are project_draws, fit_lasso and cross_validate_lambda;
the limit experiment calls the shared-Q batch kernel _cd_shared directly.

Convergence is certified by the KKT residual (max subgradient violation),
not by parameter change.  The descent solvers are vectorized across batches
of right-hand sides sharing one Q, which is how posterior draws are projected
and how the limit experiment solves each outer draw's xi together with its
T* draws.  The shared-Q batch is column-major: its (m, p) solution and work
buffers are F-ordered, so a coordinate update touches one contiguous column
and the certificate's per-row maximum reduces across columns.

The certificate is one branch-free formula for every coordinate kind (see
_kkt_rows), evaluated after each sweep in place, in work buffers the solver
allocates once per call, so a sweep allocates no array of the batch's size.

The cross-validation path runs few folds at many penalties, and the LASSO
center is a single row; there Python-level coordinate updates cost far more
than their arithmetic.  So _newton_cd_solve, which serves both, has each
row take the homotopy step of Osborne, Presnell & Turlach (2000): keep the
warm start's sign pattern, add the zero coordinates whose gradient breaks
KKT at the new penalty (as strong rules would screen them, Tibshirani et
al. 2012), and solve the stationarity equations on that active set with
numpy.linalg.solve (LU with partial pivoting).  A row keeps its point when
that solve reports a singular matrix, returns a non-finite value or flips
an assumed sign; otherwise it moves to the solution.  The step is accepted
only if the row's full KKT residual is then within tol.  A row that is not
accepted runs coordinate-descent sweeps, retrying the Newton step after
each one.  Projected draws each have their own support, so they stay on
batched coordinate descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDiagonal, InsufficientData, NoConvergence
from .types import Dataset


@dataclass(frozen=True)
class SolverSettings:
    tol: float = 1e-10
    max_sweeps: int = 10_000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")


def _soft(x: np.ndarray, t: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _kkt_rows(G: np.ndarray, U: np.ndarray, lam: float, signs: np.ndarray,
              S: np.ndarray) -> np.ndarray:
    """Max KKT violation per row of U, given G = UQ - B.

    With g = 2G and s = sign(u) on unsigned coordinates, s_j on signed ones,
    every coordinate's violation is max(|g + lam*s| - lam*(1 - |s|), 0):
    |g + lam*sign(u)| for an unsigned nonzero u, max(|g| - lam, 0) for an
    unsigned zero (either sign of zero), and |g + lam*s_j| for a signed
    coordinate.  A row holding a NaN gives NaN.  G and S, shaped like U, are
    overwritten; only the per-row result is allocated.
    """
    if not math.isfinite(lam):
        # the formula multiplies lam by s = 0, which is NaN for lam = inf
        raise ValueError(f"penalty must be finite, got {lam}")
    G *= 2.0
    np.sign(U, out=S)
    np.copyto(S, signs, where=signs != 0)
    S *= lam
    G += S
    np.abs(G, out=G)
    np.abs(S, out=S)
    np.subtract(lam, S, out=S)  # lam*(1 - |s|), exactly, as |s| is 0 or 1
    G -= S
    np.maximum(G, 0.0, out=G)
    return G.max(axis=1)


def _worst_rows(kkt: np.ndarray, tol: float, label: str, limit: int = 5) -> str:
    """How many rows of a batch are still above tol, and the worst few of
    them with their KKT residuals."""
    bad = np.flatnonzero(~(kkt <= tol))  # NaN counts as unconverged
    worst = bad[np.argsort(-kkt[bad], kind="stable")][:limit]
    listed = ", ".join(f"{label} {i} ({kkt[i]:.3e})" for i in worst)
    return f"{bad.size} of {kkt.size} {label}s above tol, worst: {listed}"


def _cd_shared(Q: np.ndarray, B: np.ndarray, lam: float, signs: np.ndarray,
               U0: np.ndarray, tol: float, max_sweeps: int) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic coordinate descent on a batch of problems sharing Q.

    B and U0 are (m, p); returns (solutions, per-row KKT residual).  Each
    coordinate update is exact minimization, so the objective is monotone
    along the sweep for every row.

    The batch is column-major: U and the certificate buffers are F-ordered,
    so each coordinate update reads and writes one contiguous column and the
    certificate's per-row maximum runs across p columns instead of over m
    short rows.  B is read as given, in either order (an F-ordered B keeps
    its columns contiguous too), and the solutions are returned F-ordered.
    """
    diag = np.diag(Q).copy()
    if np.any(diag <= 0.0):
        raise DegenerateDiagonal("Q has a nonpositive diagonal entry")
    p = Q.shape[0]
    U = np.array(U0, dtype=float, order="F", copy=True)
    G = np.empty_like(U)  # certificate buffers, reused by every sweep
    S = np.empty_like(U)
    half = 0.5 * lam
    for _ in range(max_sweeps):
        for j in range(p):
            r = B[:, j] - U @ Q[:, j] + U[:, j] * diag[j]
            if signs[j] == 0:
                U[:, j] = _soft(r, half) / diag[j]
            else:
                U[:, j] = (r - half * signs[j]) / diag[j]
        np.matmul(U, Q, out=G)
        G -= B
        kkt = _kkt_rows(G, U, lam, signs, S)
        if kkt.max() <= tol:
            return U, kkt
    raise NoConvergence(
        f"coordinate descent: residual {kkt.max():.3e} > tol {tol:.1e} "
        f"after {max_sweeps} sweeps; {_worst_rows(kkt, tol, 'row')}"
    )


def _cd_sweep(Qs: np.ndarray, Bs: np.ndarray, U: np.ndarray, lam: float) -> None:
    """One cyclic coordinate-descent sweep, in place, over rows of U that
    each own a Q: Qs is (K, p, p), Bs and U are (K, p), every coordinate
    unsigned."""
    diag = np.einsum("kjj->kj", Qs)
    half = 0.5 * lam
    for j in range(U.shape[1]):
        r = Bs[:, j] - np.einsum("kp,kp->k", U, Qs[:, :, j]) + U[:, j] * diag[:, j]
        U[:, j] = _soft(r, half) / diag[:, j]


def _newton_step(Qs: np.ndarray, Bs: np.ndarray, lam: float, U: np.ndarray) -> np.ndarray:
    """Sign-pattern Newton step for each row of U, in place; returns the
    rows' KKT residuals after it.

    With g = 2(Qu - b), a row's pattern s is sign(u) plus every zero
    coordinate that breaks KKT (|g_j| > lam), taken at -sign(g_j).  On the
    support A of s the stationarity system Q_AA u_A = b_A - (lam/2) s_A is
    solved by numpy.linalg.solve.  The row keeps its point when that solve
    raises LinAlgError (an exactly singular pivot), when the solution is not
    finite, or when its signs differ from s_A.  Otherwise the solution
    replaces it.  When Q_AA is nonsingular, which for a positive semidefinite
    Q means positive definite, that solution minimizes the objective over the
    face of the orthant that holds the old point, so the objective cannot
    rise.  The caller accepts a row only by its KKT residual.
    """
    K, p = U.shape
    G = np.einsum("kp,kpq->kq", U, Qs) - Bs
    S = np.sign(U)
    grow = (S == 0.0) & (2.0 * np.abs(G) > lam)
    S[grow] = -np.sign(G[grow])
    half = 0.5 * lam
    for k in range(K):
        A = np.flatnonzero(S[k])
        try:
            uA = np.linalg.solve(Qs[k][np.ix_(A, A)], Bs[k, A] - half * S[k, A])
        except np.linalg.LinAlgError:
            continue
        if not (np.isfinite(uA).all() and np.array_equal(np.sign(uA), S[k, A])):
            continue
        U[k] = 0.0
        U[k, A] = uA
    G = np.einsum("kp,kpq->kq", U, Qs) - Bs
    return _kkt_rows(G, U, lam, np.zeros(p), S)


def _newton_cd_solve(Qs: np.ndarray, Bs: np.ndarray, lam: float, U0: np.ndarray,
                     tol: float, max_sweeps: int) -> tuple[np.ndarray, np.ndarray]:
    """Unsigned solutions of K rows that each own a Q, warm-started at U0;
    returns (solutions, per-row KKT residual).

    Qs is (K, p, p), Bs and U0 are (K, p): the folds of one penalty of the
    CV path, or the single row of the LASSO center.  Every row first takes a
    sign-pattern Newton step (_newton_step) and is done when its KKT
    residual is <= tol.  The rows left over run batched coordinate-descent
    sweeps, each followed by a Newton step from the sweep's point, until
    they are done or max_sweeps sweeps have run.  The caller checks the
    residuals.
    """
    U = np.array(U0, dtype=float, copy=True)
    kkt = _newton_step(Qs, Bs, lam, U)
    todo = np.flatnonzero(~(kkt <= tol))  # NaN counts as unconverged
    for _ in range(max_sweeps):
        if todo.size == 0:
            break
        sub = U[todo]
        _cd_sweep(Qs[todo], Bs[todo], sub, lam)
        kkt[todo] = _newton_step(Qs[todo], Bs[todo], lam, sub)
        U[todo] = sub
        todo = todo[~(kkt[todo] <= tol)]
    return U, kkt


def project_draws(dataset: Dataset, thetas: np.ndarray, lambda_n: float,
                  settings: SolverSettings = SolverSettings(),
                  warm: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Project a batch of dense coefficient draws to their sparse representatives.

    Each row theta of the (m, p) thetas gives the problem min over u of
    (1/n)||X theta - Xu||^2 + lambda_n*||u||_1, i.e. Q = C_n and b = C_n theta;
    all rows are solved in one vectorized descent.  Returns (theta_star
    matrix (m, p), F-ordered, and kkt residuals (m,)).  warm optionally
    seeds the whole batch, e.g. with the LASSO center.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if lambda_n <= 0:
        raise ValueError("lambda_n must be positive")
    m, p = thetas.shape
    if p != dataset.p:
        raise ValueError(f"thetas have {p} columns, expected {dataset.p}")
    B = np.matmul(thetas, dataset.gram, out=np.empty((m, p), order="F"))
    U0 = np.broadcast_to(0.0 if warm is None else warm, (m, p))
    return _cd_shared(dataset.gram, B, lambda_n, np.zeros(p), U0,
                      settings.tol, settings.max_sweeps)


def fit_lasso(dataset: Dataset, lambda_n: float,
              settings: SolverSettings = SolverSettings()) -> np.ndarray:
    """LASSO estimate: minimizer of (1/n)||Y - Xu||^2 + lambda_n*||u||_1.

    Same quadratic form as project_draws but with b = X'Y/n, which is the
    projection of the least-squares solution.  Solved as one row of
    _newton_cd_solve from zero: a sign-pattern Newton step accepted by its
    KKT residual, with coordinate-descent sweeps as the fallback.  Raises
    DegenerateDiagonal if a Gram diagonal entry is <= 0 and NoConvergence,
    naming the center, if the residual is still above tol after max_sweeps
    sweeps.
    """
    if lambda_n <= 0:
        raise ValueError("lambda_n must be positive")
    if np.any(np.diag(dataset.gram) <= 0.0):
        raise DegenerateDiagonal("the Gram matrix has a nonpositive diagonal entry")
    U, kkt = _newton_cd_solve(dataset.gram[None], dataset.xty[None], lambda_n,
                              np.zeros((1, dataset.p)), settings.tol, settings.max_sweeps)
    if not kkt[0] <= settings.tol:
        raise NoConvergence(
            f"LASSO center at lambda_n={lambda_n:.3e}: residual {kkt[0]:.3e} > tol "
            f"{settings.tol:.1e} after {settings.max_sweeps} sweeps")
    return U[0]


def default_lambda_grid(dataset: Dataset, num: int = 100) -> np.ndarray:
    """Descending log-spaced grid from the full-shrinkage threshold down 3 decades."""
    lam_max = 2.0 * float(np.abs(dataset.xty).max())
    if lam_max <= 0:
        lam_max = 1.0  # degenerate X'Y = 0; any grid selects the zero fit
    return np.geomspace(lam_max, lam_max * 1e-3, num=num)


def _fold_statistics(dataset: Dataset, folds: int,
                     seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Held-out cross products of the seeded CV folds.

    The rows are split by a seeded permutation into `folds` near-equal
    folds.  Returns (G, c, sizes, yy): G[k] = X_k'X_k and c[k] = X_k'Y_k over
    the rows of fold k, sizes[k] its row count, and yy the sum of Y_k'Y_k
    over all folds.
    """
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x5CF0)))
    chunks = np.array_split(rng.permutation(dataset.n), folds)
    G = np.empty((folds, dataset.p, dataset.p))
    c = np.empty((folds, dataset.p))
    yy = 0.0
    for k, test_idx in enumerate(chunks):
        Xt, Yt = dataset.X[test_idx], dataset.Y[test_idx]
        G[k] = Xt.T @ Xt
        c[k] = Xt.T @ Yt
        yy += float(Yt @ Yt)
    return G, c, np.array([idx.size for idx in chunks]), yy


def _held_out_error(U: np.ndarray, G: np.ndarray, c: np.ndarray, yy: float) -> float:
    """Pooled held-out squared error sum_k ||Y_k - X_k U_k||^2 of the fold
    solutions U (K, p), from the fold statistics alone in O(K p^2)."""
    return yy + float(np.einsum("kp,kp->", U, np.einsum("kpq,kq->kp", G, U) - 2.0 * c))


def cross_validate_lambda(dataset: Dataset, grid: np.ndarray | None = None,
                          folds: int = 10, seed: int = 0,
                          settings: SolverSettings = SolverSettings()) -> float:
    """Pick the penalty by K-fold cross-validated squared prediction error.

    Folds come from a seeded permutation of the rows.  The error for a grid
    value pools squared residuals on held-out rows over all folds; ties are
    broken toward the larger penalty.  Raises InsufficientData if n < folds.

    Each fold is fitted on the Gram statistics of the other folds, and its
    held-out error comes from the identity

        ||Y_k - X_k u||^2 = Y_k'Y_k - 2 u'X_k'Y_k + u'X_k'X_k u,

    so scoring a grid value costs O(K p^2) rather than a pass over the rows.

    The grid is solved from the largest penalty down, each fold warm-started
    at its solution for the previous value.  At each value every fold takes
    a sign-pattern Newton step: one linear solve on the warm start's support
    grown by the KKT violators.  The step is accepted only when the
    solution's signs match the assumed pattern and the fold's KKT residual
    is <= settings.tol.  Folds that fail fall back to coordinate-descent
    sweeps, retrying the step after each; NoConvergence names the grid value
    (its index in the descending grid) and the folds still above tol after
    settings.max_sweeps sweeps.
    """
    if folds < 2:
        raise ValueError("folds must be at least 2")
    if dataset.n < folds:
        raise InsufficientData(f"n = {dataset.n} rows cannot form {folds} folds")
    if grid is None:
        grid = default_lambda_grid(dataset)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if np.any(grid <= 0):
        raise ValueError("grid values must be positive")
    order = np.argsort(-grid)  # solve large to small so warm starts carry over
    lam_desc = grid[order]

    G, c, sizes, yy = _fold_statistics(dataset, folds, seed)
    n_tr = dataset.n - sizes
    Qs = (dataset.gram * dataset.n - G) / n_tr[:, None, None]
    Bs = (dataset.xty * dataset.n - c) / n_tr[:, None]

    if np.any(np.einsum("kjj->kj", Qs) <= 0.0):
        raise DegenerateDiagonal("a fold Gram matrix has a nonpositive diagonal entry")

    errs = np.zeros(lam_desc.size)
    U = np.zeros((folds, dataset.p))
    for g, lam in enumerate(lam_desc):
        U, kkt = _newton_cd_solve(Qs, Bs, float(lam), U, settings.tol, settings.max_sweeps)
        if not kkt.max() <= settings.tol:
            raise NoConvergence(
                f"CV path at lambda[{g}]={lam:.3e}: residual {kkt.max():.3e} > tol "
                f"{settings.tol:.1e} after {settings.max_sweeps} sweeps; "
                f"{_worst_rows(kkt, settings.tol, 'fold')}")
        errs[g] = _held_out_error(U, G, c, yy)
    best = errs.min()
    winners = lam_desc[errs <= best]
    return float(winners.max())
