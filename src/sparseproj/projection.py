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
the limit experiment calls _solve directly.  All of them run one certified
loop (_solve) around one cyclic coordinate-descent sweep (_sweep), either on
a batch of right-hand sides sharing one Q (projected posterior draws; the
limit experiment's xi with its T* draws) or on a stack with one Q per row
(the CV folds of one penalty; the LASSO center).  They read a dataset's
sufficient statistics only: C_n and X'Y/n, and for CV its per-fold cross
products and Y'Y.

Convergence is certified by the KKT residual (max subgradient violation),
not by parameter change: a solve ends when every row is within TOL and
raises NoConvergence after MAX_SWEEPS sweeps.  The certificate is one
branch-free formula for every coordinate kind (see _kkt_rows).  A shared-Q
batch is column-major: its (m, p) solution and work buffers are F-ordered
and allocated once per call, so a coordinate update touches one contiguous
column and a sweep allocates only two (m,) work vectors.

The CV path runs few folds at many penalties, and the LASSO center is a
single row; there Python-level coordinate updates cost far more than their
arithmetic.  So on a stack each row also takes the sign-pattern step of
Osborne, Presnell & Turlach (2000): keep the warm start's sign pattern, add
the zero coordinates whose gradient breaks KKT at the new penalty (as strong
rules would screen them, Tibshirani et al. 2012), and solve the stationarity
equations on that active set with numpy.linalg.solve (LU with partial
pivoting).  The step is accepted only by the row's KKT residual; a row that
fails runs sweeps, retrying the step after each.  Projected draws each have
their own support, so they stay on batched coordinate descent.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateDiagonal, InsufficientData, NoConvergence, SparseProjError
from .types import Dataset

TOL = 1e-10          # certified bound on every row's KKT residual
MAX_SWEEPS = 10_000  # coordinate-descent sweeps before NoConvergence


def _residual(Q: np.ndarray, B: np.ndarray, U: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = UQ - B row by row, for a shared (p, p) Q or a (K, p, p) stack
    with one Q per row; returns out."""
    if Q.ndim == 3:
        np.matmul(U[:, None], Q, out=out[:, None])
    else:
        np.matmul(U, Q, out=out)
    out -= B
    return out


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


def _sweep(Q: np.ndarray, B: np.ndarray, U: np.ndarray, lam: float,
           signs: np.ndarray) -> None:
    """One cyclic coordinate-descent sweep over the rows of U, in place.

    Q is one (p, p) matrix that every row shares or a (K, p, p) stack with
    one matrix per row; B and U are (m, p).  Each coordinate update is exact
    minimization, so the objective is monotone along the sweep for every
    row.  The update r = B_j - UQ_j + U_j Q_jj, its soft threshold
    r - clip(r, -lam/2, lam/2) and the division by Q_jj run in two (m,)
    work vectors allocated once per sweep; on an F-ordered U each update
    reads and writes one contiguous column.
    """
    diag = np.diagonal(Q, axis1=-2, axis2=-1).T  # diag[j]: Q_jj, per row for a stack
    half = 0.5 * lam
    r = np.empty(U.shape[0])
    t = np.empty(U.shape[0])
    for j in range(U.shape[1]):
        if Q.ndim == 2:
            np.matmul(U, Q[:, j], out=r)
        else:
            np.einsum("kp,kp->k", U, Q[:, :, j], out=r)
        np.subtract(B[:, j], r, out=r)
        np.multiply(U[:, j], diag[j], out=t)
        r += t
        if signs[j] == 0:
            np.minimum(r, half, out=t)
            np.maximum(t, -half, out=t)
            r -= t
        else:
            r -= half * signs[j]
        np.divide(r, diag[j], out=U[:, j])


def _newton_step(Q: np.ndarray, B: np.ndarray, U: np.ndarray, lam: float) -> None:
    """Sign-pattern Newton step for each row of U, in place; Q is a (K, p, p)
    stack with one matrix per row, every coordinate unsigned.

    With g = 2(Qu - b), a row's pattern s is sign(u) plus every zero
    coordinate that breaks KKT (|g_j| > lam), taken at -sign(g_j).  On the
    support A of s the stationarity system Q_AA u_A = b_A - (lam/2) s_A is
    solved by numpy.linalg.solve.  The row keeps its point when that solve
    raises LinAlgError (an exactly singular pivot), when the solution is not
    finite, when its signs differ from s_A, or when it raises the objective
    by more than rounding; the exact solution minimizes the objective over
    the face of the orthant that holds the old point, so only a numerically
    singular Q_AA (a fold with fewer rows than its support) fails that last
    test.  The caller accepts a row only by its KKT residual.
    """
    G = _residual(Q, B, U, np.empty_like(U))
    S = np.sign(U)
    grow = (S == 0.0) & (2.0 * np.abs(G) > lam)
    S[grow] = -np.sign(G[grow])
    half = 0.5 * lam
    V = U.copy()
    for k in range(U.shape[0]):
        A = np.flatnonzero(S[k])
        try:
            uA = np.linalg.solve(Q[k][A[:, None], A], B[k, A] - half * S[k, A])
        except np.linalg.LinAlgError:
            continue
        if np.isfinite(uA).all() and (np.sign(uA) == S[k, A]).all():
            V[k] = 0.0
            V[k, A] = uA
    # u'Qu - 2u'b + lam*|u|_1 per row, as u'(G - b) + lam*|u|_1 with G = uQ - b
    f_old = (U * (G - B) + lam * np.abs(U)).sum(axis=1)
    f_new = (V * (_residual(Q, B, V, G) - B) + lam * np.abs(V)).sum(axis=1)
    keep = f_new <= f_old + 1e-9 * (1.0 + np.abs(f_old))
    U[keep] = V[keep]


def _solve(Q: np.ndarray, B: np.ndarray, lam: float, signs: np.ndarray,
           U0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified solutions of min u'Qu - 2u'b + lam*penalty(u) for every row
    b of the (m, p) B, from the rows of U0; returns (solutions, per-row KKT
    residual).

    Q is one (p, p) matrix that every row shares or a (K, p, p) stack with
    one matrix per row, whose coordinates must all be unsigned.  Each pass
    runs a sweep, then, on a stack, a sign-pattern Newton step, then the
    certificate; a stack's first pass takes the Newton step from U0 without
    a sweep.  A shared batch is swept whole, F-ordered, until every row is
    within TOL; a stack's rows drop out once within TOL.  Raises
    DegenerateDiagonal for a nonpositive diagonal entry of Q and
    NoConvergence, naming the worst rows (folds, on a stack), when
    MAX_SWEEPS sweeps leave a row above TOL.
    """
    stack = Q.ndim == 3
    if stack and signs.any():
        raise ValueError("a stack of Q takes unsigned coordinates only")
    if (np.diagonal(Q, axis1=-2, axis2=-1) <= 0.0).any():
        raise DegenerateDiagonal("Q has a nonpositive diagonal entry")
    U = np.array(U0, dtype=float, order="C" if stack else "F", copy=True)
    G = np.empty_like(U)  # certificate buffers, reused by every pass
    S = np.empty_like(U)
    kkt = np.empty(U.shape[0])
    rows = slice(None)  # the rows a pass works on; only a stack's shrink
    Qr, Br, Ur, Gr, Sr = Q, B, U, G, S
    for sweeps in range(0 if stack else 1, MAX_SWEEPS + 1):
        if sweeps:
            _sweep(Qr, Br, Ur, lam, signs)
        if stack:
            _newton_step(Qr, Br, Ur, lam)
        kkt[rows] = _kkt_rows(_residual(Qr, Br, Ur, Gr), Ur, lam, signs, Sr)
        if stack:
            U[rows] = Ur
            rows = np.flatnonzero(~(kkt <= TOL))  # NaN counts as unconverged
            Qr, Br, Ur, Gr, Sr = Q[rows], B[rows], U[rows], G[rows], S[rows]
        if kkt.max() <= TOL:
            return U, kkt
    worst = f"; {_worst_rows(kkt, TOL, 'fold' if stack else 'row')}" if kkt.size > 1 else ""
    raise NoConvergence(f"residual {kkt.max():.3e} > tol {TOL:.1e} "
                        f"after {MAX_SWEEPS} sweeps{worst}")


def project_draws(dataset: Dataset, thetas: np.ndarray, lambda_n: float,
                  warm: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Project a batch of dense coefficient draws to their sparse representatives.

    Each row theta of the (m, p) thetas gives the problem min over u of
    (1/n)||X theta - Xu||^2 + lambda_n*||u||_1, i.e. Q = C_n and b = C_n theta;
    all rows are solved in one vectorized descent.  Returns (theta_star
    matrix (m, p), F-ordered, and kkt residuals (m,)).  warm optionally
    seeds the whole batch, e.g. with the LASSO center.  NoConvergence names
    the penalty and the worst rows.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if lambda_n <= 0:
        raise ValueError("lambda_n must be positive")
    m, p = thetas.shape
    if p != dataset.p:
        raise ValueError(f"thetas have {p} columns, expected {dataset.p}")
    B = np.matmul(thetas, dataset.gram, out=np.empty((m, p), order="F"))
    U0 = np.broadcast_to(0.0 if warm is None else warm, (m, p))
    try:
        return _solve(dataset.gram, B, lambda_n, np.zeros(p), U0)
    except SparseProjError as exc:
        raise type(exc)(f"projection at lambda_n={lambda_n:.3e}: {exc}") from exc


def fit_lasso(dataset: Dataset, lambda_n: float) -> np.ndarray:
    """LASSO estimate: minimizer of (1/n)||Y - Xu||^2 + lambda_n*||u||_1.

    Same quadratic form as project_draws but with b = X'Y/n, which is the
    projection of the least-squares solution.  Solved by _solve as a stack
    of one Q, from zero: a sign-pattern Newton step accepted by its KKT
    residual, with coordinate-descent sweeps as the fallback.  Raises
    DegenerateDiagonal if a Gram diagonal entry is <= 0 and NoConvergence if
    the residual is still above TOL after MAX_SWEEPS sweeps; both name the
    center.
    """
    if lambda_n <= 0:
        raise ValueError("lambda_n must be positive")
    try:
        U, _ = _solve(dataset.gram[None], dataset.xty[None], lambda_n,
                      np.zeros(dataset.p), np.zeros((1, dataset.p)))
    except SparseProjError as exc:
        raise type(exc)(f"LASSO center at lambda_n={lambda_n:.3e}: {exc}") from exc
    return U[0]


def default_lambda_grid(dataset: Dataset, num: int = 100) -> np.ndarray:
    """Descending log-spaced grid from the full-shrinkage threshold down 3 decades."""
    lam_max = 2.0 * float(np.abs(dataset.xty).max())
    if lam_max <= 0:
        lam_max = 1.0  # degenerate X'Y = 0; any grid selects the zero fit
    return np.geomspace(lam_max, lam_max * 1e-3, num=num)


def _held_out_error(U: np.ndarray, G: np.ndarray, c: np.ndarray, yy: float) -> float:
    """Pooled held-out squared error sum_k ||Y_k - X_k U_k||^2 of the fold
    solutions U (K, p), from the fold statistics alone in O(K p^2)."""
    return yy + float(np.einsum("kp,kp->", U, np.einsum("kpq,kq->kp", G, U) - 2.0 * c))


def cross_validate_lambda(dataset: Dataset, grid: np.ndarray | None = None) -> float:
    """Pick the penalty by K-fold cross-validated squared prediction error.

    The folds are the dataset's: their rows were assigned by a seeded
    stream when it was built (see types.DatasetAccumulator), and it keeps
    each fold's X_k'X_k, X_k'Y_k and row count.  The error for a grid value
    pools squared residuals on held-out rows over all folds; ties are
    broken toward the larger penalty.  Raises InsufficientData if n < K.

    Each fold is fitted on the Gram statistics of the other folds, and its
    held-out error comes from the identity

        ||Y_k - X_k u||^2 = Y_k'Y_k - 2 u'X_k'Y_k + u'X_k'X_k u,

    so scoring a grid value costs O(K p^2) rather than a pass over the rows.

    The grid is solved from the largest penalty down, each fold warm-started
    at its solution for the previous value.  At each value _solve gives every
    fold a sign-pattern Newton step: one linear solve on the warm start's
    support grown by the KKT violators.  The step is accepted only when the
    solution's signs match the assumed pattern and the fold's KKT residual
    is <= TOL.  Folds that fail fall back to coordinate-descent sweeps,
    retrying the step after each.  DegenerateDiagonal and NoConvergence name
    the grid value (its index in the descending grid); NoConvergence also
    names the folds still above TOL after MAX_SWEEPS sweeps.
    """
    folds = dataset.fold_n.size
    if dataset.n < folds:
        raise InsufficientData(f"n = {dataset.n} rows cannot form {folds} folds")
    if grid is None:
        grid = default_lambda_grid(dataset)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    bad = np.flatnonzero(~((grid > 0.0) & (grid < math.inf)))
    if bad.size:
        raise ValueError("grid values must be positive and finite, "
                         f"got {grid[bad[0]]} at index {bad[0]}")
    order = np.argsort(-grid)  # solve large to small so warm starts carry over
    lam_desc = grid[order]

    G, c = dataset.fold_gram, dataset.fold_xty
    n_tr = dataset.n - dataset.fold_n
    Qs = (dataset.gram * dataset.n - G) / n_tr[:, None, None]
    Bs = (dataset.xty * dataset.n - c) / n_tr[:, None]

    errs = np.zeros(lam_desc.size)
    U = np.zeros((folds, dataset.p))
    for g, lam in enumerate(lam_desc):
        try:
            U, _ = _solve(Qs, Bs, float(lam), np.zeros(dataset.p), U)
        except SparseProjError as exc:
            raise type(exc)(f"CV path at lambda[{g}]={lam:.3e}: {exc}") from exc
        errs[g] = _held_out_error(U, G, c, dataset.yty)
    best = errs.min()
    winners = lam_desc[errs <= best]
    return float(winners.max())
