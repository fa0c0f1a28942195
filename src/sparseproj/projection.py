"""Sparsity-inducing projection and the LASSO center by coordinate descent,
and the cross-validation path by the exact LASSO solution path.

All problems here share one quadratic form

    f(u) = u'Qu - 2 u'b + lam * penalty(u)

where penalty(u) sums |u_j| over unsigned coordinates and s_j*u_j over signed
ones.  PENALTY CONVENTION: this objective corresponds to the regression loss
(1/n)||Y - Xu||^2 + lam*||u||_1, so the soft-threshold level is lam/2 per
unit of the Gram diagonal.  Common library conventions (e.g. a 1/(2n) loss
factor) differ by a factor of 2; a lam fitted elsewhere must be doubled, or
halved, accordingly before it is passed in here.

The entry points are project_draws, fit_lasso and cross_validate_lambda;
the limit experiment calls _solve directly.  They read a dataset's
sufficient statistics only: C_n and X'Y/n, and for CV its per-fold cross
products and Y'Y.  A batch of right-hand sides sharing one Q (the LASSO
center, b = X'Y/n, as row 0 beside the projected draws, b = C_n theta; the
limit experiment's xi and T* draws, stacked across its penalties with one
penalty per row) runs one certified loop (_solve) around one cyclic
coordinate-descent sweep (_sweep); its (m, p) solution and buffers are
F-ordered, so an update touches one contiguous column, and are allocated
once per call unless the caller passes its own.
The sweep reads Q with its diagonal zeroed: an update is b_j - u Qz_j,
soft-thresholded and divided by Q_jj.  Rows certify together, so after a
failed full certificate each sweep probes the worst row alone and runs the
full pass only once that row passes, or at the last allowed sweep; no
result changes.  CV and fit_lasso (the exact reference for the batch's
center) instead walk the exact piecewise-linear solution path (_lasso_paths,
the Gram-form LARS-lasso homotopy of Efron, Hastie, Johnstone & Tibshirani
2004 and Osborne, Presnell & Turlach 2000) and read each penalty off its
segment.  All K CV folds walk together, one kink of every fold per step,
each with its own Gram and the inverse of its active block, which a join
borders and a leave shrinks; fit_lasso is the same walk with K = 1.

Every solution is certified by its KKT residual (max subgradient violation,
one branch-free formula for every coordinate kind; see _kkt_rows), not by
parameter change.  A path solution above TOL (an ill-conditioned active
block, or a walk that stopped early) is polished by _solve from its path
point; _solve raises NoConvergence after MAX_SWEEPS sweeps.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .errors import DegenerateDiagonal, InsufficientData, NoConvergence, SparseProjError
from .types import Dataset

TOL = 1e-10          # certified bound on every row's KKT residual
MAX_SWEEPS = 10_000  # coordinate-descent sweeps before NoConvergence


def _kkt_rows(G: np.ndarray, U: np.ndarray, lam: float | np.ndarray, signs: np.ndarray,
              S: np.ndarray) -> np.ndarray:
    """Max KKT violation per row of U, given G = UQ - B, at the penalty lam:
    one for every row, or an (m, 1) column of one per row.

    With g = 2G and s = sign(u) on unsigned coordinates, s_j on signed ones,
    every coordinate's violation is max(|g + lam*s| - lam*(1 - |s|), 0):
    |g + lam*sign(u)| for an unsigned nonzero u, max(|g| - lam, 0) for an
    unsigned zero (either sign of zero), and |g + lam*s_j| for a signed
    coordinate.  A row holding a NaN, or a NaN or infinite penalty, gives
    NaN.  G and S, shaped like U, are overwritten; only the per-row result
    is allocated.
    """
    G *= 2.0
    np.sign(U, out=S)
    if signs.any():
        np.copyto(S, signs, where=signs != 0)
    S *= lam
    G += S
    np.abs(G, out=G)
    np.abs(S, out=S)
    np.subtract(lam, S, out=S)  # lam*(1 - |s|), exactly, as |s| is 0 or 1
    G -= S
    return np.maximum(G.max(axis=1), 0.0)


def _worst_rows(kkt: np.ndarray, tol: float, name: Callable[[int], str] = "row {}".format,
                limit: int = 5) -> str:
    """How many rows of a batch are still above tol, and the worst few of
    them, each as name(i) for its row index i, with their KKT residuals."""
    bad = np.flatnonzero(~(kkt <= tol))  # NaN counts as unconverged
    worst = bad[np.argsort(-kkt[bad], kind="stable")][:limit]
    listed = ", ".join(f"{name(int(i))} ({kkt[i]:.3e})" for i in worst)
    return f"{bad.size} of {kkt.size} rows above tol, worst: {listed}"


def _sweep(Qz: np.ndarray, diag: np.ndarray, B: np.ndarray, U: np.ndarray,
           lam: float | np.ndarray, signs: np.ndarray) -> None:
    """One cyclic coordinate-descent sweep over the rows of U, in place.

    Every row shares one (p, p) Q, given as Qz, Q with its diagonal zeroed,
    and diag, its diagonal; B and U are (m, p).  lam is one penalty for
    every row or an (m,) array of one per row.  Each coordinate update is
    exact minimization, so the objective is monotone along the sweep for
    every row.  The update r = B_j - U Qz_j, its soft threshold
    r - clip(r, -lam/2, lam/2) and the division by Q_jj run in two (m,)
    work vectors allocated once per sweep; on an F-ordered U and Qz each
    update reads and writes contiguous columns.
    """
    half = 0.5 * lam
    lo = -half
    r = np.empty(U.shape[0])
    t = np.empty(U.shape[0])
    for j in range(U.shape[1]):
        np.matmul(U, Qz[:, j], out=r)
        np.subtract(B[:, j], r, out=r)
        if signs[j] == 0:
            np.minimum(r, half, out=t)
            np.maximum(t, lo, out=t)
            r -= t
        elif signs[j] > 0:
            r -= half
        else:
            r += half
        np.divide(r, diag[j], out=U[:, j])


def _solve(Q: np.ndarray, B: np.ndarray, lam: float | np.ndarray, signs: np.ndarray,
           U0: np.ndarray, buffers: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
           name: Callable[[int], str] = "row {}".format) -> tuple[np.ndarray, np.ndarray]:
    """Certified solutions of min u'Qu - 2u'b + lam*penalty(u) for every row
    b of the (m, p) B, all sharing the (p, p) Q, from the rows of U0;
    returns (solutions, per-row KKT residual).  lam is one penalty for every
    row or an (m,) array of one per row.  buffers, three F-ordered
    (m, p) arrays (U, G, S), hold the solutions (U itself is returned) and
    the certificate's work; by default all three are fresh.  name(i) is how
    an error names row i.

    The batch is swept whole, F-ordered, until every row is within TOL.
    After a failed full certificate (a GEMM and an (m, p) KKT pass), each
    sweep probes its worst row alone first and skips the full pass while
    that row fails beyond rounding; the last allowed sweep always runs it.
    So the stopping sweep, the solutions, the certificate and every error
    are those of certifying every sweep in full.  Raises ValueError for a
    penalty that is not finite (the certificate would be NaN), naming its
    row, DegenerateDiagonal for a nonpositive diagonal entry of Q and
    NoConvergence, naming the worst rows, when MAX_SWEEPS sweeps leave a
    row above TOL.
    """
    per_row = np.ndim(lam) > 0
    if per_row:
        bad = np.flatnonzero(~np.isfinite(lam))
        if bad.size:
            raise ValueError(f"penalty must be finite, got {lam[bad[0]]} at {name(int(bad[0]))}")
    elif not math.isfinite(lam):
        raise ValueError(f"penalty must be finite, got {lam}")
    lam_col = lam[:, None] if per_row else lam  # the certificate's (m, 1) column
    diag = np.diagonal(Q)
    if (diag <= 0.0).any():
        raise DegenerateDiagonal("Q has a nonpositive diagonal entry")
    Qz = np.array(Q, dtype=float, order="F")
    np.fill_diagonal(Qz, 0.0)
    U, G, S = buffers or [np.empty(B.shape, order="F") for _ in range(3)]
    np.copyto(U, U0)  # G and S are reused by every sweep
    worst = None  # the worst row of the last failed full certificate
    for sweep in range(1, MAX_SWEEPS + 1):
        _sweep(Qz, diag, B, U, lam, signs)
        if worst is not None and sweep < MAX_SWEEPS:
            # probe the worst row alone: the full pass's GEMM may round its
            # product uQ otherwise, but within p eps/2 sum|u||Q| of the exact
            # one (Higham 2002, eq. 3.5), with 3 roundings after it; a failure
            # (or NaN) beyond twice both bounds fails the full pass as well
            u, b = U[worst:worst + 1], B[worst:worst + 1]
            lam_u = lam[worst] if per_row else lam
            bound = (np.abs(u) @ np.abs(Q) + np.abs(b)).max() + lam_u
            slack = 4.0 * (Q.shape[0] + 3) * np.finfo(float).eps * bound
            if not _kkt_rows(u @ Q - b, u, lam_u, signs, np.empty_like(u))[0] <= TOL + slack:
                continue
        np.matmul(U, Q, out=G)
        G -= B
        kkt = _kkt_rows(G, U, lam_col, signs, S)
        if kkt.max() <= TOL:
            return U, kkt
        worst = int(kkt.argmax())  # the first NaN row, if any
    listed = f"; {_worst_rows(kkt, TOL, name)}" if kkt.size > 1 else ""
    raise NoConvergence(f"residual {kkt.max():.3e} > tol {TOL:.1e} "
                        f"after {MAX_SWEEPS} sweeps{listed}")


def _lasso_paths(Qs: np.ndarray, Bs: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Solutions of min u'Q_k u - 2u'b_k + lam*||u||_1 for every fold k of
    the (K, p, p) Qs and (K, p) Bs at the descending penalties lams, as a
    (K, L, p) stack of rows, read off each fold's exact path from
    lam_max = 2 max|b_kj| down.  The K paths are walked together, one kink
    of every fold per step.

    In mu = lam/2 and c = b - Qu, u is optimal when c_A = mu s_A on its
    active set A, s_A the signs of u_A, and |c_j| <= mu elsewhere.  From a
    kink at mu_k the path is u_A = y + (mu_k - mu) d, with Q_AA [y, d] =
    [b_A - mu_k s_A, s_A], and c moves by -(mu_k - mu) Q d, until the
    nearest mu at which an inactive c_j reaches +-mu (j joins; a rate 1 -+
    a_j within 1e-10 of 0 keeps j on its boundary) or an active u_j reaches
    0 (j leaves); one past its boundary by rounding changes at once.

    Each fold keeps M, the inverse of its Q_AA, as a (p, p) array that is
    zero outside A, so one batched product gives [y - u, d] = M [c - mu_k s,
    s] for every fold: y is the current point corrected by its own
    residual, so the rounding that M gathers over its updates enters only
    the correction.  A join borders M with w = M Q_:j and its Schur
    complement Q_jj - Q_j:w; a leave takes M - M_:j M_j:/M_jj and zeroes
    row and column j.  A fold stops on a non-finite y or d, a join whose
    Schur complement is not positive, its last grid point, mu = 0 or after
    10(p + 1) kinks, leaving its unread rows at its last point; the caller
    certifies every row.
    """
    K, p = Bs.shape
    mus = 0.5 * lams
    U = np.zeros((K, mus.size, p))
    read = np.zeros((K, mus.size), dtype=bool)  # the grid points read off so far
    M = np.zeros((K, p, p))
    s, u, c = np.zeros((K, p)), np.zeros((K, p)), Bs.copy()
    mu = np.abs(Bs).max(axis=1)  # the first kink joins the largest |b_kj|
    live = np.ones(K, dtype=bool)
    folds = np.arange(K)
    sides = np.array([1.0, -1.0])[:, None, None]  # c_j reaching +mu, then -mu
    rhs = np.empty((K, p, 2))
    with np.errstate(all="ignore"):
        for _ in range(10 * (p + 1)):
            rhs[:, :, 0] = c - mu[:, None] * s
            rhs[:, :, 1] = s
            yd = M @ rhs
            yd[:, :, 0] += u
            live &= np.isfinite(yd).all(axis=(1, 2))
            if not live.any():
                break
            y, d = yd[:, :, 0], yd[:, :, 1]
            a = (Qs @ d[:, :, None])[:, :, 0]
            # the step mu_k - mu to each coordinate's next event, inf for none
            rate = 1.0 - sides * a
            join = np.where(rate > 1e-10, np.maximum(mu[:, None] - sides * c, 0.0) / rate,
                            np.inf).min(axis=0)
            step = np.where(s != 0.0, np.where(d * s < 0.0, np.maximum(-y / d, 0.0), np.inf),
                            join)
            last = step.argmin(axis=1)
            delta = np.where(live, np.minimum(step[folds, last], mu), 0.0)
            new = live[:, None] & ~read & (mus >= (mu - delta)[:, None])
            k, g = np.nonzero(new)
            v = y[k] + (mu[k] - mus[g])[:, None] * d[k]
            U[k, g] = np.where(v * s[k] > 0.0, v, 0.0)  # a wrong sign is rounding around 0
            read |= new
            u = np.where(live[:, None], y + delta[:, None] * d, u)
            mu -= delta
            live &= (mu != 0.0) & ~read[:, -1]
            # a coordinate joins at the sign of its c_j and leaves at u_j = 0;
            # M changes by coef z z', with z = w - e_j and coef = 1/schur for
            # a join, z = M_:j and coef = -1/M_jj for a leave
            leave = s[folds, last] != 0.0
            sign = np.where(c[folds, last] - delta * a[folds, last] < 0.0, -1.0, 1.0)
            q = Qs[folds, :, last]
            w = (M @ q[:, :, None])[:, :, 0]
            schur = Qs[folds, last, last] - np.einsum("kp,kp->k", q, w)
            live &= leave | (schur > 0.0)
            z = np.where(leave[:, None], M[folds, :, last], w)
            z[folds, last] = np.where(leave, z[folds, last], -1.0)
            coef = np.where(live, np.where(leave, -1.0 / M[folds, last, last], 1.0 / schur), 0.0)
            M += np.einsum("ki,kj->kij", z, coef[:, None] * z)
            out, r = folds[live & leave], last[live & leave]
            M[out, r, :] = 0.0
            M[out, :, r] = 0.0
            s[folds[live], last[live]] = np.where(leave, 0.0, sign)[live]
            u[folds[live], last[live]] = 0.0
            c = Bs - (Qs @ u[:, :, None])[:, :, 0]
    return np.where(read[:, :, None], U, u[:, None, :])


def _certified_path(Qs: np.ndarray, Bs: np.ndarray, lams: np.ndarray, where) -> np.ndarray:
    """_lasso_paths' (K, L, p) solutions at the descending lams, each row
    certified by its KKT residual; a row above TOL is polished by _solve
    from its path point.  Errors are prefixed with where(k, g), for fold k
    and grid index g (0 for the diagonal check).  Raises DegenerateDiagonal
    for the first fold whose Q has a nonpositive diagonal entry."""
    K, p = Bs.shape
    bad = np.flatnonzero((np.diagonal(Qs, axis1=1, axis2=2) <= 0.0).any(axis=1))
    if bad.size:
        raise DegenerateDiagonal(f"{where(int(bad[0]), 0)}: Q has a nonpositive diagonal entry")
    zero = np.zeros(p)
    U = _lasso_paths(Qs, Bs, lams)
    flat = U.reshape(-1, p)  # row k*L + g is fold k at lams[g]
    kkt = _kkt_rows((U @ Qs - Bs[:, None]).reshape(-1, p), flat, np.tile(lams, K)[:, None],
                    zero, np.empty_like(flat))
    for i in np.flatnonzero(~(kkt <= TOL)):  # NaN counts as uncertified
        k, g = divmod(int(i), lams.size)
        try:
            flat[i] = _solve(Qs[k], Bs[k:k + 1], float(lams[g]), zero, flat[i:i + 1])[0][0]
        except SparseProjError as exc:
            raise type(exc)(f"{where(k, g)}: {exc}") from exc
    return U


def project_draws(dataset: Dataset, thetas: np.ndarray, lambda_n: float, *,
                  buffers: tuple[np.ndarray, ...] | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The LASSO center and the sparse representatives of a batch of dense
    coefficient draws, in one certified solve.

    Every problem is min over u of u'C_n u - 2u'b + lambda_n*||u||_1, the
    loss (1/n)||Y - Xu||^2 or (1/n)||X theta - Xu||^2 up to a constant:
    b = X'Y/n for the center and b = C_n theta for each row theta of the
    (m, p) thetas.  The center is row 0 of one (m + 1, p) batch and the
    draws are rows 1..m; all start from zero.  Returns (center, a fresh
    (p,) array; theta_star, the (m, p) rows 1..m of the F-ordered solution;
    kkt, the (m + 1,) per-row KKT residuals, the center's first).
    NoConvergence names the penalty and the worst rows, as "LASSO center"
    or "draw k" for row k of thetas.

    buffers, four F-ordered (m + 1, p) arrays (U, B, G, S) that a caller
    reuses across calls, receive the solutions (theta_star is then a view
    of U), the right-hand sides and the certificate's work.  thetas may lie
    in the memory of G or S: it is read once, into B, before either is
    written.  By default each is fresh.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if lambda_n <= 0:
        raise ValueError("lambda_n must be positive")
    m, p = thetas.shape
    if p != dataset.p:
        raise ValueError(f"thetas have {p} columns, expected {dataset.p}")
    U, B, G, S = buffers or [np.empty((m + 1, p), order="F") for _ in range(4)]
    np.matmul(thetas, dataset.gram, out=B[1:])
    B[0] = dataset.xty
    try:
        U, kkt = _solve(dataset.gram, B, lambda_n, np.zeros(p), np.broadcast_to(0.0, B.shape),
                        (U, G, S), lambda i: f"draw {i - 1}" if i else "LASSO center")
    except SparseProjError as exc:
        raise type(exc)(f"projection at lambda_n={lambda_n:.3e}: {exc}") from exc
    return U[0].copy(), U[1:], kkt


def fit_lasso(dataset: Dataset, lambda_n: float) -> np.ndarray:
    """LASSO estimate: minimizer of (1/n)||Y - Xu||^2 + lambda_n*||u||_1.

    The problem project_draws solves as its row 0 (b = X'Y/n, the projection
    of the least-squares solution), here alone and exactly, as the reference
    for the fit pipeline's center: read off the exact solution path
    (_lasso_paths, as one fold) and certified by its KKT residual; a
    solution above TOL is polished by coordinate descent.  Raises
    DegenerateDiagonal if a Gram diagonal entry is <= 0 and NoConvergence
    if the polish leaves the residual above TOL after MAX_SWEEPS sweeps;
    both name the center.
    """
    if lambda_n <= 0:
        raise ValueError("lambda_n must be positive")
    return _certified_path(dataset.gram[None], dataset.xty[None], np.array([float(lambda_n)]),
                           lambda k, g: f"LASSO center at lambda_n={lambda_n:.3e}")[0, 0]


def default_lambda_grid(dataset: Dataset, num: int = 100) -> np.ndarray:
    """Descending log-spaced grid from the full-shrinkage threshold down 3 decades."""
    lam_max = 2.0 * float(np.abs(dataset.xty).max())
    if lam_max <= 0:
        lam_max = 1.0  # degenerate X'Y = 0; any grid selects the zero fit
    return np.geomspace(lam_max, lam_max * 1e-3, num=num)


def _held_out_error(U: np.ndarray, G: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Held-out squared error sum_k ||Y_k - X_k u_kg||^2 - Y_k'Y_k, pooled
    over the folds k, of each grid row g of the (K, L, p) U, from the folds'
    G_k = X_k'X_k and c_k = X_k'Y_k alone, in O(K p^2) per row."""
    return np.einsum("kgp,kgp->g", U, U @ G - 2.0 * c[:, None, :])


def cross_validate_lambda(dataset: Dataset, grid: np.ndarray | None = None) -> float:
    """Pick the penalty by K-fold cross-validated squared prediction error.

    The folds are the dataset's: their rows were assigned by a seeded
    stream when it was built (see types.DatasetAccumulator), and it keeps
    each fold's X_k'X_k, X_k'Y_k and row count.  The error for a grid value
    pools squared residuals on held-out rows over all folds; ties are
    broken toward the larger penalty.  Raises InsufficientData if the
    dataset was built without folds or if n < K.

    Each fold is fitted on the Gram statistics of the other folds, and its
    held-out error comes from the identity

        ||Y_k - X_k u||^2 = Y_k'Y_k - 2 u'X_k'Y_k + u'X_k'X_k u,

    so scoring a grid value costs O(K p^2) rather than a pass over the rows.

    All folds walk their exact solution paths down the grid together, one
    kink of every fold per step, and read every grid value off them; each
    (fold, grid value) row is certified as fit_lasso's center is, and the
    held-out errors of every fold and grid value come from one product.
    Errors name the fold and the grid value, by its index in the descending
    grid (the first for a degenerate fold Gram).
    """
    folds = dataset.fold_n.size
    if folds == 0:
        raise InsufficientData("the dataset has no CV folds: build it with folds >= 2")
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
    lam_desc = grid[np.argsort(-grid)]

    G, c = dataset.fold_gram, dataset.fold_xty
    n_tr = dataset.n - dataset.fold_n
    Qs = (dataset.gram * dataset.n - G) / n_tr[:, None, None]
    Bs = (dataset.xty * dataset.n - c) / n_tr[:, None]

    U = _certified_path(Qs, Bs, lam_desc,
                        lambda k, g: f"CV path at lambda[{g}]={lam_desc[g]:.3e}, fold {k}")
    errs = dataset.yty + _held_out_error(U, G, c)
    return float(lam_desc[errs <= errs.min()].max())
