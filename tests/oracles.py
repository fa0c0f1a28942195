"""Independent reference solvers for the quadratic-plus-l1 objective

    f(u) = u'Qu - 2 u'b + lam * penalty(u),

penalty(u) = sum_j |u_j| over unsigned coordinates plus s_j*u_j over signed
ones.  The three reference solvers do not go through the package's
coordinate descent: they are exhaustive grid search (p = 2), exact
sign-pattern enumeration (any small p), and proximal gradient with momentum.  They exist so solver
tests compare against arithmetic that cannot share a bug with the code under
test.  cv_errors_reference scores cross-validation fold solutions from the
held-out rows themselves, and fold_labels_reference assigns CV folds one run
of rows at a time, as the streamed dataset must.  kkt_batch_reference is the
branch-per-case KKT certificate that the package's fused one must match bit
for bit.
cd_multi_reference is plain batched coordinate descent, one Q per row; the
exact LASSO path behind the CV folds and the center is judged against it by
objective value and KKT residual.  lasso_path_reference walks one fold's
exact path with a fresh linear solve at every kink, the per-fold reference
for the package's joint walk of all folds.  certified_loop_reference is the shared-Q
loop certified in full after every sweep, the schedule that the package's
probed loop must reproduce.  Both certify with kkt_batch_reference and
borrow nothing from the package but a message format.
limit_solve_reference solves the limit experiment's problem one penalty at
a time: a zero penalty by a linear solve, which shares nothing with the
package, a positive one by the package's certified kernel alone.  sample_xi
solves xi for one draw through it, the reference for row 0 of each block of
the stacked xi/T* batch.  sqrt_factors_reference gives (C^{1/2}, C^{-1/2})
from an eigendecomposition of its own, so the oracles build W* literally,
as sigma0 (delta + Z) C^{-1/2}, where the package forms C W* from
LimitSpec.C_half alone.  level_by_bisection is the calibration oracle: a
scalar bisection for the credibility level, checked against the package's
one Newton level solve.
model_probabilities_reference counts supports one row at a time, as frozensets,
and then sorts and ranks them.
"""

import itertools
import math

import numpy as np

from sparseproj.errors import DegenerateDiagonal, NoConvergence
from sparseproj.projection import _solve, _worst_rows


def _soft(x: np.ndarray, t: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def fold_labels_reference(n: int, folds: int, seed: int) -> np.ndarray:
    """The CV fold of each of n rows, one run of `folds` rows at a time:
    each run takes the stable argsort of `folds` uniform draws from the
    (seed, 0x5CF0) stream, a uniformly random permutation of the folds."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5CF0)))
    labels = np.empty(n, dtype=int)
    for start in range(0, n, folds):
        perm = np.argsort(rng.random(folds), kind="stable")
        labels[start:start + folds] = perm[:n - start]
    return labels


def objective(Q, b, lam, signs, u):
    u = np.asarray(u, dtype=float)
    signs = np.asarray(signs, dtype=float)
    pen = np.where(signs == 0.0, np.abs(u), signs * u).sum()
    return float(u @ Q @ u - 2.0 * u @ b + lam * pen)


def grid_min_2d(Q, b, lam, lo=-2.0, hi=2.0, step=1e-3):
    """Exhaustive search on a 2-d lattice, then one refinement pass around the
    coarse argmin at step^2 resolution.  Unsigned penalty only."""

    def scan(c1, c2, h, half_width):
        u1 = np.arange(c1 - half_width, c1 + half_width + h / 2, h)
        u2 = np.arange(c2 - half_width, c2 + half_width + h / 2, h)
        A, B = u1[:, None], u2[None, :]
        f = (Q[0, 0] * A * A + 2.0 * Q[0, 1] * A * B + Q[1, 1] * B * B
             - 2.0 * b[0] * A - 2.0 * b[1] * B + lam * (np.abs(A) + np.abs(B)))
        i, j = np.unravel_index(np.argmin(f), f.shape)
        return float(u1[i]), float(u2[j]), float(f[i, j])

    mid = 0.5 * (lo + hi)
    x, y, _ = scan(mid, mid, step, 0.5 * (hi - lo))
    x, y, _ = scan(x, y, 1e-2 * step, 4.0 * step)
    x, y, fbest = scan(x, y, 1e-4 * step, 4e-2 * step)
    return np.array([x, y]), fbest


def enumerate_min(Q, b, lam, signs):
    """Exact minimizer by enumerating sign patterns of the unsigned coordinates.

    For an assumed pattern the stationarity system is linear: active rows use
    Q, inactive rows pin u_j = 0.  The pattern is kept if assumed signs agree
    with the solution and inactive gradients sit inside the subgradient band.
    The strictly convex objective makes exactly one pattern feasible (two or
    more only at boundary ties, where the objective values coincide).
    """
    Q = np.asarray(Q, dtype=float)
    b = np.asarray(b, dtype=float)
    signs = np.asarray(signs, dtype=float)
    p = b.shape[0]
    unsigned = np.where(signs == 0.0)[0]
    pats = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=len(unsigned))))
    K = pats.shape[0]
    sigma = np.tile(signs, (K, 1))
    sigma[:, unsigned] = pats

    active = sigma != 0.0
    active[:, signs != 0.0] = True  # signed coords are always free
    M = np.where(active[:, :, None], Q[None, :, :], np.eye(p)[None, :, :])
    rhs = np.where(active, b[None, :] - 0.5 * lam * sigma, 0.0)
    U = np.linalg.solve(M, rhs[:, :, None])[:, :, 0]

    # sign consistency on active unsigned coords; subgradient band on inactive
    G = 2.0 * (U @ Q - b[None, :])
    scale = max(1.0, float(np.abs(b).max()), float(np.abs(Q).max()))
    sign_ok = np.where(active & (np.tile(signs, (K, 1)) == 0.0),
                       sigma * U >= -1e-9 * scale, True).all(axis=1)
    band_ok = np.where(~active, np.abs(G) <= lam + 1e-8 * scale, True).all(axis=1)
    feasible = sign_ok & band_ok
    assert feasible.any(), "no feasible sign pattern; Q is not positive definite?"

    objs = np.einsum("kp,pq,kq->k", U, Q, U) - 2.0 * U @ b \
        + lam * np.where(np.tile(signs, (K, 1)) == 0.0, np.abs(U), sigma * U).sum(axis=1)
    objs = np.where(feasible, objs, np.inf)
    k = int(np.argmin(objs))
    return U[k], float(objs[k])


def prox_gradient_min(Q, b, lam, signs, iters=20000):
    """FISTA with objective restarts; prox is soft-threshold for unsigned
    coordinates and a linear shift for signed ones."""
    Q = np.asarray(Q, dtype=float)
    b = np.asarray(b, dtype=float)
    signs = np.asarray(signs, dtype=float)
    t = 1.0 / (2.0 * float(np.linalg.eigvalsh(Q).max()))
    shift = t * lam * signs

    def prox(v):
        un = np.sign(v) * np.maximum(np.abs(v) - t * lam, 0.0)
        return np.where(signs == 0.0, un, v - shift)

    x = np.zeros_like(b)
    y = x.copy()
    mom = 1.0
    f_prev = objective(Q, b, lam, signs, x)
    for _ in range(iters):
        x_new = prox(y - t * 2.0 * (Q @ y - b))
        f_new = objective(Q, b, lam, signs, x_new)
        if f_new > f_prev:  # restart momentum
            y = x
            mom = 1.0
            x_new = prox(y - t * 2.0 * (Q @ y - b))
            f_new = objective(Q, b, lam, signs, x_new)
        mom_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * mom * mom))
        y = x_new + (mom - 1.0) / mom_new * (x_new - x)
        x, mom, f_prev = x_new, mom_new, f_new
    return x, f_prev


def level_by_bisection(lambda_eff, target):
    """Credibility level 1 - gamma whose limiting signal coverage
    Phi(l/2 + z) - Phi(l/2 - z) equals target at penalty l = lambda_eff, with
    z = z_{gamma/2}.  The coverage is increasing in z, so plain midpoint
    bisection on [0, 40] to width 1e-12 finds z; gamma = 2(1 - Phi(z)) is
    clipped to [1e-15, 1 - 1e-15] as the package clips it.  Phi comes from
    math.erfc here, not from the package."""
    def cdf(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    half = 0.5 * lambda_eff
    lo, hi = 0.0, 40.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if cdf(half + mid) - cdf(half - mid) < target:
            lo = mid
        else:
            hi = mid
    gamma = 2.0 * (1.0 - cdf(0.5 * (lo + hi)))
    return 1.0 - min(max(gamma, 1e-15), 1.0 - 1e-15)


def random_spd(rng, p, cond_cap=50.0):
    """Random symmetric positive definite matrix with bounded conditioning."""
    A = rng.standard_normal((p, p))
    Q = A @ A.T / p
    floor = float(np.linalg.eigvalsh(Q).max()) / cond_cap
    return Q + floor * np.eye(p)


def cv_errors_reference(X, Y, chunks, U):
    """Pooled held-out squared error sum_k ||Y_k - X_k U_k||^2 computed from
    the rows: chunks[k] indexes the rows of fold k and U[k] is its solution."""
    return sum(float(np.sum((Y[idx] - X[idx] @ U[k]) ** 2)) for k, idx in enumerate(chunks))


def kkt_batch_reference(Q, B, lam, signs, U):
    """Max KKT violation per row of U, branch by branch: an unsigned nonzero
    coordinate gives |g + lam*sign(u)|, an unsigned zero max(|g| - lam, 0)
    and a signed one |g + lam*s_j|, with g = 2(UQ - B).  UQ is formed in U's
    own memory order, as BLAS rounds a product by the layout of its output."""
    G = 2.0 * (np.matmul(U, Q, out=np.empty_like(U)) - B)
    viol = np.empty_like(U)
    unsigned = signs == 0
    if unsigned.any():
        Gu, Uu = G[:, unsigned], U[:, unsigned]
        active = np.abs(Gu + lam * np.sign(Uu))
        inactive = np.maximum(np.abs(Gu) - lam, 0.0)
        viol[:, unsigned] = np.where(Uu != 0.0, active, inactive)
    if not unsigned.all():
        sgn = ~unsigned
        viol[:, sgn] = np.abs(G[:, sgn] + lam * signs[sgn])
    return viol.max(axis=1)


def cd_multi_reference(Qs: np.ndarray, Bs: np.ndarray, lam: float, U0: np.ndarray,
                       tol: float, max_sweeps: int) -> np.ndarray:
    """Unsigned coordinate descent across problems with distinct Q per row.

    Qs is (K, p, p), Bs and U0 are (K, p): the reference for the path
    solutions of CV folds, each with its own Gram matrix, and of the center.
    """
    diag = np.einsum("kjj->kj", Qs).copy()
    if np.any(diag <= 0.0):
        raise DegenerateDiagonal("a fold Gram matrix has a nonpositive diagonal entry")
    K, p = Bs.shape
    U = np.array(U0, dtype=float, copy=True)
    signs = np.zeros(p)  # every coordinate is unsigned
    half = 0.5 * lam
    for _ in range(max_sweeps):
        for j in range(p):
            r = Bs[:, j] - np.einsum("kp,kp->k", U, Qs[:, :, j]) + U[:, j] * diag[:, j]
            U[:, j] = _soft(r, half) / diag[:, j]
        kkt = np.array([kkt_batch_reference(Qs[k], Bs[k:k + 1], lam, signs, U[k:k + 1])[0]
                        for k in range(K)])
        if kkt.max() <= tol:
            return U
    raise NoConvergence(f"CV path: residual {kkt.max():.3e} > tol {tol:.1e}; "
                        f"{_worst_rows(kkt, tol, 'fold {}'.format)}")


def lasso_path_reference(Q: np.ndarray, b: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Solutions of min u'Qu - 2u'b + lam*||u||_1 at the descending penalties
    lams, as rows, read off the exact path from lam_max = 2 max|b_j| down.

    In mu = lam/2 and c = b - Qu, u is optimal when c_A = mu s_A on its
    active set A, s_A the signs of u_A, and |c_j| <= mu elsewhere.  From a
    kink at mu_k the path is u_A = y + (mu_k - mu) d, with Q_AA [y, d] =
    [b_A - mu_k s_A, s_A], and c moves by -(mu_k - mu) Q_:A d, until the
    nearest mu at which an inactive c_j reaches +-mu (j joins; a rate 1 -+
    a_j within 1e-10 of 0 keeps j on its boundary) or an active u_j reaches
    0 (j leaves); one past its boundary by rounding changes at once.  The
    walk stops early on a singular Q_AA or after 10(p + 1) kinks, leaving
    the unread rows at its last point.  One fold at a time, with one
    np.linalg.solve on Q_AA per kink: the reference for the package's walk
    of all folds together, which updates each fold's inverse of Q_AA
    instead.  Raises DegenerateDiagonal for a nonpositive diagonal entry of
    Q.
    """
    if (np.diagonal(Q) <= 0.0).any():
        raise DegenerateDiagonal("Q has a nonpositive diagonal entry")
    mus = 0.5 * lams
    U = np.zeros((mus.size, b.size))
    s, u, c = np.zeros_like(b), np.zeros_like(b), b.copy()
    mu, i = float(np.abs(b).max()), 0  # the first kink joins the largest |b_j|
    sides = np.array([[1.0], [-1.0]])  # c_j reaching +mu, then -mu
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(10 * (b.size + 1)):
            A = np.flatnonzero(s)
            sA, QA = s[A], Q[:, A]
            try:
                yd = np.linalg.solve(QA[A], np.array([b[A] - mu * sA, sA]).T)
            except np.linalg.LinAlgError:
                break
            if not np.isfinite(yd).all():
                break
            y, d = yd.T
            a = QA @ d
            # the step mu_k - mu to each coordinate's next event, inf for none
            rate = 1.0 - sides * a
            join = np.where(rate > 1e-10, np.maximum(mu - sides * c, 0.0) / rate, np.inf)
            step = join.min(axis=0)
            step[A] = np.where(d * sA < 0.0, np.maximum(-y / d, 0.0), np.inf)
            last = int(np.argmin(step))
            delta = min(float(step[last]), mu)
            while i < mus.size and mus[i] >= mu - delta:
                v = y + (mu - mus[i]) * d
                U[i, A] = np.where(v * sA > 0.0, v, 0.0)  # a wrong sign is rounding around 0
                i += 1
            u[A] = y + delta * d
            mu -= delta
            if i == mus.size or mu == 0.0:
                break
            # a coordinate joins at the sign of its c_j and leaves at u_j = 0
            s[last] = 0.0 if s[last] else np.sign(c[last] - delta * a[last])
            u[last] = 0.0
            c = b - QA @ u[A]
    U[i:] = u
    return U


def certified_loop_reference(Q: np.ndarray, B: np.ndarray, lam, signs: np.ndarray,
                             U0: np.ndarray, tol: float, max_sweeps: int):
    """Coordinate descent on one shared Q, certified in full by
    kkt_batch_reference after every sweep; returns (solutions, per-row KKT
    residual, sweeps run), the last state if max_sweeps leave a row above
    tol.  Each sweep is the plain zero-diagonal update
    U_j = soft(B_j - U Qz_j, lam/2) / Q_jj, Qz = Q - diag(Q), on an
    F-ordered copy of U0, so that its products round as the package's do.
    lam is one penalty, or an (m,) array of one per row.
    """
    Qz = np.asfortranarray(Q - np.diag(np.diag(Q)))
    U = np.array(U0, dtype=float, order="F", copy=True)
    half = 0.5 * np.asarray(lam, dtype=float)
    lam = np.reshape(lam, (-1, 1)) if np.ndim(lam) else lam  # the certificate's column
    for sweep in range(1, max_sweeps + 1):
        for j in range(Q.shape[0]):
            r = B[:, j] - U @ Qz[:, j]
            U[:, j] = (_soft(r, half) if signs[j] == 0 else r - half * signs[j]) / Q[j, j]
        kkt = kkt_batch_reference(Q, B, lam, signs, U)
        if kkt.max() <= tol:
            break
    return U, kkt, sweep


def limit_solve_reference(spec, lambda0, B):
    """Minimizers of u'Cu - 2u'B_i + lambda0*pen(u) for every row of B at
    the one penalty lambda0: at zero the linear solve C u = B_i; otherwise
    the package's _solve, with |u| < 1e-12 set to 0."""
    B = np.atleast_2d(B)
    if lambda0 == 0.0:
        return np.linalg.solve(spec.C, B.T).T
    U, _ = _solve(spec.C, B, lambda0, spec.theta0_signs, np.zeros(B.shape))
    U[np.abs(U) < 1e-12] = 0.0
    return U


def sqrt_factors_reference(C):
    """(C^{1/2}, C^{-1/2}) by symmetric eigendecomposition, eigenvalues
    floored at 1e-12 to absorb round-off."""
    w, V = np.linalg.eigh(C)
    root = np.sqrt(np.maximum(w, 1e-12))
    return (V * root) @ V.T, (V / root) @ V.T


def sample_xi(spec, lambda0, delta):
    """The limiting LASSO fluctuation xi at penalty lambda0 for one
    standardized draw delta.

    Deterministic: solves the penalized quadratic with b = sigma0 C^{1/2}
    delta; signal coordinates carry the signed linear penalty, noise
    coordinates the absolute one.
    """
    delta = np.asarray(delta, dtype=float).ravel()
    if delta.shape[0] != spec.p:
        raise ValueError(f"delta has length {delta.shape[0]}, expected {spec.p}")
    Chalf, _ = sqrt_factors_reference(spec.C)
    b = spec.sigma0 * (Chalf @ delta)
    return limit_solve_reference(spec, lambda0, b.reshape(1, -1))[0]


def model_probabilities_reference(draws):
    """{support: frequency} by a per-row frozenset loop: supports as
    ascending index tuples, the most frequent first, ties in order of first
    visit (a stable sort of first-visit order)."""
    counts = {}
    for row in draws:
        support = frozenset(int(j) for j in np.nonzero(row)[0])
        counts[support] = counts.get(support, 0) + 1
    R = len(draws)
    ranked = sorted(counts.items(), key=lambda kv: -kv[1])
    return {tuple(sorted(s)): c / R for s, c in ranked}
