"""Coordinate-descent solvers against grid, enumeration, and proximal oracles.

Tolerance note: the penalty here is the (1/n)-loss convention, so the
soft-threshold level is half the penalty per unit Gram diagonal; the frozen
closed-form values below are computed from that convention.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from oracles import (cd_multi_reference, certified_loop_reference, cv_errors_reference,
                     enumerate_min, fold_labels_reference, grid_min_2d, kkt_batch_reference,
                     lasso_path_reference, objective, prox_gradient_min, random_spd)
from sparseproj import projection
from sparseproj.errors import DegenerateDiagonal, InsufficientData, NoConvergence
from sparseproj.projection import (
    _held_out_error,
    _lasso_paths,
    _solve,
    cross_validate_lambda,
    default_lambda_grid,
    fit_lasso,
    project_draws,
)
from sparseproj.types import validate_dataset


def solve_one(Q, b, lam, signs=None, warm=None):
    """One problem through the shared-Q batch solver, from zero or warm;
    returns (solution, KKT residual)."""
    p = len(b)
    signs = np.zeros(p) if signs is None else np.asarray(signs, dtype=float)
    U0 = np.zeros((1, p)) if warm is None else np.reshape(warm, (1, p))
    U, kkt = _solve(Q, np.reshape(b, (1, p)), lam, signs, U0)
    return U[0], float(kkt[0])


def solver_limits(mp, tol=None, max_sweeps=None):
    """Patch the solver's certified tolerance and sweep cap."""
    if tol is not None:
        mp.setattr(projection, "TOL", tol)
    if max_sweeps is not None:
        mp.setattr(projection, "MAX_SWEEPS", max_sweeps)


def kkt_at(Q, b, lam, u, signs=None):
    """The package's fused KKT certificate at one point u."""
    u = np.reshape(np.asarray(u, dtype=float), (1, -1))
    signs = np.zeros(u.shape[1]) if signs is None else np.asarray(signs, dtype=float)
    return float(projection._kkt_rows(u @ Q - np.reshape(b, (1, -1)), u, lam, signs,
                                      np.empty_like(u))[0])


def identity_gram_dataset(p=2, n=2, Y=None):
    # X'X/n = I exactly
    X = np.sqrt(n) * np.eye(n)[:, :p]
    if Y is None:
        Y = np.zeros(n)
    return validate_dataset(X, Y)


def equicorrelated_dataset():
    # X'X = [[4, 2], [2, 4]] exactly, so gram = [[1, .5], [.5, 1]] with no
    # floating-point dust; keeps the boundary tie in the oracle test exact
    X = np.array([[2.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    return validate_dataset(X, np.zeros(4))


# --- project_draws -----------------------------------------------------------

def project_one(ds, theta, lam):
    """Project one draw alone: the quadratic problem Q = C_n, b = C_n theta."""
    return solve_one(ds.gram, ds.gram @ theta, lam)[0]


def test_project_identity_gram_soft_threshold():
    ds = identity_gram_dataset()
    _, U, kkt = project_draws(ds, np.array([1.0, -0.1]), 0.4)
    np.testing.assert_allclose(U[0], [0.8, 0.0], atol=1e-12)
    assert np.flatnonzero(U[0]).tolist() == [0]
    assert kkt.max() <= 1e-10


def test_project_zero_stays_zero():
    ds = identity_gram_dataset()
    _, U, _ = project_draws(ds, np.zeros(2), 0.4)
    np.testing.assert_array_equal(U[0], [0.0, 0.0])
    assert np.flatnonzero(U[0]).size == 0


def test_project_correlated_gram_vs_grid_oracle():
    C = np.array([[1.0, 0.5], [0.5, 1.0]])
    ds = equicorrelated_dataset()
    np.testing.assert_array_equal(ds.gram, C)
    theta = np.array([1.0, 0.2])
    lam = 0.6
    _, U, _ = project_draws(ds, theta, lam)
    u = U[0]

    b = C @ theta
    u_grid, f_grid = grid_min_2d(C, b, lam)
    signs = np.zeros(2)
    f_cd = objective(C, b, lam, signs, u)
    assert abs(f_cd - f_grid) <= 1e-6
    assert f_cd <= f_grid + 1e-9  # exact solver cannot lose to a lattice point
    np.testing.assert_allclose(u, u_grid, atol=2e-3)
    # this instance lands on the closed form (0.8, 0) with coord 2 at the
    # subgradient boundary, exercising the ties-stay-zero rule
    np.testing.assert_allclose(u, [0.8, 0.0], atol=1e-10)


def test_project_rejects_wrong_length():
    ds = identity_gram_dataset()
    with pytest.raises(ValueError, match="3 columns, expected 2"):
        project_draws(ds, np.ones(3), 0.4)


def test_project_draws_matches_per_row():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 4))
    ds = validate_dataset(X, rng.standard_normal(30))
    thetas = rng.standard_normal((25, 4))
    center, U, kkt = project_draws(ds, thetas, 0.3)
    assert center.shape == (4,) and U.shape == (25, 4) and kkt.shape == (26,)
    assert kkt.max() <= 1e-10
    for i in (0, 7, 24):
        np.testing.assert_allclose(U[i], project_one(ds, thetas[i], 0.3), atol=1e-9)


def test_project_draws_center_is_row_zero_of_the_batch():
    # the center is the batch's row 0, solved from zero beside the draws:
    # the certified LASSO estimate whatever the draws (its last bits follow
    # the batch's stopping sweep), with no warm start
    rng = np.random.default_rng(1)
    X = rng.standard_normal((40, 3))
    ds = validate_dataset(X, X @ np.array([1.0, -0.5, 0.0]) + rng.standard_normal(40))
    thetas = rng.standard_normal((10, 3))
    center, U, kkt = project_draws(ds, thetas, 0.2)
    assert max(kkt_at(ds.gram, ds.xty, 0.2, center), kkt[0]) <= 1e-10
    for other in (fit_lasso(ds, 0.2), project_draws(ds, thetas[:2], 0.2)[0]):
        np.testing.assert_allclose(center, other, atol=1e-9)
    for i in (0, 9):
        np.testing.assert_allclose(U[i], project_one(ds, thetas[i], 0.2), atol=1e-9)
    with pytest.raises(TypeError, match="warm"):
        project_draws(ds, thetas, 0.2, warm=center)


@pytest.mark.parametrize("order", ["C", "F"])
def test_project_draws_in_caller_buffers_matches_fresh(order):
    # U, B, G and S from the caller, thetas in the leading entries of S
    # (C-ordered, as fit_dataset places them) or of G (F-ordered): the same
    # bits as fresh arrays, the draws returned as rows 1.. of the caller's U
    # and the center as a fresh array
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 4))
    X[:, 1] = X[:, 0] + 0.3 * X[:, 1]  # a few sweeps, so G and S are reused
    ds = validate_dataset(X, rng.standard_normal(40))
    thetas = rng.standard_normal((25, 4))
    ref_center, ref, ref_kkt = project_draws(ds, thetas, 0.1)
    buffers = [np.full((26, 4), np.nan, order="F") for _ in range(4)]
    own = buffers[3 if order == "C" else 2].ravel(order="F")[:thetas.size].reshape((25, 4), order=order)
    own[...] = thetas
    center, U, kkt = project_draws(ds, own, 0.1, buffers=buffers)
    assert U.base is buffers[0] and np.shares_memory(U, buffers[0][1:])
    assert not np.shares_memory(center, buffers[0])
    assert U.tobytes() == ref.tobytes() and kkt.tobytes() == ref_kkt.tobytes()
    assert center.tobytes() == ref_center.tobytes()
    assert not np.array_equal(own, thetas)  # thetas held the certificate's work


def test_project_draws_rejects_nonpositive_lambda():
    ds = identity_gram_dataset()
    with pytest.raises(ValueError):
        project_draws(ds, np.ones((2, 2)), 0.0)


def test_project_draws_no_convergence_names_rows(monkeypatch):
    rng = np.random.default_rng(2)
    X = rng.standard_normal((30, 4))
    X[:, 1] = X[:, 0] + 0.1 * X[:, 1]  # correlated columns need many sweeps
    ds = validate_dataset(X, rng.standard_normal(30))
    thetas = rng.standard_normal((12, 4))
    solver_limits(monkeypatch, max_sweeps=1)
    with pytest.raises(NoConvergence, match=r"of 13 rows above tol, worst: "
                                            r"(draw \d+|LASSO center) \("):
        project_draws(ds, thetas, 0.05)


def test_project_draws_no_convergence_names_center_and_draw(monkeypatch):
    # batch row 0 is the center and row k + 1 draw k: draw 0 is zero, so it
    # certifies after any sweep, and one sweep leaves the center and draw 1
    # above tol on correlated columns
    rng = np.random.default_rng(2)
    X = rng.standard_normal((30, 4))
    X[:, 1] = X[:, 0] + 0.1 * X[:, 1]
    ds = validate_dataset(X, X @ np.array([2.0, -1.0, 0.5, 0.0]) + rng.standard_normal(30))
    thetas = np.array([np.zeros(4), [1.5, -2.0, 1.0, 0.5]])
    solver_limits(monkeypatch, max_sweeps=1)
    with pytest.raises(NoConvergence) as exc:
        project_draws(ds, thetas, 0.05)
    msg = str(exc.value)
    assert re.search(r"after 1 sweeps; 2 of 3 rows above tol, worst: ", msg), msg
    named = re.findall(r"(LASSO center|draw \d+|row \d+) \(", msg)
    assert sorted(named) == ["LASSO center", "draw 1"], msg


# --- one problem through the batch kernel ------------------------------------

def test_scalar_unsigned_inside_band_is_zero():
    u, kkt = solve_one(np.eye(1), np.array([0.05]), 0.2)
    assert u[0] == 0.0
    assert kkt == 0.0


def test_scalar_signed_linear_shift():
    u, kkt = solve_one(np.eye(1), np.array([0.05]), 0.2, signs=[1.0])
    assert u[0] == pytest.approx(-0.05, abs=1e-14)
    assert kkt <= 1e-12


def test_random_5x5_vs_both_oracles():
    rng = np.random.default_rng(7)
    Q = random_spd(rng, 5)
    b = rng.standard_normal(5)
    lam = 0.3
    u, kkt = solve_one(Q, b, lam)
    assert kkt <= 1e-10

    signs = np.zeros(5)
    u_enum, f_enum = enumerate_min(Q, b, lam, signs)
    u_prox, f_prox = prox_gradient_min(Q, b, lam, signs)
    # the two oracle routes agree with each other before judging the solver
    assert abs(f_enum - f_prox) <= 1e-8
    f_cd = objective(Q, b, lam, signs, u)
    assert f_cd <= f_enum + 1e-8
    np.testing.assert_allclose(u, u_enum, atol=1e-7)


def test_mixed_signed_vs_enumeration():
    rng = np.random.default_rng(21)
    for trial in range(20):
        p = int(rng.integers(1, 7))
        Q = random_spd(rng, p)
        b = rng.standard_normal(p) * 2.0
        lam = float(rng.uniform(0.05, 2.0))
        signs = rng.choice([-1, 0, 0, 1], size=p).astype(float)
        u, kkt = solve_one(Q, b, lam, signs)
        assert kkt <= 1e-10
        u_ref, f_ref = enumerate_min(Q, b, lam, signs)
        assert objective(Q, b, lam, signs, u) <= f_ref + 1e-8
        np.testing.assert_allclose(u, u_ref, atol=1e-6)


def test_degenerate_diagonal_raises():
    Q = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateDiagonal):
        solve_one(Q, np.ones(2), 0.1)


def test_no_convergence_raises(monkeypatch):
    rng = np.random.default_rng(3)
    Q = random_spd(rng, 4, cond_cap=200.0)
    solver_limits(monkeypatch, tol=1e-14, max_sweeps=1)
    with pytest.raises(NoConvergence):
        solve_one(Q, rng.standard_normal(4), 0.01)


# --- the KKT certificate -----------------------------------------------------

def test_kkt_zero_at_soft_threshold_solution():
    u = np.array([0.8, 0.0])
    assert kkt_at(np.eye(2), np.array([1.0, -0.1]), 0.4, u) <= 1e-14


def test_kkt_perturbed_active_coordinate():
    u = np.array([0.81, 0.0])
    # g_1 = 2(u_1 - b_1) = -0.38, plus lam gives 0.02 = 2*Q_11*0.01
    assert kkt_at(np.eye(2), np.array([1.0, -0.1]), 0.4, u) == pytest.approx(0.02, abs=1e-12)


def test_kkt_zero_vector_zero_b():
    assert kkt_at(np.eye(3), np.zeros(3), 0.4, np.zeros(3)) == 0.0


def test_kkt_signed_coordinate():
    b = np.array([0.05])
    assert kkt_at(np.eye(1), b, 0.2, np.array([-0.05]), signs=[1.0]) <= 1e-14
    # at zero a signed coordinate is still graded on the exact stationarity
    assert kkt_at(np.eye(1), b, 0.2, np.array([0.0]), signs=[1.0]) == \
        pytest.approx(0.1, abs=1e-14)


# --- fit_lasso ---------------------------------------------------------------

def test_fit_lasso_orthonormal_closed_form():
    Y = np.array([2.0, 0.1])
    ds = identity_gram_dataset(Y=Y)
    lam = 0.5
    u = fit_lasso(ds, lam)
    expected = np.sign(ds.xty) * np.maximum(np.abs(ds.xty) - lam / 2, 0.0)
    np.testing.assert_allclose(u, expected, atol=1e-12)
    assert expected[0] > 0 and expected[1] == 0.0


def test_fit_lasso_full_shrinkage_threshold():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((50, 4))
    ds = validate_dataset(X, rng.standard_normal(50))
    lam_max = 2.0 * np.abs(ds.xty).max()
    np.testing.assert_array_equal(fit_lasso(ds, lam_max), np.zeros(4))
    np.testing.assert_array_equal(fit_lasso(ds, 1.01 * lam_max), np.zeros(4))
    assert np.any(fit_lasso(ds, 0.9 * lam_max) != 0.0)


def test_fit_lasso_n200_p5_vs_enumeration():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((200, 5))
    theta0 = np.array([2.0, 0.0, -1.0, 0.0, 0.5])
    Y = X @ theta0 + rng.standard_normal(200)
    ds = validate_dataset(X, Y)
    lam = 0.25
    u = fit_lasso(ds, lam)
    signs = np.zeros(5)
    u_ref, f_ref = enumerate_min(ds.gram, ds.xty, lam, signs)
    assert objective(ds.gram, ds.xty, lam, signs, u) <= f_ref + 1e-8
    np.testing.assert_allclose(u, u_ref, atol=1e-7)


@hyp_settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       p=st.integers(min_value=1, max_value=7),
       shape=st.sampled_from(["tall", "short", "duplicate", "ar1"]),
       frac=st.floats(min_value=0.01, max_value=1.2))
# the coverage study's independent and ar1 designs, a tied pair of columns,
# and the n < p (40 x 60) shape of the short-wide fit
@example(seed=11, p=7, shape="tall", frac=0.05)
@example(seed=12, p=7, shape="ar1", frac=0.05)
@example(seed=13, p=7, shape="duplicate", frac=0.05)
@example(seed=40, p=60, shape="wide", frac=0.01)
def test_fit_lasso_path_center_matches_cd(seed, p, shape, frac):
    # the path center (fit_lasso) and the batch center (project_draws' row 0,
    # beside two draws) against coordinate descent from zero
    rng = np.random.default_rng(seed)
    if shape == "wide":
        X, Y = short_wide_dataset(40, p, seed)
    else:
        n = int(rng.integers(1, p)) if shape == "short" and p > 1 else p + 5
        X = rng.standard_normal((n, p))
        if shape == "duplicate" and p > 1:
            X[:, -1] = X[:, 0]  # a singular Gram with a tied pair of columns
        for k in range(1, p if shape == "ar1" else 0):  # lag-1 correlation 0.7
            X[:, k] = 0.7 * X[:, k - 1] + math.sqrt(1.0 - 0.7 ** 2) * X[:, k]
        Y = X @ rng.standard_normal(p) + rng.standard_normal(n)
    ds = validate_dataset(X, Y)
    lam = frac * 2.0 * float(np.abs(ds.xty).max()) + 1e-12
    with pytest.MonkeyPatch.context() as mp:
        solver_limits(mp, tol=1e-12, max_sweeps=100_000)
        u = fit_lasso(ds, lam)
        center, _, kkt = project_draws(ds, rng.standard_normal((2, p)), lam)
    ref = cd_multi_reference(ds.gram[None], ds.xty[None], lam, np.zeros((1, p)),
                             1e-12, 100_000)[0]
    zero = np.zeros(p)
    for v in (u, center):
        assert kkt_batch_reference(ds.gram, ds.xty[None], lam, zero, v[None])[0] <= 1e-12
    assert kkt[0] <= 1e-12
    # rounding scales with the larger of the cancelling terms
    scale = max(abs(v @ ds.gram @ v) + 2.0 * abs(v @ ds.xty) + lam * np.abs(v).sum()
                for v in (u, center, ref))
    f_path, f_batch, f_ref = (objective(ds.gram, ds.xty, lam, zero, v)
                              for v in (u, center, ref))
    assert abs(f_path - f_ref) <= 1e-12 * scale
    assert abs(f_batch - f_path) <= 1e-12 * scale


def test_fit_lasso_no_convergence_names_the_center(monkeypatch):
    rng = np.random.default_rng(6)
    X = rng.standard_normal((40, 5))
    ds = validate_dataset(X, X @ np.array([1.0, -0.5, 0.3, 0.0, 0.0])
                          + rng.standard_normal(40))
    solver_limits(monkeypatch, tol=1e-300, max_sweeps=1)
    with pytest.raises(NoConvergence, match=r"LASSO center at lambda_n=1\.000e-01: "
                                            r"residual .* > tol 1\.0e-300 after 1 sweeps"):
        fit_lasso(ds, 0.1)


def test_fit_lasso_rejects_zero_column():
    X = np.random.default_rng(7).standard_normal((20, 3))
    X[:, 1] = 0.0
    with pytest.raises(DegenerateDiagonal):
        fit_lasso(validate_dataset(X, X[:, 0]), 0.1)


def test_lasso_is_projection_of_least_squares():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((60, 5))
    Y = rng.standard_normal(60)
    ds = validate_dataset(X, Y)
    ls = np.linalg.solve(X.T @ X, X.T @ Y)
    for lam in (0.05, 0.3, 1.0):
        direct = fit_lasso(ds, lam)
        via_projection = project_one(ds, ls, lam)
        np.testing.assert_allclose(via_projection, direct, atol=1e-9)


# --- invariants --------------------------------------------------------------

def test_diagonal_q_soft_threshold_exact():
    rng = np.random.default_rng(8)
    d = rng.uniform(0.5, 3.0, size=6)
    b = rng.standard_normal(6)
    for lam in (0.1, 0.7):
        u, _ = solve_one(np.diag(d), b, lam)
        expected = np.sign(b) * np.maximum(np.abs(b) - lam / 2, 0.0) / d
        np.testing.assert_allclose(u, expected, atol=1e-14)


def test_l1_monotone_in_lambda_diagonal_q():
    rng = np.random.default_rng(9)
    d = rng.uniform(0.5, 3.0, size=5)
    b = rng.standard_normal(5)
    lams = [0.05, 0.1, 0.4, 0.9, 2.0]
    norms = []
    for lam in lams:
        u, _ = solve_one(np.diag(d), b, lam)
        norms.append(np.abs(u).sum())
    assert all(norms[i + 1] <= norms[i] + 1e-12 for i in range(len(norms) - 1))


def test_objective_beats_warm_start_and_zero():
    rng = np.random.default_rng(10)
    Q = random_spd(rng, 6)
    b = rng.standard_normal(6)
    signs = np.zeros(6)
    warm = rng.standard_normal(6)
    u, _ = solve_one(Q, b, 0.3, warm=warm)
    f = objective(Q, b, 0.3, signs, u)
    assert f <= objective(Q, b, 0.3, signs, warm) + 1e-12
    assert f <= objective(Q, b, 0.3, signs, np.zeros(6)) + 1e-12


@hyp_settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=0.05, max_value=2.0))
def test_solver_kkt_certificate_random(seed, lam):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 6))
    Q = random_spd(rng, p)
    b = 2.0 * rng.standard_normal(p)
    u, kkt = solve_one(Q, b, float(lam))
    assert kkt <= 1e-10
    assert kkt_at(Q, b, float(lam), u) == pytest.approx(kkt, abs=1e-15)


@hyp_settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.floats(min_value=1e-3, max_value=10.0), st.booleans())
def test_fused_kkt_certificate_matches_branch_reference(seed, m, p, lam, nan_row):
    # exact zeros of both signs, signed coordinates, exact-boundary gradients
    # and a NaN row must give the three-branch certificate's bits
    rng = np.random.default_rng(seed)
    Q = random_spd(rng, p)
    signs = rng.choice([-1.0, 0.0, 0.0, 1.0], size=p)
    U = rng.standard_normal((m, p))
    U[rng.random((m, p)) < 0.3] = 0.0
    U[rng.random((m, p)) < 0.2] = -0.0
    B = U @ Q + 0.5 * lam * rng.choice([-1.0, 0.0, 1.0], size=(m, p))
    B[rng.random((m, p)) < 0.5] += rng.standard_normal()
    if nan_row:
        (U if rng.random() < 0.5 else B)[rng.integers(m), rng.integers(p)] = np.nan
    got = projection._kkt_rows(U @ Q - B, U, lam, signs, np.empty_like(U))
    want = kkt_batch_reference(Q, B, lam, signs, U)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got).any() == nan_row


@hyp_settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=8),
       st.floats(min_value=1e-3, max_value=10.0))
def test_kkt_rows_on_column_major_buffers_match_branch_reference(seed, m, p, lam):
    # the CD kernel keeps its certificate buffers F-ordered; the per-row
    # maximum must not depend on the layout
    rng = np.random.default_rng(seed)
    Q = random_spd(rng, p)
    signs = rng.choice([-1.0, 0.0, 0.0, 1.0], size=p)
    U = rng.standard_normal((m, p))
    U[rng.random((m, p)) < 0.3] = 0.0
    B = U @ Q + 0.5 * lam * rng.choice([-1.0, 0.0, 1.0], size=(m, p))
    G = np.asfortranarray(U @ Q - B)
    UF = np.asfortranarray(U)
    S = np.empty_like(UF)
    assert G.flags.f_contiguous and S.flags.f_contiguous
    got = projection._kkt_rows(G, UF, lam, signs, S)
    assert np.array_equal(got, kkt_batch_reference(Q, B, lam, signs, U))


@hyp_settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=12),
       st.floats(min_value=0.05, max_value=2.0), st.booleans())
def test_cd_shared_same_bits_for_row_and_column_major_inputs(seed, p, m, lam, signed):
    rng = np.random.default_rng(seed)
    Q = random_spd(rng, p, cond_cap=100.0)
    signs = rng.choice([-1.0, 0.0, 1.0], size=p) if signed else np.zeros(p)
    B = 2.0 * rng.standard_normal((m, p))
    U0 = np.where(rng.random((m, p)) < 0.5, rng.standard_normal((m, p)), 0.0)
    U_c, kkt_c = _solve(Q, B, lam, signs, U0)
    U_f, kkt_f = _solve(Q, np.asfortranarray(B), lam, signs, np.asfortranarray(U0))
    assert U_c.flags.f_contiguous and U_f.flags.f_contiguous
    assert np.array_equal(U_c, U_f) and np.array_equal(kkt_c, kkt_f)
    assert kkt_c.max() <= 1e-10


@hyp_settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=9),
       st.floats(min_value=0.0, max_value=3.0), st.booleans())
def test_sweep_matches_soft_threshold_reference(seed, p, m, lam, signed):
    # the in-place sweep against one sweep of the plain zero-diagonal
    # formula, U_j = soft(B_j - U Qz_j, lam/2) / Q_jj with Qz = Q - diag(Q),
    # both on F-ordered U and Qz, as BLAS rounds by layout
    rng = np.random.default_rng(seed)
    Q = random_spd(rng, p)
    signs = rng.choice([-1.0, 0.0, 1.0], size=p) if signed else np.zeros(p)
    B = 2.0 * rng.standard_normal((m, p))
    U0 = np.where(rng.random((m, p)) < 0.5, rng.standard_normal((m, p)), 0.0)
    want, _, _ = certified_loop_reference(Q, B, lam, signs, U0, np.inf, 1)
    U = np.asfortranarray(U0)
    projection._sweep(np.asfortranarray(Q - np.diag(np.diag(Q))), np.diag(Q), B, U, lam, signs)
    assert np.array_equal(U, want)


def test_kkt_rejects_infinite_penalty():
    with pytest.raises(ValueError, match="penalty must be finite"):
        solve_one(np.eye(2), np.ones(2), np.inf)


# --- one penalty per row -------------------------------------------------------

ROW_PENALTIES = (0.5, 1.0, 2.0)


def stacked_problem(rng, Q, m, signed):
    """One (m, p) block of right-hand sides stacked once per penalty of
    ROW_PENALTIES, penalty-major, with the (3m,) per-row penalty."""
    p = Q.shape[0]
    signs = rng.choice([-1.0, 0.0, 1.0], size=p) if signed else np.zeros(p)
    block = 2.0 * rng.standard_normal((m, p))
    B = np.asfortranarray(np.tile(block, (len(ROW_PENALTIES), 1)))
    return block, B, np.repeat(ROW_PENALTIES, m), signs


@pytest.mark.parametrize("seed, p, m, signed", [(0, 3, 50, True), (1, 6, 7, False),
                                                (2, 1, 1, True), (3, 8, 33, True)])
def test_row_penalties_at_identity_equal_each_penalty_alone(seed, p, m, signed):
    # on C = I every row is its own closed-form problem, so the mixed batch
    # gives each penalty's own batch bit for bit
    rng = np.random.default_rng(seed)
    Q = np.eye(p)
    block, B, lam, signs = stacked_problem(rng, Q, m, signed)
    U, kkt = _solve(Q, B, lam, signs, np.zeros(B.shape))
    for k, penalty in enumerate(ROW_PENALTIES):
        alone, kkt_alone = _solve(Q, np.asfortranarray(block), penalty, signs, np.zeros(block.shape))
        assert np.array_equal(U[k * m:(k + 1) * m], alone)
        assert np.array_equal(kkt[k * m:(k + 1) * m], kkt_alone)


@pytest.mark.parametrize("seed, p, m, signed", [(4, 4, 40, True), (5, 10, 25, False),
                                                (6, 20, 60, True), (7, 2, 5, True)])
def test_row_penalties_certify_every_row_and_match_each_penalty_alone(seed, p, m, signed):
    # a correlated Q: the rows sweep together until every row certifies, so
    # each stops no earlier than alone; every row is within TOL by the
    # branch-wise reference at its own penalty, and its objective matches
    # the per-penalty solve's to 1e-12 relative
    rng = np.random.default_rng(seed)
    Q = random_spd(rng, p, cond_cap=20.0)
    block, B, lam, signs = stacked_problem(rng, Q, m, signed)
    U, kkt = _solve(Q, B, lam, signs, np.zeros(B.shape))
    assert kkt.max() <= projection.TOL
    reference = kkt_batch_reference(Q, B, lam[:, None], signs, U)
    np.testing.assert_allclose(kkt, reference, rtol=0, atol=1e-14)
    for k, penalty in enumerate(ROW_PENALTIES):
        alone, _ = _solve(Q, np.asfortranarray(block), penalty, signs, np.zeros(block.shape))
        for i in range(m):
            got = objective(Q, block[i], penalty, signs, U[k * m + i])
            want = objective(Q, block[i], penalty, signs, alone[i])
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (k, i)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_row_penalties_reject_a_non_finite_entry(bad):
    lam = np.array([0.5, 1.0, bad, 2.0])
    with pytest.raises(ValueError, match=re.escape(f"penalty must be finite, got {bad} at row 2")):
        _solve(np.eye(2), np.ones((4, 2)), lam, np.zeros(2), np.zeros((4, 2)))


def test_row_penalties_probe_reads_the_worst_rows_own_penalty(monkeypatch):
    # the probe after a failed full certificate reads the worst row's own
    # penalty, so the probed loop stops where certifying every sweep in
    # full does, with the same solutions and certificate
    rng = np.random.default_rng(8)
    Q = random_spd(rng, 12, cond_cap=200.0)
    _, B, lam, signs = stacked_problem(rng, Q, 30, True)
    U, kkt = _solve(Q, B, lam, signs, np.zeros(B.shape))
    want, kkt_want, sweeps = certified_loop_reference(Q, B, lam, signs, np.zeros(B.shape),
                                                      projection.TOL, projection.MAX_SWEEPS)
    assert sweeps > 2  # the probe ran
    assert np.array_equal(U, want) and np.array_equal(kkt, kkt_want)


def test_cd_shared_one_sweep_names_worst_rows(monkeypatch):
    rng = np.random.default_rng(5)
    Q = random_spd(rng, 4, cond_cap=200.0)
    signs = np.array([0.0, 1.0, 0.0, -1.0])
    B = 2.0 * rng.standard_normal((9, 4))
    # rows are solved independently, so the finite rows' state after one
    # sweep comes from the same batch without its NaN row
    solver_limits(monkeypatch, tol=np.inf, max_sweeps=1)
    U1, _ = _solve(Q, B, 0.1, signs, np.zeros_like(B))
    want = kkt_batch_reference(Q, B, 0.1, signs, U1)
    B[4, 2] = np.nan
    want[4] = np.nan
    solver_limits(monkeypatch, tol=1e-14)
    with pytest.raises(NoConvergence) as info:
        _solve(Q, B, 0.1, signs, np.zeros_like(B))
    message = str(info.value)
    bad = np.flatnonzero(~(want <= 1e-14))
    assert f"after 1 sweeps; {bad.size} of 9 rows above tol, worst: " in message
    assert 4 in bad  # the NaN row counts as unconverged
    worst = bad[np.argsort(-want[bad], kind="stable")][:5]
    named = re.findall(r"row (\d+) \(([^)]*)\)", message)
    assert named == [(str(i), f"{want[i]:.3e}") for i in worst]


def spy_on_sweeps(mp):
    """Patch the solver's sweep and KKT pass to record, in order, the U of
    every sweep and the number of rows of every certificate."""
    sweeps, certified = [], []
    sweep, kkt_rows = projection._sweep, projection._kkt_rows

    def counted_sweep(Qz, diag, B, U, lam, signs):
        sweeps.append(U)
        sweep(Qz, diag, B, U, lam, signs)

    def counted_kkt(G, U, lam, signs, S):
        certified.append(U.shape[0])
        return kkt_rows(G, U, lam, signs, S)

    mp.setattr(projection, "_sweep", counted_sweep)
    mp.setattr(projection, "_kkt_rows", counted_kkt)
    return sweeps, certified


@hyp_settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=12),
       st.floats(min_value=0.01, max_value=2.0), st.booleans(), st.booleans(), st.booleans())
def test_probed_loop_matches_certifying_every_sweep(seed, p, m, lam, signed, fortran, nan_row):
    # skipping the full certificate while the worst row still fails must
    # leave the stopping sweep, the solutions and the certificate as they
    # are when every sweep is certified in full; 60 sweeps leave some
    # batches, and every one with a NaN row, to NoConvergence
    rng = np.random.default_rng(seed)
    Q = random_spd(rng, p, cond_cap=200.0)
    signs = rng.choice([-1.0, 0.0, 1.0], size=p) if signed else np.zeros(p)
    B = 2.0 * rng.standard_normal((m, p))
    U0 = np.where(rng.random((m, p)) < 0.5, rng.standard_normal((m, p)), 0.0)
    if nan_row:
        B[rng.integers(m), rng.integers(p)] = np.nan
    if fortran:
        B, U0 = np.asfortranarray(B), np.asfortranarray(U0)
    want_U, want_kkt, want_sweeps = certified_loop_reference(Q, B, lam, signs, U0,
                                                             projection.TOL, 60)
    with pytest.MonkeyPatch.context() as mp:
        solver_limits(mp, max_sweeps=60)
        sweeps, _ = spy_on_sweeps(mp)
        if want_kkt.max() <= projection.TOL:
            U, kkt = _solve(Q, B, lam, signs, U0)
            assert np.array_equal(kkt, want_kkt)
        else:
            with pytest.raises(NoConvergence) as info:
                _solve(Q, B, lam, signs, U0)
            U = sweeps[-1]
            assert str(info.value).endswith(
                f"after 60 sweeps; {projection._worst_rows(want_kkt, projection.TOL)}")
    assert len(sweeps) == want_sweeps
    # equal as values: the reference's soft threshold keeps the sign of a zero
    assert np.array_equal(U, want_U, equal_nan=True)


def test_no_convergence_names_rows_of_the_last_full_certificate(monkeypatch):
    rng = np.random.default_rng(8)
    Q = random_spd(rng, 6, cond_cap=500.0)
    signs = np.array([0.0, 1.0, 0.0, 0.0, -1.0, 0.0])
    B = 2.0 * rng.standard_normal((40, 6))
    _, want, _ = certified_loop_reference(Q, B, 0.05, signs, np.zeros_like(B), 1e-10, 3)
    solver_limits(monkeypatch, max_sweeps=3)
    _, certified = spy_on_sweeps(monkeypatch)
    with pytest.raises(NoConvergence) as info:
        _solve(Q, B, 0.05, signs, np.zeros_like(B))
    message = str(info.value)
    assert f"after 3 sweeps; {projection._worst_rows(want, 1e-10)}" in message
    # the second sweep's worst-row probe failed, so only the first and the
    # last sweep ran the certificate on all 40 rows
    assert certified == [40, 1, 40]


def test_cd_shared_sweeps_allocate_no_batch_sized_array():
    rng = np.random.default_rng(6)
    m, p = 2000, 20
    Q = random_spd(rng, p, cond_cap=200.0)
    B = rng.standard_normal((m, p))
    U0 = np.zeros((m, p))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _solve(Q, B, 0.05, np.zeros(p), U0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # U and the two certificate buffers, plus a few (m,) vectors; a fresh
    # (m, p) temporary per sweep would take the peak past 4
    assert peak < 4.0 * U0.nbytes


# --- cross-validation --------------------------------------------------------

def test_cv_single_value_grid():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((40, 3))
    ds = validate_dataset(X, rng.standard_normal(40), folds=10)
    assert cross_validate_lambda(ds, grid=np.array([0.37])) == 0.37


def test_cv_pure_noise_prefers_max_penalty():
    # strong grid: all candidates near or above the full-shrinkage threshold,
    # so fitting noise can only hurt held-out error; a few seeds still lose
    # the coin flip, hence the 90-of-100 bar rather than 100
    hits = 0
    for s in range(100):
        rng = np.random.default_rng(1000 + s)
        X = rng.standard_normal((100, 3))
        Y = rng.standard_normal(100)
        ds = validate_dataset(X, Y, folds=5, fold_seed=s)
        lam_max = 2.0 * np.abs(ds.xty).max()
        grid = lam_max * np.array([1.2, 1.6, 2.0])
        lam = cross_validate_lambda(ds, grid=grid)
        hits += lam == grid.max()
    assert hits >= 90


def test_cv_duplicate_rows_seed_independent():
    row = np.array([1.0, -0.5])
    X = np.tile(row, (12, 1))
    Y = np.full(12, 0.7)
    grid = np.array([0.01, 0.1, 1.0])
    picks = {cross_validate_lambda(validate_dataset(X, Y, folds=4, fold_seed=s), grid=grid)
             for s in range(6)}
    assert len(picks) == 1


def test_cv_insufficient_rows():
    ds = validate_dataset(np.ones((3, 1)), np.ones(3), folds=5)
    with pytest.raises(InsufficientData):
        cross_validate_lambda(ds, grid=np.array([0.1]))


def test_cv_grid_validation():
    ds = validate_dataset(np.ones((20, 1)), np.ones(20), folds=10)
    with pytest.raises(ValueError):
        cross_validate_lambda(ds, grid=np.array([]))
    for grid, message in (([0.1, -0.2], "got -0.2 at index 1"),
                          ([0.3, float("nan"), 0.1], "got nan at index 1"),
                          ([float("inf"), 0.1], "got inf at index 0")):
        with pytest.raises(ValueError,
                           match=re.escape(f"grid values must be positive and finite, {message}")):
            cross_validate_lambda(ds, grid=np.array(grid))
    with pytest.raises(ValueError, match="folds must be at least 2"):
        validate_dataset(np.ones((20, 1)), np.ones(20), folds=1)


def test_cv_tie_breaks_to_larger_lambda():
    # duplicate grid values force an exact tie
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 2))
    ds = validate_dataset(X, rng.standard_normal(30), folds=5)
    lam = cross_validate_lambda(ds, grid=np.array([0.2, 0.2]))
    assert lam == 0.2


def reference_folds(n, folds, seed):
    # the rows of each fold, as the dataset assigns them
    labels = fold_labels_reference(n, folds, seed)
    return [np.flatnonzero(labels == k) for k in range(folds)]


def cv_rows(case, seed):
    # 40 x 4; "duplicate_rows" holds every row twice
    rng = np.random.default_rng(seed)
    if case == "duplicate_rows":
        X = np.tile(rng.standard_normal((20, 4)), (2, 1))
    else:
        X = rng.standard_normal((40, 4))
    Y = X @ np.array([1.5, 0.0, -0.7, 0.0])
    if case in ("noisy", "duplicate_rows"):
        Y = Y + 0.8 * rng.standard_normal(40)
    if case == "zero_response":
        Y = np.zeros(40)
    return X, Y


CV_CASES = [(case, s) for case in ("noisy", "duplicate_rows", "exact_fit") for s in range(6)] \
    + [("zero_response", 0), ("noisy", 100)]


@pytest.mark.parametrize("case, seed", CV_CASES[::3])
def test_cv_gram_errors_match_direct_residuals(case, seed):
    X, Y = cv_rows(case, seed)
    folds = 5 + seed % 6
    ds = validate_dataset(X, Y, folds=folds, fold_seed=seed)
    G, c, sizes, yy = ds.fold_gram, ds.fold_xty, ds.fold_n, ds.yty
    chunks = reference_folds(ds.n, folds, seed)
    assert sizes.tolist() == [idx.size for idx in chunks]
    total = float(Y @ Y)
    assert yy == pytest.approx(total, rel=1e-12, abs=0.0)
    rng = np.random.default_rng(seed)
    Qs = (ds.gram * ds.n - G) / (ds.n - sizes)[:, None, None]
    Bs = (ds.xty * ds.n - c) / (ds.n - sizes)[:, None]
    lam = 0.1 * float(np.abs(Bs).max()) + 1e-3  # leaves some coordinates active
    fitted = _lasso_paths(Qs, Bs, np.array([lam]))[:, 0]
    for U in (fitted, rng.standard_normal((folds, ds.p)), np.zeros((folds, ds.p))):
        direct = cv_errors_reference(X, Y, chunks, U)
        pooled = yy + float(_held_out_error(U[:, None], G, c)[0])
        # rounding scales with the larger of the cancelling terms
        assert abs(pooled - direct) <= 1e-10 * max(total, direct)


def random_fold_problems(rng, folds, p, n_tr, duplicate):
    # fold Grams X_k'X_k/n_tr and cross products X_k'y_k/n_tr; n_tr < p or a
    # duplicated column makes the Grams singular
    Qs = np.empty((folds, p, p))
    Bs = np.empty((folds, p))
    theta = rng.standard_normal(p)
    for k in range(folds):
        X = rng.standard_normal((n_tr, p))
        if duplicate:
            X[:, -1] = X[:, 0]
        y = X @ theta + rng.standard_normal(n_tr)
        Qs[k] = X.T @ X / n_tr
        Bs[k] = X.T @ y / n_tr
    return Qs, Bs


@hyp_settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       folds=st.integers(min_value=1, max_value=4),
       p=st.integers(min_value=1, max_value=6),
       shape=st.sampled_from(["tall", "short", "duplicate"]),
       frac=st.floats(min_value=0.01, max_value=1.2),
       warm=st.booleans())
# a rank-2 fold at p = 4 whose numerically singular Newton system once gave
# a step of size 1e16 with matching signs, taken again after every sweep
@example(seed=224561, folds=3, p=4, shape="short", frac=0.03125, warm=False)
def test_cv_path_step_matches_cd_reference(seed, folds, p, shape, frac, warm):
    # each fold's path read at lam, or at 1.5*lam then lam, against
    # coordinate descent from zero or from its solution at 1.5*lam
    rng = np.random.default_rng(seed)
    n_tr = int(rng.integers(1, p)) if shape == "short" and p > 1 else p + 5
    Qs, Bs = random_fold_problems(rng, folds, p, n_tr, shape == "duplicate" and p > 1)
    lam = frac * 2.0 * float(np.abs(Bs).max())
    lams = np.array([1.5 * lam, lam] if warm else [lam])
    tol = 1e-12
    U0 = cd_multi_reference(Qs, Bs, 1.5 * lam, np.zeros((folds, p)), tol, 100_000) \
        if warm else np.zeros((folds, p))
    ref = cd_multi_reference(Qs, Bs, lam, U0, tol, 100_000)
    U = _lasso_paths(Qs, Bs, lams)[:, -1]
    zero = np.zeros(p)
    for k in range(folds):
        assert kkt_batch_reference(Qs[k], Bs[k:k + 1], lam, zero, U[k:k + 1])[0] <= tol
        f_new = objective(Qs[k], Bs[k], lam, zero, U[k])
        f_ref = objective(Qs[k], Bs[k], lam, zero, ref[k])
        # rounding scales with the larger of the cancelling terms
        scale = max(abs(u @ Qs[k] @ u) + 2.0 * abs(u @ Bs[k]) + lam * np.abs(u).sum()
                    for u in (U[k], ref[k]))
        assert abs(f_new - f_ref) <= 1e-12 * scale


@hyp_settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       folds=st.integers(min_value=1, max_value=4),
       p=st.integers(min_value=1, max_value=6),
       shape=st.sampled_from(["tall", "short", "duplicate"]),
       frac=st.floats(min_value=0.01, max_value=1.2))
@example(seed=224561, folds=3, p=4, shape="short", frac=0.03125)
def test_joint_fold_walk_matches_per_fold_reference(seed, folds, p, shape, frac):
    # every row of the joint walk of all folds against the same fold's own
    # walk, with one linear solve per kink, on a grid from above the
    # full-shrinkage threshold down to frac times it
    rng = np.random.default_rng(seed)
    n_tr = int(rng.integers(1, p)) if shape == "short" and p > 1 else p + 5
    Qs, Bs = random_fold_problems(rng, folds, p, n_tr, shape == "duplicate" and p > 1)
    lams = 2.0 * float(np.abs(Bs).max()) * np.geomspace(1.2, frac, num=6)
    U = _lasso_paths(Qs, Bs, lams)
    assert U.shape == (folds, lams.size, p)
    zero = np.zeros(p)
    for k in range(folds):
        ref = lasso_path_reference(Qs[k], Bs[k], lams)
        for g, lam in enumerate(lams):
            u, v = U[k, g], ref[g]
            assert kkt_batch_reference(Qs[k], Bs[k:k + 1], lam, zero, u[None])[0] <= 1e-12
            # rounding scales with the larger of the cancelling terms
            scale = max(abs(w @ Qs[k] @ w) + 2.0 * abs(w @ Bs[k]) + lam * np.abs(w).sum()
                        for w in (u, v))
            f_joint, f_ref = (objective(Qs[k], Bs[k], lam, zero, w) for w in (u, v))
            assert abs(f_joint - f_ref) <= 1e-12 * scale


def test_cv_degenerate_fold_gram_names_its_fold():
    # the last column is nonzero only on fold 3's held-out rows, so fold 3's
    # training Gram has a zero diagonal entry; no other fold's has
    rng = np.random.default_rng(7)
    X = rng.standard_normal((50, 4))
    X[fold_labels_reference(50, 5, 7) != 3, 3] = 0.0
    ds = validate_dataset(X, X @ np.array([1.0, -0.5, 0.0, 0.0]) + rng.standard_normal(50),
                          folds=5, fold_seed=7)
    with pytest.raises(DegenerateDiagonal,
                       match=re.escape("CV path at lambda[0]=9.311e-01, fold 3: "
                                       "Q has a nonpositive diagonal entry")):
        cross_validate_lambda(ds)


def test_cv_no_convergence_names_grid_point_and_folds(monkeypatch):
    rng = np.random.default_rng(8)
    X = rng.standard_normal((60, 4))
    ds = validate_dataset(X, X @ np.array([1.0, 0.0, -0.5, 0.0]) + 0.3 * rng.standard_normal(60),
                          folds=5)
    grid = default_lambda_grid(ds, num=8)
    # no path solution is certified at 1e-300 unless exactly 0, so the
    # first nonzero one goes to a polish that gets one sweep
    solver_limits(monkeypatch, tol=1e-300, max_sweeps=1)
    with pytest.raises(NoConvergence) as exc:
        # given ascending, the index still counts in the descending grid
        cross_validate_lambda(ds, grid=grid[::-1])
    msg = str(exc.value)
    m = re.match(r"CV path at lambda\[(\d+)\]=(\S+), fold (\d+): residual .* after 1 sweeps$", msg)
    assert m, msg
    assert m.group(2) == f"{grid[int(m.group(1))]:.3e}"
    assert 0 <= int(m.group(3)) < 5, msg


def test_cv_on_dataset_without_folds_names_the_cause():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((30, 3))
    with pytest.raises(InsufficientData, match="no CV folds: build it with folds >= 2"):
        cross_validate_lambda(validate_dataset(X, rng.standard_normal(30)))


def short_wide_dataset(n, p, seed):
    # n < p: every training fold's Gram is singular; three signals
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    theta = np.zeros(p)
    theta[:3] = (2.0, -1.5, 1.0)
    return X, X @ theta + rng.standard_normal(n)


@pytest.mark.parametrize("n, p", [(40, 60), (30, 80)])
def test_cv_and_center_certified_when_n_below_p(monkeypatch, n, p):
    X, Y = short_wide_dataset(n, p, seed=n)
    ds = validate_dataset(X, Y, folds=10, fold_seed=n)
    paths = []
    lasso_paths = projection._lasso_paths

    def recording_paths(Qs, Bs, lams):
        U = lasso_paths(Qs, Bs, lams)
        paths.append((Qs, Bs, lams, U.copy()))
        return U

    def no_polish(*args):
        raise AssertionError("a path solution needed coordinate descent")

    monkeypatch.setattr(projection, "_lasso_paths", recording_paths)
    monkeypatch.setattr(projection, "_solve", no_polish)
    lam = cross_validate_lambda(ds)
    center = fit_lasso(ds, 0.5 * lam)
    # one joint walk of the ten folds, then the center's walk alone
    assert [Bs.shape[0] for _, Bs, _, _ in paths] == [10, 1]
    zero = np.zeros(p)
    for Qs, Bs, lams, U in paths:
        worst = max(kkt_batch_reference(Qs[k], Bs[k:k + 1], lam_i, zero, U[k, i:i + 1])[0]
                    for k in range(Bs.shape[0]) for i, lam_i in enumerate(lams))
        assert worst <= projection.TOL
    np.testing.assert_array_equal(center, paths[-1][3][0, 0])
    assert np.count_nonzero(center) <= n


@pytest.mark.parametrize("case, seed", CV_CASES)
def test_cv_choice_matches_direct_residual_reference(case, seed):
    # reference: exact fold solutions by sign enumeration on Grams built from
    # the training rows, scored on the held-out rows
    X, Y = cv_rows(case, seed)
    folds = 5 + seed % 6
    ds = validate_dataset(X, Y, folds=folds, fold_seed=seed)
    grid = default_lambda_grid(ds, num=15)
    chunks = reference_folds(ds.n, folds, seed)
    errs = []
    for lam in grid:
        U = np.empty((folds, ds.p))
        for k, idx in enumerate(chunks):
            train = np.setdiff1d(np.arange(ds.n), idx)
            Xtr, Ytr = X[train], Y[train]
            U[k], _ = enumerate_min(Xtr.T @ Xtr / train.size, Xtr.T @ Ytr / train.size,
                                    float(lam), np.zeros(ds.p))
        errs.append(cv_errors_reference(X, Y, chunks, U))
    errs = np.array(errs)
    expected = grid[errs <= errs.min()].max()
    assert cross_validate_lambda(ds, grid=grid) == expected


def test_default_grid_shape():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((25, 3))
    ds = validate_dataset(X, rng.standard_normal(25))
    grid = default_lambda_grid(ds)
    assert grid.size == 100
    assert grid[0] == pytest.approx(2.0 * np.abs(ds.xty).max())
    assert grid[-1] == pytest.approx(grid[0] * 1e-3)
    assert np.all(np.diff(grid) < 0)
    zero_ds = validate_dataset(np.ones((4, 1)), np.zeros(4))
    assert default_lambda_grid(zero_ds)[0] == 1.0
