"""Conjugate posterior factorization and sampling.

Oracle: the ridge mean is checked against a dense np.linalg.solve, and the
gamma rate against the residual identity
    rate = b2 + (||Y - X m||^2 + a_n ||m||^2) / 2,
which is algebraically equal to the Y'Y - Y'X m form used in the code but
computed along a different path.
"""

import re

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from sparseproj.errors import SingularSystem
from sparseproj.posterior import (
    PosteriorFactorization,
    factorize,
    sample_posterior_arrays,
)
from sparseproj.types import PriorConfig, validate_dataset


def make_rows(n=50, p=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    Y = X @ rng.standard_normal(p) + rng.standard_normal(n)
    return X, Y


def make_dataset(n=50, p=3, seed=0):
    return validate_dataset(*make_rows(n, p, seed))


def test_identity_design_flat_prior_recovers_y():
    Y = np.array([1.0, 2.0, 3.0])
    ds = validate_dataset(np.eye(3), Y)
    fact = factorize(ds, PriorConfig(a_n=0.0))
    np.testing.assert_allclose(fact.ridge_mean, Y, atol=1e-12)
    # perfect fit: the residual is zero, so the rate clips to exactly 0
    assert fact.gamma_rate == 0.0
    assert fact.gamma_shape == 1.5


def test_zero_design_gives_prior_gamma_parameters():
    ds = validate_dataset(np.zeros((2, 1)), np.array([1.0, 1.0]))
    fact = factorize(ds, PriorConfig(a_n=1.0))
    np.testing.assert_allclose(fact.ridge_mean, [0.0])
    assert fact.gamma_shape == pytest.approx(1.0)
    assert fact.gamma_rate == pytest.approx(1.0)


def test_ridge_mean_matches_dense_solve():
    X, Y = make_rows()
    ds = validate_dataset(X, Y)
    for a_n in (0.0, 1.0, 17.3):
        fact = factorize(ds, PriorConfig(a_n=a_n))
        expected = np.linalg.solve(X.T @ X + a_n * np.eye(ds.p), X.T @ Y)
        np.testing.assert_allclose(fact.ridge_mean, expected, atol=1e-10)


def test_ridge_mean_matches_two_triangular_solves():
    # oracle: forward then back substitution on the precision's Cholesky factor
    for n, p, seed in ((50, 3, 0), (80, 20, 1), (300, 100, 2)):
        ds = make_dataset(n=n, p=p, seed=seed)
        for a_n in (0.0, 1.0, 17.3):
            fact = factorize(ds, PriorConfig(a_n=a_n))
            L = fact.precision_chol
            half = solve_triangular(L, ds.n * ds.xty, lower=True)
            expected = solve_triangular(L.T, half, lower=False)
            np.testing.assert_allclose(fact.ridge_mean, expected, rtol=1e-12)


def test_gamma_rate_residual_identity():
    X, Y = make_rows(seed=5)
    ds = validate_dataset(X, Y)
    prior = PriorConfig(a_n=2.0, b1=0.5, b2=0.25)
    fact = factorize(ds, prior)
    m = fact.ridge_mean
    resid = Y - X @ m
    expected = prior.b2 + 0.5 * (resid @ resid + prior.a_n * (m @ m))
    assert fact.gamma_rate == pytest.approx(expected, rel=1e-12)
    assert fact.gamma_shape == pytest.approx(prior.b1 + ds.n / 2)


def test_precision_cholesky_reconstructs():
    ds = make_dataset(seed=9)
    fact = factorize(ds, PriorConfig(a_n=3.0))
    L = fact.precision_chol
    np.testing.assert_allclose(L @ L.T, ds.n * ds.gram + 3.0 * np.eye(ds.p), rtol=1e-12)
    assert np.all(np.diag(L) > 0)


def test_rank_deficient_flat_prior_raises():
    X = np.column_stack([np.ones(6), np.ones(6)])
    ds = validate_dataset(X, np.arange(6.0))
    with pytest.raises(SingularSystem):
        factorize(ds, PriorConfig(a_n=0.0))
    # any positive ridge rescues it
    factorize(ds, PriorConfig(a_n=1e-6))


def test_sampling_rejects_degenerate_sigma_law():
    ds = validate_dataset(np.eye(2), np.array([1.0, -1.0]))
    fact = factorize(ds, PriorConfig(a_n=0.0))  # perfect fit, rate 0
    with pytest.raises(SingularSystem):
        sample_posterior_arrays(fact, 10, seed=0)


def test_sampling_rejects_bad_count():
    fact = factorize(make_dataset(), PriorConfig())
    with pytest.raises(ValueError):
        sample_posterior_arrays(fact, 0, seed=0)


@pytest.mark.parametrize("name", ["out", "normals"])
@pytest.mark.parametrize("buf", [
    np.empty((10, 4)),  # wrong shape: numpy's matmul named no argument
    np.empty((3, 10)).T,  # (10, 3) but F-ordered
    np.empty((10, 3), dtype=np.float32),  # out rounded the draws to float32
    np.empty((10, 6))[:, ::2],  # (10, 3) but strided
    [[0.0] * 3] * 10,  # not an array
])
def test_sampling_rejects_bad_buffers(name, buf):
    fact = factorize(make_dataset(), PriorConfig())
    message = f"{name} must be a C-contiguous float64 (10, 3) array"
    with pytest.raises(ValueError, match=re.escape(message)):
        sample_posterior_arrays(fact, 10, seed=0, **{name: buf})


def test_sampling_deterministic():
    fact = factorize(make_dataset(seed=2), PriorConfig())
    t1, s1 = sample_posterior_arrays(fact, 64, seed=11)
    t2, s2 = sample_posterior_arrays(fact, 64, seed=11)
    np.testing.assert_array_equal(t1, t2)
    np.testing.assert_array_equal(s1, s2)
    t3, _ = sample_posterior_arrays(fact, 64, seed=12)
    assert not np.array_equal(t1, t3)


def test_moments_large_sample():
    ds = make_dataset(n=60, p=3, seed=7)
    fact = factorize(ds, PriorConfig(a_n=1.0))
    count = 100_000
    thetas, sigmas = sample_posterior_arrays(fact, count, seed=42)

    shape, rate = fact.gamma_shape, fact.gamma_rate
    # tau = sigma^-2 is Gamma(shape, rate): mean shape/rate, sd sqrt(shape)/rate
    tau = sigmas ** -2.0
    tau_se = np.sqrt(shape) / rate / np.sqrt(count)
    assert abs(tau.mean() - shape / rate) < 3 * tau_se

    sigma_cov = np.linalg.inv(ds.n * ds.gram + np.eye(ds.p))
    exp_sigma2 = rate / (shape - 1.0)
    theta_cov = exp_sigma2 * sigma_cov

    # posterior mean of theta equals the ridge mean
    se = np.sqrt(np.diag(theta_cov) / count)
    assert np.all(np.abs(thetas.mean(axis=0) - fact.ridge_mean) < 4 * se)

    # marginal covariance of theta is E[sigma^2] * (X'X + a_n I)^-1
    emp_cov = np.cov(thetas.T)
    np.testing.assert_allclose(emp_cov, theta_cov, rtol=0.05, atol=1e-4)

    # whitened displacements L'(theta - m)/sigma are iid standard normal
    L = fact.precision_chol
    w = ((thetas - fact.ridge_mean) @ L) / sigmas[:, None]
    assert np.all(np.abs(w.mean(axis=0)) < 4 / np.sqrt(count))
    assert np.all(np.abs(w.var(axis=0) - 1.0) < 0.03)
    off = np.cov(w.T) - np.eye(ds.p)
    assert np.max(np.abs(off)) < 0.03


def test_factorization_arrays_read_only():
    fact = factorize(make_dataset(), PriorConfig())
    with pytest.raises(ValueError):
        fact.ridge_mean[0] = 1.0
    with pytest.raises(ValueError):
        fact.precision_chol[0, 0] = 1.0


def test_whitening_matches_triangular_solve():
    # a single draw reproduced by hand from the factorization contract
    fact = factorize(make_dataset(seed=13), PriorConfig(a_n=0.5))
    rng = np.random.default_rng(np.random.SeedSequence((99, 0)))
    tau = rng.gamma(fact.gamma_shape, 1.0 / fact.gamma_rate, size=1)
    z = rng.standard_normal((1, 3))
    sigma = tau[0] ** -0.5
    disp = solve_triangular(fact.precision_chol.T, z[0], lower=False)
    expected = fact.ridge_mean + sigma * disp
    thetas, sigmas = sample_posterior_arrays(fact, 1, seed=99)
    np.testing.assert_allclose(thetas[0], expected, rtol=1e-12)
    assert sigmas[0] == pytest.approx(sigma, rel=1e-12)


def test_sampling_batch_matches_triangular_solve_oracle():
    # a whole 2000-draw batch against theta = m + sigma * L^-T z built from
    # the same stream with a triangular solver; the draws must be C-ordered,
    # since a product with a Fortran-ordered batch can round differently
    fact = factorize(make_dataset(n=200, p=20, seed=21), PriorConfig(a_n=1.0))
    count = 2000
    rng = np.random.default_rng(np.random.SeedSequence((7, 0)))
    tau = rng.gamma(fact.gamma_shape, 1.0 / fact.gamma_rate, size=count)
    z = rng.standard_normal((count, 20))
    sigma = tau ** -0.5
    disp = solve_triangular(fact.precision_chol.T, z.T, lower=False).T
    expected = fact.ridge_mean + sigma[:, None] * disp
    thetas, sigmas = sample_posterior_arrays(fact, count, seed=7)
    assert thetas.flags.c_contiguous
    np.testing.assert_allclose(thetas, expected, rtol=1e-12)
    np.testing.assert_array_equal(sigmas, sigma)


def test_sampling_accuracy_on_an_ill_conditioned_precision():
    # nearly collinear columns and a_n = 1e-8 make L' badly conditioned.  A
    # triangular solve per draw errs by at most gamma_p |L'^-1||L'||x| (Higham
    # 2002, Thm 8.5); the product with the computed inverse errs by gamma_p
    # (|L'^-1||L'| + I)|L'^-1||z| (each column of the inverse is such a solve,
    # then the GEMM).  In the infinity norm the two differ by at most
    # gamma_p (2 cond(L') + 1) ||L'^-1||z||, cond(L') = ||L'|| ||L'^-1||,
    # times sigma, plus a few roundings of the shared scale and shift
    rng = np.random.default_rng(5)
    n, p, count = 200, 20, 2000
    X = rng.standard_normal(n)[:, None] + 1e-5 * rng.standard_normal((n, p))
    Y = X @ np.linspace(-1.0, 1.0, p) + rng.standard_normal(n)
    fact = factorize(validate_dataset(X, Y), PriorConfig(a_n=1e-8))
    T = fact.precision_chol.T
    T_inv = solve_triangular(T, np.eye(p), lower=False)
    cond = np.linalg.norm(T, np.inf) * np.linalg.norm(T_inv, np.inf)
    assert cond > 1e5

    rng = np.random.default_rng(np.random.SeedSequence((3, 0)))
    rng.gamma(fact.gamma_shape, 1.0 / fact.gamma_rate, size=count)
    z = rng.standard_normal((count, p))
    thetas, sigmas = sample_posterior_arrays(fact, count, seed=3)
    scaled = sigmas[:, None] * solve_triangular(T, z.T, lower=False).T
    expected = fact.ridge_mean + scaled

    u = np.finfo(float).eps / 2
    gamma_p = p * u / (1 - p * u)
    reach = (np.abs(z) @ np.abs(T_inv).T).max(axis=1, keepdims=True)
    bound = (1.01 * gamma_p * (2 * cond + 1) * sigmas[:, None] * reach
             + 4 * u * (2 * np.abs(scaled) + np.abs(fact.ridge_mean) + np.abs(expected)))
    assert np.all(np.abs(thetas - expected) <= bound)
