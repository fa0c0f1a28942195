"""Conjugate normal-inverse-gamma posterior for the regression coefficients.

Given Y = X theta + eps with eps ~ N(0, sigma^2 I), a N(0, (sigma^2/a_n) I)
prior on theta and an inverse-gamma prior on sigma^2, the posterior factors
as

    sigma^-2 | Y            ~ Gamma(b1 + n/2, b2 + resid/2)
    theta | (Y, sigma)      ~ N(m, sigma^2 (X'X + a_n I)^-1)

with m the ridge mean.  Sampling goes through the Cholesky factor L of the
precision matrix: theta = m + sigma * L^-T z.

factorize forms L^-T once, as numpy.linalg.solve(L', I).  That solve runs
an LU factorization first, but on an upper-triangular matrix (L' here) the
LU does no row exchange and has zero multipliers, so each column is plain
back substitution.  A batch of draws is then one matrix product of its
normals with L^-1, with no solve per call.  Each column of the computed
inverse solves a slightly perturbed L', so the draws differ from a
triangular solve per draw by a relative amount of order p eps cond(L')
(Higham 2002, ch. 8 and 14).  The lower solve for the ridge mean is made
upper by reversing the order of the rows and the columns; it agrees with
forward substitution to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem
from .types import Dataset, PriorConfig, frozen_copy


@dataclass(frozen=True)
class PosteriorFactorization:
    """Everything sampling needs: ridge mean, lower Cholesky factor L of the
    precision X'X + a_n I, its inverse transpose L^-T and the gamma
    parameters of the sigma^-2 law."""

    ridge_mean: np.ndarray
    precision_chol: np.ndarray
    chol_inv_t: np.ndarray
    gamma_shape: float
    gamma_rate: float

    def __post_init__(self):
        for name in ("ridge_mean", "precision_chol", "chol_inv_t"):
            object.__setattr__(self, name, frozen_copy(getattr(self, name)))


def factorize(dataset: Dataset, prior: PriorConfig) -> PosteriorFactorization:
    """Factor the posterior for a dataset under the given prior.

    Works entirely from the accumulated cross products: the precision is
    n*gram + a_n I, the ridge mean solves it against n*xty, and the gamma
    rate uses the residual identity b2 + (Y'Y - Y'X m)/2.

    Raises SingularSystem when the precision is not positive definite
    (possible only with a_n = 0 and rank-deficient X).
    """
    n, p = dataset.n, dataset.p
    precision = n * dataset.gram + prior.a_n * np.eye(p)
    try:
        chol = np.linalg.cholesky(precision)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("X'X + a_n I is not positive definite") from exc
    xty_full = n * dataset.xty
    # L h = n X'Y as the upper system J L J (J h) = J n X'Y, J the reversal
    half = np.linalg.solve(chol[::-1, ::-1], xty_full[::-1])[::-1]
    ridge_mean = np.linalg.solve(chol.T, half)
    gamma_rate = prior.b2 + 0.5 * (dataset.yty - float(xty_full @ ridge_mean))
    gamma_rate = max(gamma_rate, 0.0)  # clip fp dust when Y lies in span(X)
    gamma_shape = prior.b1 + 0.5 * n
    return PosteriorFactorization(
        ridge_mean=ridge_mean,
        precision_chol=chol,
        chol_inv_t=np.linalg.solve(chol.T, np.eye(p)),
        gamma_shape=float(gamma_shape),
        gamma_rate=float(gamma_rate),
    )


def sample_posterior_arrays(
    fact: PosteriorFactorization, count: int, seed: int, *,
    out: np.ndarray | None = None, normals: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (thetas, sigmas) as arrays of shape (count, p) and (count,).

    The draws read one RNG stream keyed by (seed, 0): the count gamma draws
    of sigma^-2 first, then the normals Z, drawn into normals, so they
    depend on the seed alone.  thetas is Z L^-1, one matrix product, scaled
    and shifted in place.

    out and normals are C-contiguous float64 (count, p) arrays that a caller
    reuses across calls; thetas is then out, and normals is overwritten.
    Each defaults to a fresh array.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if fact.gamma_shape <= 0 or fact.gamma_rate <= 0:
        raise SingularSystem(
            "sigma posterior is degenerate (gamma_shape and gamma_rate must be positive)"
        )
    inv = fact.chol_inv_t.T  # L^-1: a row z of normals maps to (L^-T z')'
    p = inv.shape[0]
    for name, buf in (("out", out), ("normals", normals)):
        if buf is not None and not (isinstance(buf, np.ndarray) and buf.dtype == np.float64
                                    and buf.shape == (count, p) and buf.flags.c_contiguous):
            raise ValueError(f"{name} must be a C-contiguous float64 ({count}, {p}) array")
    thetas = np.empty((count, p)) if out is None else out
    Z = np.empty((count, p)) if normals is None else normals
    sigmas = np.empty(count)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0)))
    tau = rng.gamma(fact.gamma_shape, 1.0 / fact.gamma_rate, size=count)
    rng.standard_normal(out=Z)
    np.power(tau, -0.5, out=sigmas)
    np.matmul(Z, inv, out=thetas)
    thetas *= sigmas[:, None]
    thetas += fact.ridge_mean
    return thetas, sigmas
