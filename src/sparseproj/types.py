"""Shared value types: datasets, the prior configuration, norm selectors.

All types are immutable after construction (frozen dataclasses with read-only
arrays) and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput


def frozen_copy(arr) -> np.ndarray:
    """A read-only float copy of arr, for the arrays of immutable types."""
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Design matrix and response with precomputed Gram quantities.

    gram is C_n = X'X/n and xty is X'Y/n; everything downstream of
    construction (ridge solve, projection, LASSO) touches only these
    normalized cross products, never X itself.
    """

    n: int
    p: int
    X: np.ndarray
    Y: np.ndarray
    gram: np.ndarray
    xty: np.ndarray

    def __post_init__(self):
        for name in ("X", "Y", "gram", "xty"):
            object.__setattr__(self, name, frozen_copy(getattr(self, name)))


def validate_dataset(X: np.ndarray, Y: np.ndarray) -> Dataset:
    """Check shapes and finiteness, then build a Dataset with gram and xty.

    Raises DimensionMismatch if rows(X) != len(Y), NonFiniteInput on any
    NaN or infinity.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float).ravel()
    n, p = X.shape
    if n < 1 or p < 1:
        raise DimensionMismatch(f"need n >= 1 and p >= 1, got X shape {X.shape}")
    if Y.shape[0] != n:
        raise DimensionMismatch(f"X has {n} rows but Y has {Y.shape[0]} entries")
    if not np.isfinite(X).all() or not np.isfinite(Y).all():
        raise NonFiniteInput("X or Y contains NaN or infinite entries")
    gram = (X.T @ X) / n
    gram = 0.5 * (gram + gram.T)  # exact symmetry against fp round-off
    xty = (X.T @ Y) / n
    return Dataset(n=n, p=p, X=X, Y=Y, gram=gram, xty=xty)


@dataclass(frozen=True)
class PriorConfig:
    """Prior hyperparameters: ridge-type precision a_n, inverse-gamma (b1, b2).

    Defaults a_n = 1, b1 = b2 = 0 are the non-informative choice; any
    a_n >= 0 is accepted (a_n = 0 requires full-rank X at factorization).
    """

    a_n: float = 1.0
    b1: float = 0.0
    b2: float = 0.0

    def __post_init__(self):
        if self.a_n < 0 or self.b1 < 0 or self.b2 < 0:
            raise ValueError("a_n, b1, b2 must all be nonnegative")


@dataclass(frozen=True)
class NormSelector:
    """Choice of Minkowski-functional norm for credible balls.

    kind is one of "max", "euclidean", "l1", "component", "rectangle".
    Component and rectangle indices are 0-based; bounds against p are
    checked at evaluation time.
    """

    kind: str
    index: int | None = None
    indices: tuple[int, ...] | None = None

    _KINDS = ("max", "euclidean", "l1", "component", "rectangle")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind == "component":
            if self.index is None or self.index < 0:
                raise ValueError("component selector needs a nonnegative index")
        elif self.kind == "rectangle":
            if not self.indices:
                raise ValueError("rectangle selector needs a nonempty index set")
            idx = tuple(int(j) for j in self.indices)
            if len(set(idx)) != len(idx) or min(idx) < 0:
                raise ValueError("rectangle indices must be distinct and nonnegative")
            object.__setattr__(self, "indices", idx)

    @classmethod
    def max_norm(cls) -> "NormSelector":
        return cls("max")

    @classmethod
    def euclidean(cls) -> "NormSelector":
        return cls("euclidean")

    @classmethod
    def l1(cls) -> "NormSelector":
        return cls("l1")

    @classmethod
    def component(cls, j: int) -> "NormSelector":
        return cls("component", index=int(j))

    @classmethod
    def rectangle(cls, indices) -> "NormSelector":
        return cls("rectangle", indices=tuple(int(j) for j in indices))
