"""Shared value types (datasets, the prior configuration and the accumulator
that builds a dataset from blocks of rows) and the worker-chunk map.

The value types are immutable after construction (frozen dataclasses with
read-only arrays) and safe to share across workers.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput


def frozen_copy(arr) -> np.ndarray:
    """A read-only float copy of arr, for the arrays of immutable types."""
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def map_chunks(task: Callable[[range], object], count: int, workers: int = 1) -> list:
    """[task(r) for r in contiguous ranges covering range(count)]: range(count)
    alone if workers <= 1, else about four per worker, in a process pool."""
    if workers <= 1:
        return [task(range(count))]
    from concurrent.futures import ProcessPoolExecutor
    chunks = min(count, 4 * workers)
    ends = [count * k // chunks for k in range(chunks + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, map(range, ends[:-1], ends[1:])))


@dataclass(frozen=True)
class Dataset:
    """Sufficient statistics of a regression dataset and of its CV folds.

    gram is C_n = X'X/n, xty is X'Y/n and yty is Y'Y.  Over the rows X_k,
    Y_k of cross-validation fold k (as DatasetAccumulator assigns rows),
    fold_gram[k] = X_k'X_k and fold_xty[k] = X_k'Y_k, unnormalized, and
    fold_n[k] is the row count; a dataset built without folds has K = 0.
    The posterior, the projection, the levels and CV read only these, so
    neither X nor Y is kept.
    """

    n: int
    p: int
    gram: np.ndarray
    xty: np.ndarray
    yty: float
    fold_gram: np.ndarray
    fold_xty: np.ndarray
    fold_n: np.ndarray

    def __post_init__(self):
        for name in ("gram", "xty", "fold_gram", "fold_xty"):
            object.__setattr__(self, name, frozen_copy(getattr(self, name)))
        fold_n = np.array(self.fold_n, dtype=np.int64, copy=True)
        fold_n.setflags(write=False)
        object.__setattr__(self, "fold_n", fold_n)
        object.__setattr__(self, "yty", float(self.yty))
        K, p = self.fold_n.size, self.p
        if (self.gram.shape != (p, p) or self.xty.shape != (p,)
                or self.fold_gram.shape != (K, p, p) or self.fold_xty.shape != (K, p)):
            raise DimensionMismatch("Dataset fields disagree with p and the fold count")


class DatasetAccumulator:
    """Running cross products of rows fed in blocks, split into CV folds.

    Only cross-validation reads the fold statistics, so its caller asks
    for them; with folds = 0 none are kept.  A row's fold comes from one
    stream seeded by (fold_seed, 0x5CF0): each run of `folds` consecutive
    rows takes a uniformly random permutation of 0..folds-1 (the stable
    argsort of `folds` uniform draws).  So fold sizes differ by at most one,
    and every row's fold, hence every statistic up to rounding, is the same
    for any split of the rows into blocks.  The total Gram is one X'X
    product per block, never a sum of fold Grams, so a dataset fed as one
    block gets the bits of X'X itself.  Nothing kept here grows with the
    number of rows.
    """

    def __init__(self, p: int, folds: int = 0, fold_seed: int = 0):
        if p < 1:
            raise DimensionMismatch(f"need p >= 1 predictors, got {p}")
        if folds < 0 or folds == 1:
            raise ValueError(f"folds must be at least 2, or 0 for none, got {folds}")
        self.p, self.folds, self.n = p, folds, 0
        if folds:
            self._rng = np.random.default_rng(np.random.SeedSequence((int(fold_seed), 0x5CF0)))
        self._pending = np.empty(0, dtype=np.intp)  # labels drawn for rows not yet fed
        self.xtx = np.zeros((p, p))
        self.xty = np.zeros(p)
        self.yty = 0.0
        self.fold_gram = np.zeros((folds, p, p))
        self.fold_xty = np.zeros((folds, p))
        self.fold_n = np.zeros(folds, dtype=np.int64)

    def _labels(self, rows: int) -> np.ndarray:
        """Fold labels of the next `rows` rows."""
        runs = -(-(rows - self._pending.size) // self.folds)
        fresh = np.argsort(self._rng.random((max(runs, 0), self.folds)), axis=1, kind="stable")
        labels = np.concatenate([self._pending, fresh.ravel()])
        self._pending = labels[rows:].copy()
        return labels[:rows]

    def add(self, X: np.ndarray, Y: np.ndarray) -> None:
        """Fold the (rows, p) block X and its responses Y into the sums."""
        if X.ndim != 2 or X.shape[1] != self.p:
            raise DimensionMismatch(f"block has shape {X.shape}, expected {self.p} columns")
        if Y.shape != (X.shape[0],):
            raise DimensionMismatch(f"X has {X.shape[0]} rows but Y has {Y.shape[0]} entries")
        self.xtx += X.T @ X
        self.xty += X.T @ Y
        self.yty += float(Y @ Y)
        self.n += X.shape[0]
        if not self.folds:
            return
        labels = self._labels(X.shape[0])
        order = np.argsort(labels, kind="stable")
        Xs, Ys = X[order], Y[order]
        counts = np.bincount(labels, minlength=self.folds)
        self.fold_n += counts
        ends = np.cumsum(counts)
        for k, (lo, hi) in enumerate(zip(ends - counts, ends)):
            Xk = Xs[lo:hi]
            self.fold_gram[k] += Xk.T @ Xk
            self.fold_xty[k] += Xk.T @ Ys[lo:hi]

    def dataset(self) -> Dataset:
        """The Dataset of every row fed so far."""
        if self.n < 1:
            raise DimensionMismatch("need n >= 1 rows, got 0")
        gram = self.xtx / self.n
        gram = 0.5 * (gram + gram.T)  # exact symmetry against fp round-off
        return Dataset(n=self.n, p=self.p, gram=gram, xty=self.xty / self.n, yty=self.yty,
                       fold_gram=self.fold_gram, fold_xty=self.fold_xty, fold_n=self.fold_n)


def validate_dataset(X: np.ndarray, Y: np.ndarray, folds: int = 0,
                     fold_seed: int = 0) -> Dataset:
    """Check finiteness, then build the Dataset of X and Y, fed as one block
    to a DatasetAccumulator with `folds` CV folds (0 for none) drawn from
    fold_seed.

    Raises NonFiniteInput on any NaN or infinity, and DimensionMismatch if
    X has no row or column or rows(X) != len(Y).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float).ravel()
    if not np.isfinite(X).all() or not np.isfinite(Y).all():
        raise NonFiniteInput("X or Y contains NaN or infinite entries")
    acc = DatasetAccumulator(X.shape[1], folds, fold_seed)
    acc.add(X, Y)
    return acc.dataset()


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
