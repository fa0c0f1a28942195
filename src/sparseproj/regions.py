"""Credible regions from projected posterior draws.

A region is a ball {u : ||sqrt(n)(u - center)||_K <= r} around the LASSO
center in one of the Minkowski-functional norms (max, Euclidean, l1, single
component, or a rectangle over an index set).  The radius is the smallest
observed distance whose empirical mass reaches the requested level, the
finite-sample analogue of the quantile definition in the theory.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .types import NormSelector, frozen_copy


@dataclass(frozen=True)
class ProjectedSample:
    """A batch of projected draws with their center and sample size.

    draws holds the R sparse coefficient vectors as an (R, p) matrix; center
    is the LASSO estimate the radii are measured from; level is the default
    credibility used when a region is built without an explicit override.
    """

    draws: np.ndarray
    center: np.ndarray
    n: int
    level: float

    def __post_init__(self):
        draws = np.atleast_2d(frozen_copy(self.draws))
        center = frozen_copy(self.center).ravel()
        if draws.shape[0] < 2:
            raise ValueError("need at least 2 draws")
        if draws.shape[1] != center.shape[0]:
            raise ValueError("draws and center disagree on p")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        if self.n < 1:
            raise ValueError("n must be positive")
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "center", center)

    @property
    def count(self) -> int:
        return self.draws.shape[0]

    @property
    def p(self) -> int:
        return self.draws.shape[1]


def minkowski_norms(M: np.ndarray, selector: NormSelector) -> np.ndarray:
    """Evaluate the selected norm over the last axis of M, for any leading
    shape; a single vector gives a 0-d result."""
    p = M.shape[-1]
    if selector.kind == "max":
        return np.abs(M).max(axis=-1)
    if selector.kind == "euclidean":
        return np.sqrt((M * M).sum(axis=-1))
    if selector.kind == "l1":
        return np.abs(M).sum(axis=-1)
    if selector.kind == "component":
        if selector.index >= p:
            raise ValueError(f"component {selector.index} out of range for p = {p}")
        return np.abs(M[..., selector.index])
    idx = list(selector.indices)
    if max(idx) >= p:
        raise ValueError(f"rectangle indices {idx} out of range for p = {p}")
    return np.abs(M[..., idx]).max(axis=-1)


def minkowski_norm(x: np.ndarray, selector: NormSelector) -> float:
    """Evaluate the selected norm at a single vector."""
    return float(minkowski_norms(np.asarray(x, dtype=float).ravel(), selector))


def _distances(sample: ProjectedSample, selector: NormSelector) -> np.ndarray:
    return minkowski_norms(math.sqrt(sample.n) * (sample.draws - sample.center), selector)


def _rank(R: int, level: float) -> int:
    """1-based rank of the order statistic at level among R distances."""
    if not 0.0 < level <= 1.0:
        raise ValueError("level must lie in (0, 1]")
    rank = int(math.ceil(R * level - 1e-9))  # guard fp dust in R*level
    return min(max(rank, 1), R)


def radius_quantile(sample: ProjectedSample, selector: NormSelector,
                    level: float | None = None) -> float:
    """Smallest observed distance with empirical mass at or above level.

    Distances are ||sqrt(n)(draw - center)||_K.  With R draws this is the
    order statistic at rank ceil(R * level); ties only lower the radius to
    the same value.  Warns when the radius degenerates to 0 (more than a
    level-fraction of draws sit exactly at the center).
    """
    level = sample.level if level is None else level
    rank = _rank(sample.count, level)
    r = float(np.sort(_distances(sample, selector))[rank - 1])
    if r == 0.0:
        _warn_degenerate()
    return r


def _warn_degenerate() -> None:
    warnings.warn("credible radius degenerated to 0: at least a level-"
                  "fraction of draws coincide with the center", UserWarning,
                  stacklevel=3)


def component_interval(sample: ProjectedSample, j: int,
                       level: float | None = None) -> tuple[float, float]:
    """Credible interval for coordinate j: center_j +/- radius/sqrt(n), with
    the half-width read off the unscaled distances as in
    component_intervals."""
    if not 0 <= j < sample.p:
        raise ValueError(f"component {j} out of range for p = {sample.p}")
    level = sample.level if level is None else level
    c = float(sample.center[j])
    half = float(np.sort(np.abs(sample.draws[:, j] - c))[_rank(sample.count, level) - 1])
    if half == 0.0:
        _warn_degenerate()
    return (c - half, c + half)


def component_intervals(sample: ProjectedSample, levels: Sequence[float] | np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Credible intervals for all p coordinates in one pass.

    levels[j] is coordinate j's level.  Returns (lo, hi, degenerate): the
    same bounds as component_interval(sample, j, levels[j]) for every j, and
    a mask of the coordinates whose radius is 0, in place of its warning.
    The distances are formed and sorted once for all coordinates.

    The half-width is the order statistic of |draw_j - center_j| itself, the
    radius/sqrt(n) of the sqrt(n)-scaled ball without the scaling's
    rounding.  So when the draw that sets the radius is an exact zero, the
    endpoint on its side is exactly 0 (center_j - |center_j| or
    center_j + |center_j|), and a zero true coefficient on that boundary is
    covered whatever the center's last bits are.
    """
    if len(levels) != sample.p:
        raise ValueError(f"got {len(levels)} levels for p = {sample.p}")
    ranks = np.array([_rank(sample.count, float(lv)) for lv in levels])
    d = np.sort(np.abs(sample.draws - sample.center), axis=0)
    half = d[ranks - 1, np.arange(sample.p)]
    return sample.center - half, sample.center + half, half == 0.0


def rectangle_levels(k: int, joint_level: float) -> float:
    """Per-component level that makes a k-fold rectangle reach joint_level."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0.0 < joint_level < 1.0:
        raise ValueError("joint_level must lie in (0, 1)")
    return float(joint_level ** (1.0 / k))


def model_probabilities(sample: ProjectedSample) -> dict[frozenset[int], float]:
    """Empirical frequency of each distinct support among the draws."""
    counts: dict[frozenset[int], int] = {}
    for row in sample.draws:
        support = frozenset(np.nonzero(row)[0].tolist())
        counts[support] = counts.get(support, 0) + 1
    R = sample.count
    return {s: c / R for s, c in counts.items()}
