"""Componentwise credible intervals and support frequencies from projected
posterior draws.

Coordinate j's interval is center_j +/- h_j around the LASSO center, where
h_j is the smallest observed |draw_j - center_j| whose empirical mass
reaches the level: the order statistic at rank ceil(R * level) among the R
draws, the finite-sample analogue of the quantile definition in the theory
(the sqrt(n) scaling of the theory's ball cancels).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np


def _rank(R: int, level: float) -> int:
    """1-based rank of the order statistic at level among R distances."""
    if not 0.0 < level <= 1.0:
        raise ValueError("level must lie in (0, 1]")
    rank = int(math.ceil(R * level - 1e-9))  # guard fp dust in R*level
    return min(max(rank, 1), R)


def _draw_shape(draws: np.ndarray, center: np.ndarray) -> tuple[int, int]:
    """(R, p) of an (R, p) draw matrix, checked against its length-p center."""
    if draws.ndim != 2 or draws.shape[0] < 2:
        raise ValueError(f"need an (R, p) matrix of at least 2 draws, got shape {draws.shape}")
    if center.shape != draws.shape[1:]:
        raise ValueError(f"draws have p = {draws.shape[1]}, center has shape {center.shape}")
    return draws.shape


def component_interval(draws: np.ndarray, center: np.ndarray, j: int,
                       level: float) -> tuple[float, float]:
    """Credible interval for coordinate j alone at level: the bounds that
    component_intervals gives it, with lo == hi when it is degenerate."""
    R, p = _draw_shape(draws, center)
    if not 0 <= j < p:
        raise ValueError(f"component {j} out of range for p = {p}")
    c = float(center[j])
    half = float(np.sort(np.abs(draws[:, j] - c))[_rank(R, level) - 1])
    return (c - half, c + half)


def component_intervals(draws: np.ndarray, center: np.ndarray,
                        levels: Sequence[float] | np.ndarray, *,
                        work: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Credible intervals for all p coordinates of the (R, p) draws in one
    pass.

    levels[j] is coordinate j's level.  Returns (lo, hi, degenerate): the
    same bounds as component_interval(draws, center, j, levels[j]) for every
    j, and a mask of the coordinates whose half-width is 0.  The distances
    are formed and sorted once, in one (R, p) work buffer: work, an array
    that a caller reuses, or a fresh one.

    The half-width is the order statistic of |draw_j - center_j| itself, not
    a sqrt(n)-scaled radius divided by sqrt(n).  So when the draw that sets
    it is an exact zero, the endpoint on its side is exactly 0
    (center_j - |center_j| or center_j + |center_j|), and a zero true
    coefficient on that boundary is covered whatever the center's last bits
    are.
    """
    R, p = _draw_shape(draws, center)
    if len(levels) != p:
        raise ValueError(f"got {len(levels)} levels for p = {p}")
    ranks = np.array([_rank(R, float(lv)) for lv in levels])
    d = np.subtract(draws, center, out=work)
    np.abs(d, out=d)
    d.sort(axis=0)
    half = d[ranks - 1, np.arange(p)]
    return center - half, center + half, half == 0.0


def model_probabilities(draws: np.ndarray) -> dict[frozenset[int], float]:
    """Empirical frequency of each distinct support among the rows of draws."""
    counts: dict[frozenset[int], int] = {}
    for row in draws:
        support = frozenset(np.nonzero(row)[0].tolist())
        counts[support] = counts.get(support, 0) + 1
    R = draws.shape[0]
    return {s: c / R for s, c in counts.items()}
