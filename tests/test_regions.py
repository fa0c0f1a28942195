"""Credible intervals and model frequencies from projected draws."""

import warnings

import numpy as np
import pytest

from sparseproj.regions import (
    component_interval,
    component_intervals,
    model_probabilities,
)

from oracles import model_probabilities_reference


def sample_from_distances(values):
    """(R, 1) draws whose distances from the center 0 are exactly `values`."""
    return np.asarray(values, dtype=float)[:, None]


def radius_quantile(draws, level):
    """Credible radius of a 1-d sample centered at 0: the half-width of its
    component interval."""
    lo, hi = component_interval(draws, np.zeros(1), 0, level)
    assert lo == -hi
    return hi


# --- radius quantile ---------------------------------------------------------

def test_radius_quantile_order_statistic():
    s = sample_from_distances([0.0, 0.0, 0.0, 0.1, 0.2])
    assert radius_quantile(s, 0.8) == pytest.approx(0.1)
    # a level-fraction of draws at the center leaves a radius of exactly 0
    assert radius_quantile(sample_from_distances([0.0, 0.0, 0.0, 0.0, 1.0]), 0.8) == 0.0


def test_radius_quantile_level_one_is_max():
    s = sample_from_distances([0.3, 0.1, 0.5, 0.2])
    assert radius_quantile(s, level=1.0) == 0.5


def test_radius_quantile_monotone_in_level():
    rng = np.random.default_rng(1)
    s = sample_from_distances(rng.exponential(size=200))
    levels = [0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
    radii = [radius_quantile(s, level=l) for l in levels]
    assert all(radii[i + 1] >= radii[i] for i in range(len(radii) - 1))


def test_radius_quantile_mass_rule():
    # empirical mass at the radius >= level; mass strictly below it < level
    rng = np.random.default_rng(2)
    vals = rng.standard_normal(173)
    s = sample_from_distances(np.abs(vals))
    for level in (0.31, 0.5, 0.777, 0.95):
        r = radius_quantile(s, level=level)
        d = np.abs(vals)
        assert (d <= r).mean() >= level
        assert (d < r).mean() < level


def test_radius_quantile_normal_draws():
    rng = np.random.default_rng(3)
    s = sample_from_distances(np.abs(rng.standard_normal(100_000)))
    r = radius_quantile(s, 0.95)
    assert r == pytest.approx(1.95996, abs=0.02)


def test_radius_quantile_level_validation():
    s = sample_from_distances([0.1, 0.2])
    with pytest.raises(ValueError):
        radius_quantile(s, level=0.0)
    with pytest.raises(ValueError):
        radius_quantile(s, level=1.1)


# --- component_interval ------------------------------------------------------

def test_interval_degenerate_when_draws_equal_center():
    center = np.array([0.7, -0.2])
    draws = np.tile(center, (10, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a degenerate interval is a value, not a warning
        lo, hi = component_interval(draws, center, 0, 0.9)
    assert lo == hi == 0.7


def test_interval_symmetric_two_point():
    # draws at center_j +/- c, half each: any level <= 1 reaches the far point
    center = np.array([1.0])
    c = 0.3
    draws = np.array([[1.0 + c], [1.0 - c]] * 8)
    lo, hi = component_interval(draws, center, 0, 0.9)
    assert (lo, hi) == (pytest.approx(1.0 - c), pytest.approx(1.0 + c))
    lo, hi = component_interval(draws, center, 0, 0.4)
    assert (lo, hi) == (pytest.approx(1.0 - c), pytest.approx(1.0 + c))


def test_interval_uses_sqrt_n_rescale():
    draws = np.array([[0.0], [2.0], [2.0], [2.0]])
    lo, hi = component_interval(draws, np.zeros(1), 0, 0.75)
    # at n = 100 the distance quantile is sqrt(100)*2 = 20 and the half-width
    # 20/sqrt(100): the scaling cancels, so it is read off unscaled
    assert (lo, hi) == (-2.0, 2.0)


def test_interval_index_validation():
    s = sample_from_distances([0.1, 0.2])
    with pytest.raises(ValueError):
        component_interval(s, np.zeros(1), 1, 0.9)
    with pytest.raises(ValueError):
        component_interval(s, np.zeros(1), -1, 0.9)


@pytest.mark.parametrize("seed", range(6))
def test_component_intervals_equal_per_coordinate_calls(seed):
    # shrunk draws put exact zeros, ties and whole coordinates at the center;
    # levels near k/R exercise the rank's guard against fp dust in R*level
    rng = np.random.default_rng(seed)
    R, p = int(rng.integers(2, 60)), int(rng.integers(1, 8))
    center = rng.standard_normal(p) * (rng.random(p) < 0.7)
    draws = np.where(rng.random((R, p)) < 0.4, center, rng.standard_normal((R, p)))
    at_center = rng.random(p) < 0.3
    draws[:, at_center] = center[at_center]
    levels = rng.choice([0.5, 0.9, 0.95, 1.0, int(rng.integers(1, R + 1)) / R], size=p)
    lo, hi, degenerate = component_intervals(draws, center, levels.tolist())
    for j in range(p):
        assert component_interval(draws, center, j, levels[j]) == (lo[j], hi[j])
        assert degenerate[j] == (lo[j] == hi[j])


@pytest.mark.parametrize("center", [0.0928380279369452, -0.0928380279369452])
def test_zero_draw_on_the_boundary_puts_the_endpoint_at_zero(center):
    # the draw at 0 sets the radius; sqrt(500)*|c|/sqrt(500) rounds to |c|
    # plus one ulp here, which used to leave 0 just outside the interval
    draws = np.array([[center]] * 9 + [[0.0]])
    lo, hi, _ = component_intervals(draws, np.array([center]), [0.95])
    assert (lo[0], hi[0]) == component_interval(draws, np.array([center]), 0, 0.95)
    assert (lo[0] == 0.0) if center > 0 else (hi[0] == 0.0)
    assert hi[0] - lo[0] == 2.0 * abs(center)


def test_component_intervals_validation():
    s = sample_from_distances([0.1, 0.2])
    with pytest.raises(ValueError):
        component_intervals(s, np.zeros(1), [0.9, 0.9])
    with pytest.raises(ValueError):
        component_intervals(s, np.zeros(1), [1.1])


# --- model_probabilities -----------------------------------------------------

def test_model_probabilities_example():
    draws = np.array([
        [0.0, 0.0],
        [1.0, 0.0],
        [0.5, 0.0],
        [1.0, 2.0],
    ])
    probs = model_probabilities(draws)
    # the most frequent first, then the tie in order of first visit
    assert list(probs.items()) == [((0,), 0.5), ((), 0.25), ((0, 1), 0.25)]


def test_model_probabilities_single_support():
    draws = np.array([[1.0, 0.0]] * 6)
    assert model_probabilities(draws) == {(0,): 1.0}


@pytest.mark.parametrize("order", ["C", "F"])
def test_model_probabilities_match_frozenset_loop(order):
    # ties among supports and an all-zero row; F order is how fit_dataset
    # hands the projected draws over
    rng = np.random.default_rng(12)
    draws = rng.standard_normal((400, 5))
    draws[rng.random((400, 5)) < 0.6] = 0.0
    draws[7] = 0.0
    draws = np.asarray(draws, order=order)
    probs = model_probabilities(draws)
    expect = model_probabilities_reference(draws)
    assert list(probs.items()) == list(expect.items())
    counts = sorted(expect.values())
    assert () in probs and any(a == b for a, b in zip(counts, counts[1:]))


def test_model_probabilities_sum_to_one():
    rng = np.random.default_rng(4)
    draws = rng.standard_normal((500, 3))
    draws[rng.random((500, 3)) < 0.5] = 0.0
    probs = model_probabilities(draws)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(v > 0 for v in probs.values())


# --- draw-sample checks ------------------------------------------------------

def test_sample_validation():
    for draws, center in ((np.zeros((1, 2)), np.zeros(2)),   # one draw
                          (np.zeros((3, 2)), np.zeros(3)),   # center's p differs
                          (np.zeros(3), np.zeros(3))):       # not an (R, p) matrix
        with pytest.raises(ValueError):
            component_intervals(draws, center, [0.9] * center.size)
        with pytest.raises(ValueError):
            component_interval(draws, center, 0, 0.9)

