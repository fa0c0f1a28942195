"""Credible-region construction: norms, radii, intervals, model frequencies."""

import warnings

import numpy as np
import pytest

from sparseproj.regions import (
    ProjectedSample,
    component_interval,
    component_intervals,
    minkowski_norm,
    model_probabilities,
    radius_quantile,
    rectangle_levels,
)
from sparseproj.types import NormSelector


def sample_from_distances(values, n=1, level=0.8):
    """1-d sample whose component-0 distances are exactly `values` (center 0)."""
    draws = np.asarray(values, dtype=float)[:, None]
    return ProjectedSample(draws=draws, center=np.zeros(1), n=n, level=level)


# --- minkowski_norm ----------------------------------------------------------

def test_norm_examples():
    x = np.array([3.0, -4.0])
    assert minkowski_norm(x, NormSelector.euclidean()) == 5.0
    assert minkowski_norm(x, NormSelector.component(1)) == 4.0
    assert minkowski_norm(np.array([1.0, -2.0, 0.5]), NormSelector.l1()) == 3.5
    assert minkowski_norm(x, NormSelector.max_norm()) == 4.0
    assert minkowski_norm(x, NormSelector.rectangle([0])) == 3.0
    assert minkowski_norm(x, NormSelector.rectangle([0, 1])) == 4.0


def test_norm_bounds_checked_at_evaluation():
    with pytest.raises(ValueError):
        minkowski_norm(np.ones(2), NormSelector.component(2))
    with pytest.raises(ValueError):
        minkowski_norm(np.ones(2), NormSelector.rectangle([0, 5]))


def test_norms_are_nonnegative_and_scale():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4)
    for sel in (NormSelector.max_norm(), NormSelector.euclidean(),
                NormSelector.l1(), NormSelector.component(2),
                NormSelector.rectangle([1, 3])):
        v = minkowski_norm(x, sel)
        assert v >= 0.0
        assert minkowski_norm(2.0 * x, sel) == pytest.approx(2.0 * v, rel=1e-12)
        assert minkowski_norm(np.zeros(4), sel) == 0.0


# --- radius_quantile ---------------------------------------------------------

def test_radius_quantile_order_statistic():
    s = sample_from_distances([0.0, 0.0, 0.0, 0.1, 0.2], level=0.8)
    assert radius_quantile(s, NormSelector.component(0)) == pytest.approx(0.1)


def test_radius_quantile_level_one_is_max():
    s = sample_from_distances([0.3, 0.1, 0.5, 0.2], level=0.5)
    assert radius_quantile(s, NormSelector.component(0), level=1.0) == 0.5


def test_radius_quantile_monotone_in_level():
    rng = np.random.default_rng(1)
    s = sample_from_distances(rng.exponential(size=200))
    sel = NormSelector.component(0)
    levels = [0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
    radii = [radius_quantile(s, sel, level=l) for l in levels]
    assert all(radii[i + 1] >= radii[i] for i in range(len(radii) - 1))


def test_radius_quantile_mass_rule():
    # empirical mass at the radius >= level; mass strictly below it < level
    rng = np.random.default_rng(2)
    vals = rng.standard_normal(173)
    s = sample_from_distances(np.abs(vals))
    sel = NormSelector.component(0)
    for level in (0.31, 0.5, 0.777, 0.95):
        r = radius_quantile(s, sel, level=level)
        d = np.abs(vals)
        assert (d <= r).mean() >= level
        assert (d < r).mean() < level


def test_radius_quantile_normal_draws():
    rng = np.random.default_rng(3)
    s = sample_from_distances(np.abs(rng.standard_normal(100_000)), level=0.95)
    r = radius_quantile(s, NormSelector.component(0))
    assert r == pytest.approx(1.95996, abs=0.02)


def test_radius_quantile_degenerate_warns():
    s = sample_from_distances([0.0, 0.0, 0.0, 0.0, 1.0], level=0.8)
    with pytest.warns(UserWarning):
        r = radius_quantile(s, NormSelector.component(0))
    assert r == 0.0


def test_radius_quantile_scales_with_sqrt_n():
    draws = np.array([[0.0], [1.0], [2.0], [3.0]])
    s1 = ProjectedSample(draws=draws, center=np.zeros(1), n=1, level=0.75)
    s4 = ProjectedSample(draws=draws, center=np.zeros(1), n=4, level=0.75)
    sel = NormSelector.component(0)
    assert radius_quantile(s4, sel) == pytest.approx(2.0 * radius_quantile(s1, sel))


def test_radius_quantile_level_validation():
    s = sample_from_distances([0.1, 0.2])
    with pytest.raises(ValueError):
        radius_quantile(s, NormSelector.component(0), level=0.0)
    with pytest.raises(ValueError):
        radius_quantile(s, NormSelector.component(0), level=1.1)


# --- component_interval ------------------------------------------------------

def test_interval_degenerate_when_draws_equal_center():
    center = np.array([0.7, -0.2])
    draws = np.tile(center, (10, 1))
    s = ProjectedSample(draws=draws, center=center, n=25, level=0.9)
    with pytest.warns(UserWarning):
        lo, hi = component_interval(s, 0)
    assert lo == hi == 0.7


def test_interval_symmetric_two_point():
    # draws at center_j +/- c, half each: any level <= 1 reaches the far point
    center = np.array([1.0])
    c = 0.3
    draws = np.array([[1.0 + c], [1.0 - c]] * 8)
    s = ProjectedSample(draws=draws, center=center, n=16, level=0.9)
    lo, hi = component_interval(s, 0)
    assert (lo, hi) == (pytest.approx(1.0 - c), pytest.approx(1.0 + c))
    lo, hi = component_interval(s, 0, level=0.4)
    assert (lo, hi) == (pytest.approx(1.0 - c), pytest.approx(1.0 + c))


def test_interval_uses_sqrt_n_rescale():
    draws = np.array([[0.0], [2.0], [2.0], [2.0]])
    s = ProjectedSample(draws=draws, center=np.zeros(1), n=100, level=0.75)
    lo, hi = component_interval(s, 0)
    # distance quantile is sqrt(100)*2 = 20, interval half-width 20/sqrt(100)
    assert (lo, hi) == (-2.0, 2.0)


def test_interval_index_validation():
    s = sample_from_distances([0.1, 0.2])
    with pytest.raises(ValueError):
        component_interval(s, 1)
    with pytest.raises(ValueError):
        component_interval(s, -1)


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
    s = ProjectedSample(draws=draws, center=center, n=int(rng.integers(1, 500)), level=0.9)
    lo, hi, degenerate = component_intervals(s, levels.tolist())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for j in range(p):
            caught.clear()
            assert component_interval(s, j, level=levels[j]) == (lo[j], hi[j])
            assert degenerate[j] == bool(caught)


@pytest.mark.parametrize("center", [0.0928380279369452, -0.0928380279369452])
def test_zero_draw_on_the_boundary_puts_the_endpoint_at_zero(center):
    # the draw at 0 sets the radius; sqrt(500)*|c|/sqrt(500) rounds to |c|
    # plus one ulp here, which used to leave 0 just outside the interval
    draws = np.array([[center]] * 9 + [[0.0]])
    s = ProjectedSample(draws=draws, center=np.array([center]), n=500, level=0.95)
    lo, hi, _ = component_intervals(s, [0.95])
    assert (lo[0], hi[0]) == component_interval(s, 0)
    assert (lo[0] == 0.0) if center > 0 else (hi[0] == 0.0)
    assert hi[0] - lo[0] == 2.0 * abs(center)


def test_component_intervals_validation():
    s = sample_from_distances([0.1, 0.2])
    with pytest.raises(ValueError):
        component_intervals(s, [0.9, 0.9])
    with pytest.raises(ValueError):
        component_intervals(s, [1.1])


# --- rectangle_levels --------------------------------------------------------

def test_rectangle_levels_values():
    assert rectangle_levels(1, 0.95) == 0.95
    assert rectangle_levels(2, 0.9) == pytest.approx(0.9487, abs=5e-5)
    assert rectangle_levels(2, 0.9) == pytest.approx(0.9486832980505138, abs=1e-12)
    assert rectangle_levels(5, 0.95) == pytest.approx(0.98979, abs=5e-6)
    assert rectangle_levels(5, 0.95) == pytest.approx(0.9897937816869885, abs=1e-12)


def test_rectangle_levels_validation():
    with pytest.raises(ValueError):
        rectangle_levels(0, 0.9)
    with pytest.raises(ValueError):
        rectangle_levels(3, 1.0)


# --- model_probabilities -----------------------------------------------------

def test_model_probabilities_example():
    draws = np.array([
        [0.0, 0.0],
        [1.0, 0.0],
        [0.5, 0.0],
        [1.0, 2.0],
    ])
    s = ProjectedSample(draws=draws, center=np.zeros(2), n=4, level=0.9)
    probs = model_probabilities(s)
    assert probs[frozenset()] == 0.25
    assert probs[frozenset({0})] == 0.5
    assert probs[frozenset({0, 1})] == 0.25


def test_model_probabilities_single_support():
    draws = np.array([[1.0, 0.0]] * 6)
    s = ProjectedSample(draws=draws, center=np.zeros(2), n=6, level=0.9)
    assert model_probabilities(s) == {frozenset({0}): 1.0}


def test_model_probabilities_sum_to_one():
    rng = np.random.default_rng(4)
    draws = rng.standard_normal((500, 3))
    draws[rng.random((500, 3)) < 0.5] = 0.0
    s = ProjectedSample(draws=draws, center=np.zeros(3), n=10, level=0.9)
    probs = model_probabilities(s)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(v > 0 for v in probs.values())


# --- rectangle/component consistency -----------------------------------------

def test_rectangle_ball_is_intersection_of_components():
    rng = np.random.default_rng(5)
    draws = rng.standard_normal((400, 3))
    s = ProjectedSample(draws=draws, center=np.zeros(3), n=7, level=0.9)
    idx = (0, 2)
    r = radius_quantile(s, NormSelector.rectangle(idx), level=0.85)
    scaled = np.sqrt(7) * draws
    in_ball = np.abs(scaled[:, idx]).max(axis=1) <= r
    in_all = np.all(np.abs(scaled[:, idx]) <= r, axis=1)
    np.testing.assert_array_equal(in_ball, in_all)


def test_radius_quantile_ball_norms():
    rng = np.random.default_rng(7)
    draws = rng.standard_normal((60, 2))
    s = ProjectedSample(draws=draws, center=np.zeros(2), n=4, level=0.9)
    for sel in (NormSelector.max_norm(), NormSelector.euclidean(), NormSelector.l1()):
        r = radius_quantile(s, sel)
        d = np.array([minkowski_norm(2.0 * row, sel) for row in draws])
        assert r > 0
        assert (d <= r).mean() >= 0.9 and (d < r).mean() < 0.9


# --- ProjectedSample ---------------------------------------------------------

def test_sample_validation():
    with pytest.raises(ValueError):
        ProjectedSample(draws=np.zeros((1, 2)), center=np.zeros(2), n=4, level=0.9)
    with pytest.raises(ValueError):
        ProjectedSample(draws=np.zeros((3, 2)), center=np.zeros(3), n=4, level=0.9)
    with pytest.raises(ValueError):
        ProjectedSample(draws=np.zeros((3, 2)), center=np.zeros(2), n=0, level=0.9)
    with pytest.raises(ValueError):
        ProjectedSample(draws=np.zeros((3, 2)), center=np.zeros(2), n=4, level=1.0)

