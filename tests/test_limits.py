"""Limit-experiment sampler: closed forms, nested-MC coverage, zero mass.

The orthogonal case (C = I) has closed-form branch solutions, so most checks
reconstruct the conditional draws white-box (the (seed, 0x75) stream) and
compare coordinate by coordinate.  Conditional coverage probabilities are
checked against the analytic h/psi functions at Monte-Carlo precision.
"""

import re

import numpy as np
import pytest

from sparseproj.calibration import CalibrationQuery, h_plus, h_zero, psi, psi_zero, solve_gamma
from sparseproj.limits import (
    LimitSpec,
    limitcheck_rows,
    limiting_coverage_mc,
    sample_t_star,
    zero_mass_probability,
)
from sparseproj import limits
from sparseproj.errors import NoConvergence

from oracles import kkt_batch_reference, random_spd, sample_xi


def eye_spec(signs, sigma0=1.0, lambda0=1.0):
    signs = np.asarray(signs, dtype=float)
    return LimitSpec(C=np.eye(signs.size), sigma0=sigma0, lambda0=lambda0,
                     theta0_signs=signs)


def w_star_reference(spec, delta, seed, count):
    """White-box reconstruction of the conditional W* draws."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x75)))
    Z = rng.standard_normal((count, spec.p))
    w, V = np.linalg.eigh(spec.C)
    inv_half = (V / np.sqrt(w)) @ V.T
    return spec.sigma0 * (np.asarray(delta, dtype=float) + Z) @ inv_half


# --- LimitSpec ---------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        LimitSpec(C=np.array([[1.0, 0.2], [0.0, 1.0]]), sigma0=1.0, lambda0=1.0,
                  theta0_signs=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        LimitSpec(C=np.array([[1.0, 2.0], [2.0, 1.0]]), sigma0=1.0, lambda0=1.0,
                  theta0_signs=np.array([1.0, 0.0]))  # eigenvalues -1, 3
    with pytest.raises(ValueError):
        eye_spec([0.5, 0.0])
    with pytest.raises(ValueError):
        eye_spec([1.0, 0.0], sigma0=0.0)
    with pytest.raises(ValueError):
        eye_spec([1.0, 0.0], lambda0=-0.1)
    for field in ("sigma0", "lambda0"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{field} must be"):
                eye_spec([1.0, 0.0], **{field: value})
    with pytest.raises(ValueError):
        LimitSpec(C=np.eye(3), sigma0=1.0, lambda0=1.0,
                  theta0_signs=np.array([1.0, 0.0]))
    # a NaN off-diagonal passes the symmetry and eigenvalue checks, and an
    # inf diagonal the eigenvalue check, so finiteness is checked first
    nan, inf = float("nan"), float("inf")
    for C, message in (([[1.0, nan], [nan, 1.0]], "got nan at (0, 1)"),
                       ([[1.0, 0.0], [0.0, inf]], "got inf at (1, 1)")):
        with pytest.raises(ValueError, match=re.escape(f"C must be finite, {message}")):
            LimitSpec(C=np.array(C), sigma0=1.0, lambda0=1.0,
                      theta0_signs=np.array([1.0, 0.0]))


def test_spec_properties():
    spec = eye_spec([1.0, -1.0, 0.0, 0.0])
    assert spec.p == 4
    assert not spec.C.flags.writeable


# --- sample_xi ---------------------------------------------------------------

def test_xi_positive_sign_branch():
    spec = eye_spec([1.0], lambda0=1.0)
    xi = sample_xi(spec, np.array([0.3]))
    assert xi[0] == pytest.approx(-0.2, abs=1e-10)


def test_xi_noise_inside_band_is_zero():
    spec = eye_spec([0.0], lambda0=1.0)
    for d in (-0.5, -0.2, 0.0, 0.3, 0.5):
        assert sample_xi(spec, np.array([d]))[0] == 0.0


def test_xi_identity_closed_forms_mixed():
    spec = eye_spec([1.0, -1.0, 0.0], sigma0=1.5, lambda0=0.8)
    delta = np.array([0.4, -1.2, 0.9])
    xi = sample_xi(spec, delta)
    b = 1.5 * delta
    assert xi[0] == pytest.approx(b[0] - 0.4, abs=1e-10)
    assert xi[1] == pytest.approx(b[1] + 0.4, abs=1e-10)
    assert xi[2] == pytest.approx(np.sign(b[2]) * max(abs(b[2]) - 0.4, 0.0), abs=1e-10)


def test_xi_zero_penalty_linear_solve():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3))
    C = A @ A.T / 3 + 0.5 * np.eye(3)
    spec = LimitSpec(C=C, sigma0=2.0, lambda0=0.0,
                     theta0_signs=np.array([1.0, 0.0, -1.0]))
    delta = rng.standard_normal(3)
    w, V = np.linalg.eigh(C)
    expected = 2.0 * (V / np.sqrt(w)) @ V.T @ delta
    np.testing.assert_allclose(sample_xi(spec, delta), expected, atol=1e-9)


def test_xi_rejects_wrong_length():
    with pytest.raises(ValueError):
        sample_xi(eye_spec([1.0, 0.0]), np.zeros(3))


# --- sample_t_star -----------------------------------------------------------

def test_t_star_identity_branches_white_box():
    spec = eye_spec([1.0, -1.0, 0.0], sigma0=1.3, lambda0=0.8)
    delta = np.array([0.4, -1.2, 0.1])
    T = sample_t_star(spec, delta, seed=5, count=200)
    assert T.shape == (200, 3)
    W = w_star_reference(spec, delta, seed=5, count=200)
    np.testing.assert_allclose(T[:, 0], W[:, 0] - 0.4, atol=1e-9)
    np.testing.assert_allclose(T[:, 1], W[:, 1] + 0.4, atol=1e-9)
    soft = np.sign(W[:, 2]) * np.maximum(np.abs(W[:, 2]) - 0.4, 0.0)
    np.testing.assert_allclose(T[:, 2], soft, atol=1e-9)
    # noise coordinate is exactly zero inside the band, never approximately
    np.testing.assert_array_equal(T[:, 2] == 0.0, np.abs(W[:, 2]) <= 0.4)


def test_t_star_zero_penalty_is_w_star():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((2, 2))
    C = A @ A.T / 2 + 0.5 * np.eye(2)
    spec = LimitSpec(C=C, sigma0=0.7, lambda0=0.0,
                     theta0_signs=np.array([1.0, 0.0]))
    delta = np.array([0.2, -0.5])
    T = sample_t_star(spec, delta, seed=9, count=50)
    W = w_star_reference(spec, delta, seed=9, count=50)
    np.testing.assert_allclose(T, W, atol=1e-9)


def test_t_star_deterministic_in_seed():
    spec = eye_spec([1.0, 0.0])
    delta = np.array([0.3, -0.1])
    a = sample_t_star(spec, delta, seed=3, count=10)
    b = sample_t_star(spec, delta, seed=3, count=10)
    np.testing.assert_array_equal(a, b)
    c = sample_t_star(spec, delta, seed=4, count=10)
    assert not np.array_equal(a, c)


# --- conditional coverage equals the h functions -----------------------------

def test_conditional_coverage_matches_h_functions():
    inner = 4000
    cases = [
        # (signs, sigma0, lambda0, delta_j, analytic)
        ([1.0], 1.0, 1.2, 0.9, h_plus(1.2, 0.9)),
        ([-1.0], 1.0, 1.2, -0.7, h_plus(1.2, 0.7)),
        ([0.0], 1.0, 1.5, 1.4, h_zero(1.5, 1.4)),
        ([0.0], 1.0, 1.5, 0.2, h_zero(1.5, 0.2)),
        ([1.0], 2.0, 1.0, 0.8, h_plus(0.5, 0.8)),  # sigma0 rescales the penalty
    ]
    for signs, sigma0, lam, dj, q_true in cases:
        spec = eye_spec(signs, sigma0=sigma0, lambda0=lam)
        delta = np.array([dj])
        xi = sample_xi(spec, delta)
        T = sample_t_star(spec, delta, seed=17, count=inner)
        q_hat = float(np.mean(np.abs(T[:, 0] - xi[0]) <= abs(xi[0])))
        se = max(np.sqrt(q_true * (1.0 - q_true) / inner), 1e-3)
        assert abs(q_hat - q_true) <= 3 * se, (signs, lam, dj, q_hat, q_true)


# --- limiting_coverage_mc ----------------------------------------------------

def test_coverage_signal_component():
    lam = 1.0
    level = solve_gamma(CalibrationQuery(lambda0=lam, target=0.95)).gamma_level
    spec = eye_spec([1.0], lambda0=lam)
    est = limiting_coverage_mc([spec], [level], outer=600, inner=800, seed=2)[0, 0]
    se = np.sqrt(0.95 * 0.05 / 600)
    assert abs(est - 0.95) <= 3 * se


def test_coverage_noise_component_dominates():
    lam = 1.0
    res = solve_gamma(CalibrationQuery(lambda0=lam, target=0.95))
    spec = eye_spec([0.0], lambda0=lam)
    est = limiting_coverage_mc([spec], [res.gamma_level], outer=600, inner=800,
                               seed=3)[0, 0]
    expected = res.psi0_at_gamma
    se = np.sqrt(expected * (1.0 - expected) / 600)
    assert est >= 0.95
    assert abs(est - expected) <= 3 * se


def test_coverage_bvm_case_equals_level():
    spec2 = LimitSpec(C=np.eye(2), sigma0=1.0, lambda0=0.0,
                      theta0_signs=np.array([1.0, 0.0]))
    est = limiting_coverage_mc([spec2], [0.9], outer=600, inner=800, seed=4)[0, 0]
    se = np.sqrt(0.9 * 0.1 / 600)
    assert abs(est - 0.9) <= 3 * se


def test_coverage_validation():
    spec = eye_spec([1.0])
    with pytest.raises(ValueError):
        limiting_coverage_mc([spec], [0.9], outer=50, inner=100, seed=0)
    with pytest.raises(ValueError):
        limiting_coverage_mc([spec], [0.9], outer=100, inner=99, seed=0)
    with pytest.raises(ValueError):
        limiting_coverage_mc([spec], [1.0], outer=100, inner=100, seed=0)


def test_coverage_worker_count_invariant():
    spec = eye_spec([1.0, 0.0], lambda0=0.5)
    one = limiting_coverage_mc([spec], [0.93], outer=100, inner=100, seed=7)
    two = limiting_coverage_mc([spec], [0.93], outer=100, inner=100, seed=7, workers=2)
    assert np.array_equal(one, two)


def test_coverage_deterministic():
    spec = eye_spec([1.0], lambda0=0.8)
    a = limiting_coverage_mc([spec], [0.95], outer=100, inner=100, seed=11)
    b = limiting_coverage_mc([spec], [0.95], outer=100, inner=100, seed=11)
    assert np.array_equal(a, b)


def separate_solves_hits(spec, level, outer_index, inner, seed):
    """The per-coordinate hits of one outer draw, with xi and the T* batch
    solved in two kernel calls and each coordinate counted on its own."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, outer_index)))
    delta = rng.standard_normal(spec.p)
    Chalf, Cinvhalf = limits._sqrt_factors(spec.C)
    xi = limits._solve_limit_batch(spec, (spec.sigma0 * (Chalf @ delta)).reshape(1, -1))[0]
    W = spec.sigma0 * (delta + rng.standard_normal((inner, spec.p))) @ Cinvhalf
    T = limits._solve_limit_batch(spec, W @ spec.C)
    return np.array([np.count_nonzero(np.abs(T[:, j] - xi[j]) <= abs(xi[j])) <= level * inner
                     for j in range(spec.p)], dtype=np.int64)


@pytest.mark.parametrize("workers", [1, 2])
def test_coverage_shared_pass_equals_single_selector_calls(workers):
    # the one comparison over all coordinates gives, column by column, the
    # hits of each coordinate counted alone from separate solves
    spec = eye_spec([1.0, -1.0, 0.0], lambda0=0.7)
    shared = limiting_coverage_mc([spec], [0.9], outer=100, inner=100, seed=13,
                                  workers=workers)
    assert shared.shape == (1, 3)
    hits = sum(separate_solves_hits(spec, 0.9, i, 100, 13) for i in range(100))
    assert np.array_equal(shared[0], hits / 100)


@pytest.mark.parametrize("lambda0", [0.5, 1.0, 2.0])
def test_merged_batch_hits_equal_separate_solves_at_identity(lambda0):
    spec = eye_spec([1.0, -1.0, 0.0], lambda0=lambda0)
    level = solve_gamma(CalibrationQuery(lambda0=lambda0, target=0.95)).gamma_level
    factors = limits._sqrt_factors(spec.C)
    for outer_index in range(40):
        masses = limits._coverage_masses((spec,), outer_index, 300, 5, factors)
        got = (masses[0] <= level * 300).astype(np.int64)
        want = separate_solves_hits(spec, level, outer_index, 300, 5)
        assert np.array_equal(got, want), outer_index


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_merged_batch_xi_certified_for_correlated_gram(seed, monkeypatch):
    # one kernel call per outer draw: row 0 is xi, rows 1.. the T* draws
    rng = np.random.default_rng(seed)
    C = random_spd(rng, 4, cond_cap=20.0)
    signs = np.array([1.0, -1.0, 0.0, 0.0])
    spec = LimitSpec(C=C, sigma0=1.3, lambda0=0.8, theta0_signs=signs)
    calls = []
    solve = limits._solve_limit_batch

    def spy(spec, B, *args, **kwargs):
        U = solve(spec, B, *args, **kwargs)
        calls.append((B.copy(), U.copy()))
        return U

    monkeypatch.setattr(limits, "_solve_limit_batch", spy)
    masses = limits._coverage_masses((spec,), 7, 200, seed, limits._sqrt_factors(spec.C))
    monkeypatch.undo()
    assert masses.shape == (1, 4) and ((0 <= masses) & (masses <= 200)).all()
    assert len(calls) == 1
    B, U = calls[0]
    assert B.shape == U.shape == (201, 4)
    kkt = kkt_batch_reference(spec.C, B, spec.lambda0, signs, U)
    assert kkt.max() <= 1e-10
    delta = np.random.default_rng(np.random.SeedSequence((seed, 7))).standard_normal(4)
    np.testing.assert_allclose(U[0], sample_xi(spec, delta), rtol=0, atol=1e-9)


def test_coverage_one_kernel_call_per_outer_draw(monkeypatch):
    calls = []
    solve = limits._solve

    def count(*args):
        calls.append(args[1].shape)
        return solve(*args)

    monkeypatch.setattr(limits, "_solve", count)
    limiting_coverage_mc([eye_spec([1.0, 0.0], lambda0=0.5)], [0.9], outer=100,
                         inner=150, seed=3)
    assert calls == [(151, 2)] * 100


# --- one pass across penalties -----------------------------------------------

SWEEP = (0.5, 1.0, 2.0)


def sweep_specs(lambdas=SWEEP):
    return [eye_spec([1.0, -1.0, 0.0], lambda0=lam) for lam in lambdas]


def test_sweep_draws_each_outer_stream_once(monkeypatch):
    streams = []
    seed_sequence = np.random.SeedSequence

    def spy(entropy, *args, **kwargs):
        streams.append(tuple(entropy))
        return seed_sequence(entropy, *args, **kwargs)

    monkeypatch.setattr(limits.np.random, "SeedSequence", spy)
    limitcheck_rows(lambda lam: sweep_specs([lam])[0], SWEEP, target=0.95,
                    outer=100, inner=100, seed=9)
    assert streams == [(9, i) for i in range(100)]  # not 3 x 100


def test_sweep_solves_every_penalty_per_outer_draw_in_order(monkeypatch):
    calls = []
    solve = limits._solve

    def spy(Q, B, lam, *args):
        calls.append((lam, B.shape))
        return solve(Q, B, lam, *args)

    monkeypatch.setattr(limits, "_solve", spy)
    limiting_coverage_mc(sweep_specs(), [0.9] * 3, outer=100, inner=150, seed=3)
    assert calls == [(lam, (151, 3)) for _ in range(100) for lam in SWEEP]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_rows_equal_single_spec_calls(workers):
    lambdas, levels = (0.0, 0.7, 2.0), (0.9, 0.95, 0.99)
    sweep = limiting_coverage_mc(sweep_specs(lambdas), levels, outer=100, inner=100,
                                 seed=13, workers=workers)
    assert sweep.shape == (3, 3)
    for row, spec, level in zip(sweep, sweep_specs(lambdas), levels):
        single = limiting_coverage_mc([spec], [level], outer=100, inner=100, seed=13)
        assert single.shape == (1, 3)
        assert np.array_equal(row, single[0])


def test_sweep_rejects_specs_that_cannot_share_draws():
    def builder(lam):  # sigma0 moves with the penalty: W* would differ
        return eye_spec([1.0, 0.0], sigma0=1.0 + (lam > 0.7), lambda0=lam)

    with pytest.raises(ValueError, match=r"lambda0=1 differs from the first"):
        limitcheck_rows(builder, [0.5, 0.6, 1.0, 2.0], target=0.95, outer=100,
                        inner=100, seed=0)
    first = eye_spec([1.0, 0.0], lambda0=0.5)
    for other in (eye_spec([-1.0, 0.0], lambda0=2.0),
                  LimitSpec(C=np.diag([1.0, 2.0]), sigma0=1.0, lambda0=2.0,
                            theta0_signs=np.array([1.0, 0.0]))):
        with pytest.raises(ValueError, match=r"lambda0=2 differs"):
            limiting_coverage_mc([first, other], [0.9, 0.9], outer=100, inner=100,
                                 seed=0)
    with pytest.raises(ValueError, match="one level per spec"):
        limiting_coverage_mc([first, first], [0.9], outer=100, inner=100, seed=0)
    with pytest.raises(ValueError, match="one level per spec"):
        limiting_coverage_mc([], [], outer=100, inner=100, seed=0)
    assert limitcheck_rows(builder, [], target=0.95, outer=100, inner=100, seed=0) == []


def test_sweep_failure_names_penalty(monkeypatch):
    solve = limits._solve

    def fail_at_two(Q, B, lam, *args):
        if lam == 2.0:
            raise NoConvergence("residual 1.0e-03 > tol 1.0e-10")
        return solve(Q, B, lam, *args)

    monkeypatch.setattr(limits, "_solve", fail_at_two)
    with pytest.raises(NoConvergence,
                       match=r"outer draw 0 \(lambda0=2, seed=21\): residual"):
        limiting_coverage_mc(sweep_specs(), [0.9] * 3, outer=100, inner=100, seed=21)


def test_coverage_failure_names_outer_draw(monkeypatch):
    def fail(*args, **kwargs):
        raise NoConvergence("residual 1.0e-03 > tol 1.0e-10")

    monkeypatch.setattr("sparseproj.limits._solve", fail)
    spec = eye_spec([1.0, 0.0], lambda0=0.5)
    with pytest.raises(NoConvergence,
                       match=r"outer draw 0 \(lambda0=0.5, seed=21\): residual"):
        limiting_coverage_mc([spec], [0.9], outer=100, inner=100, seed=21)


# --- zero_mass_probability ---------------------------------------------------

def test_zero_mass_saturates_for_huge_penalty():
    spec = eye_spec([1.0, 0.0], lambda0=10.0)
    est = zero_mass_probability(spec, np.zeros(2), inner=10_000, seed=0)
    assert est >= 0.999


def test_zero_mass_zero_penalty():
    spec = eye_spec([1.0, 0.0], lambda0=0.0)
    assert zero_mass_probability(spec, np.zeros(2), inner=1000, seed=0) == 0.0


def test_zero_mass_unit_penalty_value():
    # P(|N(0,1)| <= 1/2) = Phi(.5) - Phi(-.5)
    expected = 0.38292492254802624
    spec = eye_spec([1.0, 0.0], lambda0=1.0)
    inner = 10_000
    est = zero_mass_probability(spec, np.zeros(2), inner=inner, seed=1)
    se = np.sqrt(expected * (1.0 - expected) / inner)
    assert abs(est - expected) <= 3 * se
    assert est == pytest.approx(0.38292, abs=3 * se)


def test_zero_mass_strictly_positive_with_any_positive_penalty():
    rng = np.random.default_rng(5)
    spec = eye_spec([1.0, -1.0, 0.0], lambda0=0.5)
    est = zero_mass_probability(spec, rng.standard_normal(3), inner=10_000, seed=2)
    assert est > 0.0


def test_zero_mass_requires_noise_coordinate():
    spec = eye_spec([1.0, -1.0], lambda0=1.0)
    with pytest.raises(ValueError):
        zero_mass_probability(spec, np.zeros(2), inner=1000, seed=0)


# --- limitcheck_rows ---------------------------------------------------------

def test_limitcheck_rows_layout():
    def builder(lam):
        return eye_spec([1.0, 0.0], lambda0=lam)

    rows = limitcheck_rows(builder, [0.5], target=0.95, outer=100, inner=100,
                           seed=0)
    assert len(rows) == 2
    res = solve_gamma(CalibrationQuery(lambda0=0.5, target=0.95))
    sig, noi = rows
    assert sig["role"] == "signal" and noi["role"] == "noise"
    assert sig["coordinate"] == 0 and noi["coordinate"] == 1
    for row in rows:
        assert row["lambda0"] == 0.5
        assert row["level"] == res.gamma_level
        assert 0.0 <= row["estimate"] <= 1.0
        est = row["estimate"]
        assert row["mc_se"] == pytest.approx(np.sqrt(est * (1 - est) / 100))
    assert sig["analytic"] == res.psi_at_gamma
    assert noi["analytic"] == res.psi0_at_gamma


def test_limitcheck_rows_rng_stream_pinned():
    # The RNG-stream contract: outer draw i reads the (seed, i) stream, delta
    # first and then the inner W* draws, so these estimates never move when
    # the Monte-Carlo pass is restructured.
    def builder(lam):
        return eye_spec([1.0, -1.0, 0.0], lambda0=lam)

    rows = limitcheck_rows(builder, [0.5, 1.0, 2.0], target=0.95, outer=100,
                           inner=100, seed=0)
    assert [row["estimate"] for row in rows] == [
        0.91, 0.96, 0.95, 0.92, 0.97, 0.97, 0.93, 0.96, 1.0]
