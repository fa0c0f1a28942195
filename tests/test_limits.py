"""Limit-experiment sampler: closed forms, nested-MC coverage, zero mass.

The orthogonal case (C = I) has closed-form branch solutions, so most checks
reconstruct the conditional draws white-box (the (seed, 0x75) stream) and
compare coordinate by coordinate.  Conditional coverage probabilities are
checked against the analytic h/psi functions at Monte-Carlo precision.
"""

import re

import numpy as np
import pytest

from sparseproj.calibration import h_plus, h_zero, psi, psi_zero, solve_gamma
from sparseproj.limits import (
    LimitSpec,
    limitcheck_rows,
    limiting_coverage_mc,
    sample_t_star,
    zero_mass_probability,
)
from sparseproj import limits, projection
from sparseproj.errors import NoConvergence
from sparseproj.projection import _worst_rows

from oracles import (
    kkt_batch_reference,
    limit_solve_reference,
    random_spd,
    sample_xi,
    sqrt_factors_reference,
)


def eye_spec(signs, sigma0=1.0):
    signs = np.asarray(signs, dtype=float)
    return LimitSpec(C=np.eye(signs.size), sigma0=sigma0, theta0_signs=signs)


def w_star_reference(spec, delta, seed, count):
    """White-box reconstruction of the conditional W* draws."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x75)))
    Z = rng.standard_normal((count, spec.p))
    _, inv_half = sqrt_factors_reference(spec.C)
    return spec.sigma0 * (np.asarray(delta, dtype=float) + Z) @ inv_half


# --- LimitSpec ---------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        LimitSpec(C=np.array([[1.0, 0.2], [0.0, 1.0]]), sigma0=1.0,
                  theta0_signs=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        LimitSpec(C=np.array([[1.0, 2.0], [2.0, 1.0]]), sigma0=1.0,
                  theta0_signs=np.array([1.0, 0.0]))  # eigenvalues -1, 3
    with pytest.raises(ValueError):
        eye_spec([0.5, 0.0])
    with pytest.raises(ValueError):
        eye_spec([1.0, 0.0], sigma0=0.0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma0 must be"):
            eye_spec([1.0, 0.0], sigma0=value)
    with pytest.raises(ValueError):
        LimitSpec(C=np.eye(3), sigma0=1.0, theta0_signs=np.array([1.0, 0.0]))
    # a NaN off-diagonal passes the symmetry and eigenvalue checks, and an
    # inf diagonal the eigenvalue check, so finiteness is checked first
    nan, inf = float("nan"), float("inf")
    for C, message in (([[1.0, nan], [nan, 1.0]], "got nan at (0, 1)"),
                       ([[1.0, 0.0], [0.0, inf]], "got inf at (1, 1)")):
        with pytest.raises(ValueError, match=re.escape(f"C must be finite, {message}")):
            LimitSpec(C=np.array(C), sigma0=1.0, theta0_signs=np.array([1.0, 0.0]))


def test_penalty_validation():
    # lambda0 is an argument of each function, checked where it enters
    spec = eye_spec([1.0, 0.0])
    for value in (-0.1, float("nan"), float("inf")):
        message = f"lambda0 must be finite and nonnegative, got {value}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_t_star(spec, value, np.zeros(2), seed=0)
        with pytest.raises(ValueError, match=re.escape(message)):
            zero_mass_probability(spec, value, np.zeros(2), inner=100, seed=0)
        with pytest.raises(ValueError, match=re.escape(message)):
            limiting_coverage_mc(spec, [0.5, value], [0.9, 0.9], outer=100, inner=100,
                                 seed=0)


def test_spec_properties():
    spec = eye_spec([1.0, -1.0, 0.0, 0.0])
    assert spec.p == 4
    assert not spec.C.flags.writeable


def correlated_specs():
    rng = np.random.default_rng(3)
    signs = np.array([1.0, -1.0, 0.0, 0.0])
    return [ar1_spec(), ar1_spec(rho=0.95)] + [
        LimitSpec(C=random_spd(rng, 4, cond_cap=20.0), sigma0=1.3, theta0_signs=signs)
        for _ in range(3)]


@pytest.mark.parametrize("case", range(5))
def test_spec_c_half_squares_to_c(case):
    # C^{1/2} comes from the eigendecomposition that checks C, and is the
    # spec's own read-only field, never an argument
    spec = correlated_specs()[case]
    assert not spec.C_half.flags.writeable
    scale = np.abs(spec.C).max()
    assert np.abs(spec.C_half @ spec.C_half - spec.C).max() <= 1e-12 * scale
    assert np.abs(spec.C_half - sqrt_factors_reference(spec.C)[0]).max() <= 1e-12 * scale
    with pytest.raises(TypeError):
        LimitSpec(C=spec.C, sigma0=1.0, theta0_signs=spec.theta0_signs, C_half=spec.C)


# --- sample_xi ---------------------------------------------------------------

def test_xi_positive_sign_branch():
    spec = eye_spec([1.0])
    xi = sample_xi(spec, 1.0, np.array([0.3]))
    assert xi[0] == pytest.approx(-0.2, abs=1e-10)


def test_xi_noise_inside_band_is_zero():
    spec = eye_spec([0.0])
    for d in (-0.5, -0.2, 0.0, 0.3, 0.5):
        assert sample_xi(spec, 1.0, np.array([d]))[0] == 0.0


def test_xi_identity_closed_forms_mixed():
    spec = eye_spec([1.0, -1.0, 0.0], sigma0=1.5)
    delta = np.array([0.4, -1.2, 0.9])
    xi = sample_xi(spec, 0.8, delta)
    b = 1.5 * delta
    assert xi[0] == pytest.approx(b[0] - 0.4, abs=1e-10)
    assert xi[1] == pytest.approx(b[1] + 0.4, abs=1e-10)
    assert xi[2] == pytest.approx(np.sign(b[2]) * max(abs(b[2]) - 0.4, 0.0), abs=1e-10)


def test_xi_zero_penalty_linear_solve():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3))
    C = A @ A.T / 3 + 0.5 * np.eye(3)
    spec = LimitSpec(C=C, sigma0=2.0, theta0_signs=np.array([1.0, 0.0, -1.0]))
    delta = rng.standard_normal(3)
    w, V = np.linalg.eigh(C)
    expected = 2.0 * (V / np.sqrt(w)) @ V.T @ delta
    np.testing.assert_allclose(sample_xi(spec, 0.0, delta), expected, atol=1e-9)


def test_xi_rejects_wrong_length():
    with pytest.raises(ValueError):
        sample_xi(eye_spec([1.0, 0.0]), 1.0, np.zeros(3))


# --- sample_t_star -----------------------------------------------------------

def test_t_star_identity_branches_white_box():
    spec = eye_spec([1.0, -1.0, 0.0], sigma0=1.3)
    delta = np.array([0.4, -1.2, 0.1])
    T = sample_t_star(spec, 0.8, delta, seed=5, count=200)
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
    spec = LimitSpec(C=C, sigma0=0.7, theta0_signs=np.array([1.0, 0.0]))
    delta = np.array([0.2, -0.5])
    T = sample_t_star(spec, 0.0, delta, seed=9, count=50)
    W = w_star_reference(spec, delta, seed=9, count=50)
    np.testing.assert_allclose(T, W, atol=1e-9)


@pytest.mark.parametrize("lambda0", [0.0, 1.0])
@pytest.mark.parametrize("delta, count, message", [
    ([0.3], 10, "delta has length 1, expected 2"),
    ([0.3, -0.1, 0.2], 10, "delta has length 3, expected 2"),
    ([float("nan"), 0.0], 10, "delta must be finite, got nan at index 0"),
    ([0.3, float("inf")], 10, "delta must be finite, got inf at index 1"),
    ([0.3, -0.1], 0, "{} must be at least 1, got 0"),
])
def test_t_star_and_zero_mass_check_their_input(delta, count, message, lambda0):
    # a short delta would broadcast, a NaN one run every sweep, and no draw
    # reduce an empty array; each is named before any draw, at every penalty
    spec = eye_spec([1.0, 0.0])
    with pytest.raises(ValueError, match=re.escape(message.format("count"))):
        sample_t_star(spec, lambda0, delta, seed=0, count=count)
    with pytest.raises(ValueError, match=re.escape(message.format("inner"))):
        zero_mass_probability(spec, lambda0, delta, inner=count, seed=0)


def test_t_star_deterministic_in_seed():
    spec = eye_spec([1.0, 0.0])
    delta = np.array([0.3, -0.1])
    a = sample_t_star(spec, 1.0, delta, seed=3, count=10)
    b = sample_t_star(spec, 1.0, delta, seed=3, count=10)
    np.testing.assert_array_equal(a, b)
    c = sample_t_star(spec, 1.0, delta, seed=4, count=10)
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
        spec = eye_spec(signs, sigma0=sigma0)
        delta = np.array([dj])
        xi = sample_xi(spec, lam, delta)
        T = sample_t_star(spec, lam, delta, seed=17, count=inner)
        q_hat = float(np.mean(np.abs(T[:, 0] - xi[0]) <= abs(xi[0])))
        se = max(np.sqrt(q_true * (1.0 - q_true) / inner), 1e-3)
        assert abs(q_hat - q_true) <= 3 * se, (signs, lam, dj, q_hat, q_true)


# --- limiting_coverage_mc ----------------------------------------------------

def test_coverage_signal_component():
    lam = 1.0
    level = solve_gamma(lam, 0.95)[0]
    est = limiting_coverage_mc(eye_spec([1.0]), [lam], [level], outer=600, inner=800,
                               seed=2)[0, 0]
    se = np.sqrt(0.95 * 0.05 / 600)
    assert abs(est - 0.95) <= 3 * se


def test_coverage_noise_component_dominates():
    lam = 1.0
    level, _, expected = solve_gamma(lam, 0.95)
    est = limiting_coverage_mc(eye_spec([0.0]), [lam], [level], outer=600, inner=800,
                               seed=3)[0, 0]
    se = np.sqrt(expected * (1.0 - expected) / 600)
    assert est >= 0.95
    assert abs(est - expected) <= 3 * se


def test_coverage_bvm_case_equals_level():
    spec2 = LimitSpec(C=np.eye(2), sigma0=1.0, theta0_signs=np.array([1.0, 0.0]))
    est = limiting_coverage_mc(spec2, [0.0], [0.9], outer=600, inner=800, seed=4)[0, 0]
    se = np.sqrt(0.9 * 0.1 / 600)
    assert abs(est - 0.9) <= 3 * se


def test_coverage_validation():
    spec = eye_spec([1.0])
    with pytest.raises(ValueError):
        limiting_coverage_mc(spec, [1.0], [0.9], outer=50, inner=100, seed=0)
    with pytest.raises(ValueError):
        limiting_coverage_mc(spec, [1.0], [0.9], outer=100, inner=99, seed=0)
    with pytest.raises(ValueError):
        limiting_coverage_mc(spec, [1.0], [1.0], outer=100, inner=100, seed=0)


def test_coverage_worker_count_invariant():
    # each worker reads C^{1/2} from the spec it was sent; ar1's is not I
    for spec in (eye_spec([1.0, 0.0]), ar1_spec(p=6)):
        one = limiting_coverage_mc(spec, [0.5], [0.93], outer=100, inner=100, seed=7)
        two = limiting_coverage_mc(spec, [0.5], [0.93], outer=100, inner=100, seed=7,
                                   workers=2)
        assert np.array_equal(one, two)


def test_coverage_deterministic():
    spec = eye_spec([1.0])
    a = limiting_coverage_mc(spec, [0.8], [0.95], outer=100, inner=100, seed=11)
    b = limiting_coverage_mc(spec, [0.8], [0.95], outer=100, inner=100, seed=11)
    assert np.array_equal(a, b)


def separate_solves_masses(spec, lambda0, outer_index, inner, seed):
    """The per-coordinate conditional masses of one outer draw, in counts,
    with xi and the T* batch solved in two calls at this penalty alone (a
    zero penalty by the linear solve) and each coordinate counted on its
    own."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, outer_index)))
    delta = rng.standard_normal(spec.p)
    Chalf, Cinvhalf = sqrt_factors_reference(spec.C)
    xi = limit_solve_reference(spec, lambda0, spec.sigma0 * (Chalf @ delta))[0]
    W = spec.sigma0 * (delta + rng.standard_normal((inner, spec.p))) @ Cinvhalf
    T = limit_solve_reference(spec, lambda0, W @ spec.C)
    return np.array([np.count_nonzero(np.abs(T[:, j] - xi[j]) <= abs(xi[j]))
                     for j in range(spec.p)], dtype=np.int64)


def separate_solves_hits(spec, lambda0, level, outer_index, inner, seed):
    """The per-coordinate hits of one outer draw from separate_solves_masses."""
    masses = separate_solves_masses(spec, lambda0, outer_index, inner, seed)
    return (masses <= level * inner).astype(np.int64)


@pytest.mark.parametrize("workers", [1, 2])
def test_coverage_shared_pass_equals_single_selector_calls(workers):
    # the one comparison over all coordinates gives, column by column, the
    # hits of each coordinate counted alone from separate solves
    spec = eye_spec([1.0, -1.0, 0.0])
    shared = limiting_coverage_mc(spec, [0.7], [0.9], outer=100, inner=100, seed=13,
                                  workers=workers)
    assert shared.shape == (1, 3)
    hits = sum(separate_solves_hits(spec, 0.7, 0.9, i, 100, 13) for i in range(100))
    assert np.array_equal(shared[0], hits / 100)


@pytest.mark.parametrize("lambda0", [0.5, 1.0, 2.0])
def test_merged_batch_hits_equal_separate_solves_at_identity(lambda0):
    spec = eye_spec([1.0, -1.0, 0.0])
    level = solve_gamma(lambda0, 0.95)[0]
    for outer_index in range(40):
        masses = limits._coverage_masses(spec, (lambda0,), outer_index, 300, 5)
        got = (masses[0] <= level * 300).astype(np.int64)
        want = separate_solves_hits(spec, lambda0, level, outer_index, 300, 5)
        assert np.array_equal(got, want), outer_index


def ar1_spec(p=20, rho=0.7):
    C = rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    signs = np.zeros(p)
    signs[:4] = (1.0, -1.0, 1.0, -1.0)
    return LimitSpec(C=C, sigma0=1.0, theta0_signs=signs)


def test_stacked_masses_equal_separate_solves_on_a_correlated_gram():
    # an ar1 C needs many sweeps, and the stacked batch runs them until its
    # slowest penalty certifies; the counted masses are still those of
    # solving each penalty alone, the zero penalty's those of the linear solve
    spec = ar1_spec()
    lambdas = (0.0,) + SWEEP
    for outer_index in range(20):
        masses = limits._coverage_masses(spec, lambdas, outer_index, 200, 6)
        for row, lambda0 in zip(masses, lambdas):
            want = separate_solves_masses(spec, lambda0, outer_index, 200, 6)
            assert np.array_equal(row, want), (outer_index, lambda0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_merged_batch_xi_certified_for_correlated_gram(seed, monkeypatch):
    # one kernel call per outer draw for every penalty, zero included: the
    # batch holds one block of the draw's right-hand sides per penalty, each
    # with xi in its row 0 and the T* draws after it, at that penalty
    rng = np.random.default_rng(seed)
    C = random_spd(rng, 4, cond_cap=20.0)
    signs = np.array([1.0, -1.0, 0.0, 0.0])
    spec = LimitSpec(C=C, sigma0=1.3, theta0_signs=signs)
    calls = []
    solve = limits._solve

    def spy(Q, B, lam, *args):
        U, kkt = solve(Q, B, lam, *args)
        calls.append((B.copy(), np.array(lam), U.copy()))
        return U, kkt

    monkeypatch.setattr(limits, "_solve", spy)
    masses = limits._coverage_masses(spec, (0.8, 0.0, 1.6), 7, 200, seed)
    monkeypatch.undo()
    assert masses.shape == (3, 4) and ((0 <= masses) & (masses <= 200)).all()
    assert len(calls) == 1
    B, lam, U = calls[0]
    assert B.shape == U.shape == (603, 4)
    assert np.array_equal(lam, np.repeat([0.8, 0.0, 1.6], 201))
    assert np.array_equal(B[:201], B[201:402]) and np.array_equal(B[:201], B[402:])
    kkt = kkt_batch_reference(spec.C, B, lam[:, None], signs, U)
    assert kkt.max() <= 1e-10
    delta = np.random.default_rng(np.random.SeedSequence((seed, 7))).standard_normal(4)
    for block, lambda0 in enumerate((0.8, 0.0, 1.6)):
        np.testing.assert_allclose(U[201 * block], sample_xi(spec, lambda0, delta),
                                   rtol=0, atol=1e-9)
    np.testing.assert_array_equal(masses[1], separate_solves_masses(spec, 0.0, 7, 200, seed))


@pytest.mark.parametrize("case", range(5))
def test_stacked_rhs_equal_the_oracle_w_star_times_c(case, monkeypatch):
    # the package forms C W* as sigma0 (delta + Z) C^{1/2}; the oracle builds
    # W* = sigma0 (delta + Z) C^{-1/2} and then W* C, from the same stream
    spec = correlated_specs()[case]
    calls = []
    solve = limits._solve

    def spy(Q, B, *args):
        calls.append(B.copy())
        return solve(Q, B, *args)

    monkeypatch.setattr(limits, "_solve", spy)
    limits._coverage_masses(spec, (0.5, 1.0), 4, 150, 11)
    monkeypatch.undo()
    (B,) = calls
    rng = np.random.default_rng(np.random.SeedSequence((11, 4)))
    delta = rng.standard_normal(spec.p)
    Chalf, Cinvhalf = sqrt_factors_reference(spec.C)
    W = spec.sigma0 * (delta + rng.standard_normal((150, spec.p))) @ Cinvhalf
    want = np.vstack([spec.sigma0 * (Chalf @ delta), W @ spec.C])
    for block in (B[:151], B[151:]):
        assert np.abs(block - want).max() <= 1e-12 * np.abs(want).max()


def test_coverage_one_kernel_call_per_outer_draw(monkeypatch):
    calls = []
    solve = limits._solve

    def count(*args):
        calls.append(args[1].shape)
        return solve(*args)

    monkeypatch.setattr(limits, "_solve", count)
    limiting_coverage_mc(eye_spec([1.0, 0.0]), [0.5], [0.9], outer=100, inner=150, seed=3)
    assert calls == [(151, 2)] * 100


# --- one pass across penalties -----------------------------------------------

SWEEP = (0.5, 1.0, 2.0)
SWEEP_SPEC = eye_spec([1.0, -1.0, 0.0])


def test_sweep_draws_each_outer_stream_once(monkeypatch):
    streams = []
    seed_sequence = np.random.SeedSequence

    def spy(entropy, *args, **kwargs):
        streams.append(tuple(entropy))
        return seed_sequence(entropy, *args, **kwargs)

    monkeypatch.setattr(limits.np.random, "SeedSequence", spy)
    limitcheck_rows(SWEEP_SPEC, SWEEP, target=0.95, outer=100, inner=100, seed=9)
    assert streams == [(9, i) for i in range(100)]  # not 3 x 100


def test_sweep_solves_every_penalty_per_outer_draw_in_order(monkeypatch):
    # one call per outer draw, its rows stacked penalty-major in the order
    # given, each block at its own penalty, the zero penalty's too
    calls = []
    solve = limits._solve

    def spy(Q, B, lam, *args):
        calls.append((tuple(lam), B.shape))
        return solve(Q, B, lam, *args)

    monkeypatch.setattr(limits, "_solve", spy)
    limiting_coverage_mc(SWEEP_SPEC, (0.0,) + SWEEP, [0.9] * 4, outer=100, inner=150, seed=3)
    assert calls == [(tuple(np.repeat((0.0,) + SWEEP, 151)), (604, 3))] * 100


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_rows_equal_single_spec_calls(workers):
    lambdas, levels = (0.0, 0.7, 2.0), (0.9, 0.95, 0.99)
    sweep = limiting_coverage_mc(SWEEP_SPEC, lambdas, levels, outer=100, inner=100,
                                 seed=13, workers=workers)
    assert sweep.shape == (3, 3)
    for row, lam, level in zip(sweep, lambdas, levels):
        single = limiting_coverage_mc(SWEEP_SPEC, [lam], [level], outer=100, inner=100,
                                      seed=13)
        assert single.shape == (1, 3)
        assert np.array_equal(row, single[0])
    # one level per coordinate: each column reads its own level
    per_coordinate = limiting_coverage_mc(SWEEP_SPEC, lambdas, np.tile(levels, (3, 1)),
                                          outer=100, inner=100, seed=13, workers=workers)
    for j, level in enumerate(levels):
        single = limiting_coverage_mc(SWEEP_SPEC, lambdas, [level] * 3, outer=100,
                                      inner=100, seed=13)
        assert np.array_equal(per_coordinate[:, j], single[:, j])


def test_sweep_rejects_levels_that_do_not_match_the_penalties():
    spec = eye_spec([1.0, 0.0])
    for lambdas, levels in (([0.5, 0.5], [0.9]), ([], []), ([0.5], [[0.9, 0.9, 0.9]]),
                            ([0.5, 1.0], [[0.9, 0.9]])):
        with pytest.raises(ValueError, match="one level per penalty"):
            limiting_coverage_mc(spec, lambdas, levels, outer=100, inner=100, seed=0)
    assert limitcheck_rows(spec, [], target=0.95, outer=100, inner=100, seed=0) == []


def test_sweep_failure_names_penalty(monkeypatch):
    # the kernel names the failing rows by penalty and role, and the outer
    # draw, its penalties and the seed lead the message
    def fail_at_two(Q, B, lam, signs, U0, buffers, name):
        kkt = np.where(lam == 2.0, 1e-3, 0.0)
        raise NoConvergence(f"residual 1.000e-03 > tol 1.0e-10; {_worst_rows(kkt, 1e-10, name)}")

    monkeypatch.setattr(limits, "_solve", fail_at_two)
    message = (r"^outer draw 0 \(lambda0=0.5,1,2, seed=21\): residual 1.000e-03 > tol 1.0e-10; "
               r"101 of 303 rows above tol, worst: lambda0=2, xi \(1.000e-03\), "
               r"lambda0=2, T\* draw 0 \(1.000e-03\), lambda0=2, T\* draw 1 ")
    with pytest.raises(NoConvergence, match=message):
        limiting_coverage_mc(SWEEP_SPEC, SWEEP, [0.9] * 3, outer=100, inner=100, seed=21)


def test_sweep_failure_from_the_kernel_names_outer_draw_and_rows(monkeypatch):
    # a real failure: one sweep cannot certify an ar1 C at p = 20
    monkeypatch.setattr(projection, "MAX_SWEEPS", 1)
    message = (r"^outer draw 0 \(lambda0=0,0.5,1, seed=4\): residual \S+ > tol 1.0e-10 after 1 "
               r"sweeps; \d+ of 303 rows above tol, worst: lambda0=(0|0.5|1), "
               r"(xi|T\* draw \d+) \(")
    with pytest.raises(NoConvergence, match=message):
        limiting_coverage_mc(ar1_spec(), (0.0, 0.5, 1.0), [0.9] * 3, outer=100, inner=100,
                             seed=4)


def test_coverage_failure_names_outer_draw(monkeypatch):
    def fail(*args, **kwargs):
        raise NoConvergence("residual 1.0e-03 > tol 1.0e-10")

    monkeypatch.setattr("sparseproj.limits._solve", fail)
    with pytest.raises(NoConvergence,
                       match=r"outer draw 0 \(lambda0=0.5, seed=21\): residual"):
        limiting_coverage_mc(eye_spec([1.0, 0.0]), [0.5], [0.9], outer=100, inner=100,
                             seed=21)


@pytest.mark.parametrize("c, sigma0, lambda0", [(4.0, 1.0, 2.0), (0.25, 1.0, 0.5),
                                                (1.0, 2.0, 2.0)])
def test_limitcheck_rows_calibrate_at_the_effective_penalty(c, sigma0, lambda0):
    # At C = cI the substitution v = sigma0 w / sqrt(c) maps the limit problem
    # onto the unit-scale one at penalty lambda0 / (sigma0 sqrt(c)) = 1, with
    # every |T* - xi| scaled by a power of two: the rows equal those of
    # C = I, sigma0 = 1, lambda0 = 1 bit for bit, and each signal is covered
    # at the target within 3 standard errors.  Calibrated at lambda0 sqrt(c) /
    # sigma0 instead, C = 4I and lambda0 = 2 read 0.998.
    spec = LimitSpec(C=c * np.eye(3), sigma0=sigma0, theta0_signs=(1, -1, 0))
    rows = limitcheck_rows(spec, [lambda0], target=0.95, outer=600, inner=800, seed=2)
    unit = limitcheck_rows(SWEEP_SPEC, [1.0], target=0.95, outer=600, inner=800, seed=2)
    keys = ("coordinate", "role", "level", "estimate", "mc_se", "analytic")
    assert [[row[k] for k in keys] for row in rows] == [[row[k] for k in keys] for row in unit]
    se = np.sqrt(0.95 * 0.05 / 600)
    for row in rows[:2]:
        assert abs(row["estimate"] - 0.95) <= 3 * se, row


def test_limitcheck_rows_level_per_coordinate():
    # a Gram diagonal that differs across coordinates gives each coordinate
    # the level and analytic value of its own effective penalty
    spec = LimitSpec(C=np.diag([1.0, 4.0, 0.25]), sigma0=1.0, theta0_signs=(1, -1, 0))
    rows = limitcheck_rows(spec, [1.0], target=0.95, outer=100, inner=100, seed=0)
    for row, lam in zip(rows, (1.0, 0.5, 2.0)):
        level, psi_signal, psi_noise = solve_gamma(lam, 0.95)
        assert row["level"] == level
        assert row["analytic"] == (psi_noise if row["role"] == "noise" else psi_signal)


# --- zero_mass_probability ---------------------------------------------------

def test_zero_mass_saturates_for_huge_penalty():
    est = zero_mass_probability(eye_spec([1.0, 0.0]), 10.0, np.zeros(2), inner=10_000,
                                seed=0)
    assert est >= 0.999


def test_zero_mass_zero_penalty():
    spec = eye_spec([1.0, 0.0])
    assert zero_mass_probability(spec, 0.0, np.zeros(2), inner=1000, seed=0) == 0.0


def test_zero_mass_unit_penalty_value():
    # P(|N(0,1)| <= 1/2) = Phi(.5) - Phi(-.5)
    expected = 0.38292492254802624
    spec = eye_spec([1.0, 0.0])
    inner = 10_000
    est = zero_mass_probability(spec, 1.0, np.zeros(2), inner=inner, seed=1)
    se = np.sqrt(expected * (1.0 - expected) / inner)
    assert abs(est - expected) <= 3 * se
    assert est == pytest.approx(0.38292, abs=3 * se)


def test_zero_mass_strictly_positive_with_any_positive_penalty():
    rng = np.random.default_rng(5)
    spec = eye_spec([1.0, -1.0, 0.0])
    est = zero_mass_probability(spec, 0.5, rng.standard_normal(3), inner=10_000, seed=2)
    assert est > 0.0


def test_zero_mass_requires_noise_coordinate():
    # checked at every penalty: a zero one used to return 0.0 unchecked
    spec = eye_spec([1.0, -1.0])
    for lambda0 in (0.0, 1.0):
        with pytest.raises(ValueError, match="spec has no noise coordinate"):
            zero_mass_probability(spec, lambda0, np.zeros(2), inner=1000, seed=0)


# --- limitcheck_rows ---------------------------------------------------------

def test_limitcheck_rows_layout():
    rows = limitcheck_rows(eye_spec([1.0, 0.0]), [0.5], target=0.95, outer=100, inner=100,
                           seed=0)
    assert len(rows) == 2
    level, psi_signal, psi_noise = solve_gamma(0.5, 0.95)
    sig, noi = rows
    assert sig["role"] == "signal" and noi["role"] == "noise"
    assert sig["coordinate"] == 0 and noi["coordinate"] == 1
    for row in rows:
        assert row["lambda0"] == 0.5
        assert row["level"] == level
        assert 0.0 <= row["estimate"] <= 1.0
        est = row["estimate"]
        assert row["mc_se"] == pytest.approx(np.sqrt(est * (1 - est) / 100))
    assert sig["analytic"] == psi_signal
    assert noi["analytic"] == psi_noise


def test_limitcheck_rows_rng_stream_pinned():
    # The RNG-stream contract: outer draw i reads the (seed, i) stream, delta
    # first and then the inner W* draws, so these estimates never move when
    # the Monte-Carlo pass is restructured.
    rows = limitcheck_rows(SWEEP_SPEC, SWEEP, target=0.95, outer=100, inner=100, seed=0)
    assert [row["estimate"] for row in rows] == [
        0.91, 0.96, 0.95, 0.92, 0.97, 0.97, 0.93, 0.96, 1.0]
