"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines inline;
without -s they still appear in the captured-output section of any failure.
The two long-running studies (the limit-coverage sweep and the finite-sample
coverage study) execute once in module-scoped fixtures and feed checks 5, 7,
and 9, so the whole gate stays well inside its time budgets.

Every numeric gate carries its tolerance next to the assertion.  Monte Carlo
gates compare against binomial standard errors at the reference value, never
against the estimate's own (possibly zero) standard error.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from oracles import (enumerate_min, kkt_batch_reference, level_by_bisection, objective,
                     random_spd)
from sparseproj.calibration import (
    TABLE_TARGETS,
    psi,
    psi_zero,
    solve_levels,
)
from sparseproj.cli import main
from sparseproj.limits import LimitSpec, limitcheck_rows, zero_mass_probability
from sparseproj.posterior import factorize, sample_posterior_arrays
from sparseproj.projection import _solve, fit_lasso
from sparseproj.simulate import Scenario, report_to_csv, run_scenario, signal_vector
from sparseproj.types import PriorConfig, validate_dataset

# Reference calibrated levels, rounded to 4 decimals: one row per penalty,
# columns for targets 0.9, 0.925, 0.95, 0.975, 0.99.  Frozen from an
# external tabulation of the same quantile equation.
REFERENCE_ROWS = (
    (0.05, 0.9001, 0.9251, 0.9501, 0.9751, 0.9900),
    (0.1, 0.9004, 0.9254, 0.9503, 0.9752, 0.9901),
    (0.15, 0.9009, 0.9258, 0.9506, 0.9754, 0.9902),
    (0.2, 0.9017, 0.9264, 0.9511, 0.9757, 0.9904),
    (0.25, 0.9026, 0.9272, 0.9517, 0.9761, 0.9906),
    (0.3, 0.9037, 0.9282, 0.9525, 0.9765, 0.9909),
    (0.35, 0.9050, 0.9293, 0.9534, 0.9771, 0.9910),
    (0.4, 0.9066, 0.9306, 0.9543, 0.9777, 0.9914),
    (0.45, 0.9082, 0.9320, 0.9554, 0.9784, 0.9917),
    (0.5, 0.9100, 0.9335, 0.9566, 0.9790, 0.9920),
    (0.55, 0.9120, 0.9352, 0.9578, 0.9798, 0.9924),
    (0.6, 0.9141, 0.9369, 0.9591, 0.9806, 0.9927),
    (0.65, 0.9163, 0.9387, 0.9605, 0.9814, 0.9931),
    (0.7, 0.9186, 0.9406, 0.9619, 0.9822, 0.9934),
    (0.75, 0.9210, 0.9426, 0.9634, 0.9830, 0.9938),
    (0.8, 0.9235, 0.9446, 0.9649, 0.9838, 0.9942),
    (0.85, 0.9262, 0.9468, 0.9664, 0.9846, 0.9945),
    (0.9, 0.9288, 0.9488, 0.9679, 0.9854, 0.9948),
    (0.95, 0.9314, 0.9510, 0.9694, 0.9862, 0.9952),
    (1.0, 0.9340, 0.9530, 0.9708, 0.9871, 0.9955),
    (1.1, 0.9394, 0.9572, 0.9737, 0.9885, 0.9961),
    (1.2, 0.9446, 0.9613, 0.9765, 0.9899, 0.9966),
    (1.3, 0.9498, 0.9652, 0.9791, 0.9912, 0.9971),
    (1.4, 0.9546, 0.9688, 0.9815, 0.9923, 0.9976),
    (1.5, 0.9593, 0.9722, 0.9837, 0.9934, 0.9979),
    (1.6, 0.9636, 0.9754, 0.9857, 0.9943, 0.9982),
    (1.7, 0.9676, 0.9783, 0.9875, 0.9951, 0.9985),
    (1.8, 0.9713, 0.9810, 0.9891, 0.9958, 0.9987),
    (1.9, 0.9746, 0.9833, 0.9906, 0.9964, 0.9989),
    (2.0, 0.9776, 0.9854, 0.9918, 0.9959, 0.9991),
    (2.2, 0.9828, 0.9889, 0.9939, 0.9978, 0.9994),
    (2.4, 0.9869, 0.9917, 0.9956, 0.9984, 0.9996),
    (2.6, 0.9901, 0.9939, 0.9968, 0.9988, 0.9997),
    (2.8, 0.9927, 0.9955, 0.9977, 0.9992, 0.9998),
    (3.0, 0.9946, 0.9967, 0.9983, 0.9994, 0.9998),
    (3.5, 0.9976, 0.9986, 0.9993, 0.9998, 0.9999),
    (4.0, 0.9990, 0.9994, 0.9997, 0.9999, 1.0000),
)

# Cells where the reference print contradicts its own neighbors: both root
# solvers below agree with each other to 1e-9 yet differ from the printed
# figure by > 5e-4, so the print is treated as a transcription error.
KNOWN_BAD_CELLS = {(2.0, 0.975)}


def _verdict(num: int, name: str, problems: list[str], details: str) -> None:
    """Print the one official line for this check, then assert."""
    ok = not problems
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({details})")
    if len(problems) > 8:
        problems = problems[:8] + [f"... and {len(problems) - 8} more"]
    assert ok, "; ".join(problems)


# --- shared studies ----------------------------------------------------------


@pytest.fixture(scope="module")
def limit_verification():
    """Limit-coverage sweep at both worker counts, identical inputs."""

    spec = LimitSpec(C=np.eye(3), sigma0=1.0, theta0_signs=(1, -1, 0))
    out = {}
    for workers in (1, 8):
        start = time.perf_counter()
        rows = limitcheck_rows(spec, (0.5, 1.0, 2.0), target=0.95,
                               outer=2000, inner=2000, seed=0, workers=workers)
        out[workers] = (rows, time.perf_counter() - start)
    return out


class StudyRun:
    def __init__(self, report, csv: str, seconds: float):
        self.report = report
        self.csv = csv
        self.seconds = seconds


@pytest.fixture(scope="module")
def coverage_study():
    """Coverage study at n in {500, 1000}, each run at 1 and at 8 workers.

    The penalty is fixed on the 1/sqrt(n) scale so the rescaled penalty stays
    at 0.3 for every n, inside the band where the calibrated level sits near
    the target and the limiting noise coverage stays clear of 1.
    """

    def scenario(n: int) -> Scenario:
        return Scenario(n=n, p=20, theta0=signal_vector(20),
                        design="independent", replications=200,
                        draws_per_rep=2000, target_coverage=0.95, seed=5,
                        lambda_n=0.3 / math.sqrt(n))

    out = {}
    for n in (500, 1000):
        sc = scenario(n)
        for workers in (1, 8):
            start = time.perf_counter()
            rep = run_scenario(sc, workers=workers)
            out[(n, workers)] = StudyRun(rep, report_to_csv(rep, sc),
                                         time.perf_counter() - start)
    return out


# --- the nine checks ---------------------------------------------------------


def test_criterion_1_calibration_table(capsys):
    start = time.perf_counter()
    assert main(["table"]) == 0
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start

    problems: list[str] = []
    lines = out.strip().splitlines()
    expected_header = "lambda," + ",".join(str(t) for t in TABLE_TARGETS)
    if lines[0] != expected_header:
        problems.append(f"unexpected header {lines[0]!r}")
    cells: dict[tuple[float, float], float] = {}
    for line in lines[1:]:
        parts = line.split(",")
        lam = float(parts[0])
        for tgt, text in zip(TABLE_TARGETS, parts[1:]):
            cells[(lam, tgt)] = float(text)
    if len(cells) != 185:
        problems.append(f"expected 185 printed cells, parsed {len(cells)}")

    flagged: set[tuple[float, float]] = set()
    worst_ok = 0.0
    for row in REFERENCE_ROWS:
        lam, refs = row[0], row[1:]
        for tgt, ref in zip(TABLE_TARGETS, refs):
            dev = abs(cells[(lam, tgt)] - ref)
            if dev > 5e-4:
                flagged.add((lam, tgt))
            else:
                worst_ok = max(worst_ok, dev)
    if flagged != KNOWN_BAD_CELLS:
        problems.append(
            f"cells beyond 5e-4: {sorted(flagged)}, expected {sorted(KNOWN_BAD_CELLS)}")

    # on the flagged cells the package's level solve and the independent
    # bisection oracle must agree at full precision while both contradict
    # the print
    ref_by_cell = {(row[0], tgt): ref
                   for row in REFERENCE_ROWS
                   for tgt, ref in zip(TABLE_TARGETS, row[1:])}
    for lam, tgt in sorted(flagged):
        bis = level_by_bisection(lam, tgt)
        newt = float(solve_levels([lam], tgt)[0])
        if abs(bis - newt) > 1e-9:
            problems.append(
                f"solver routes disagree at {(lam, tgt)}: {abs(bis - newt):.2e}")
        if abs(bis - ref_by_cell[(lam, tgt)]) <= 5e-4:
            problems.append(
                f"cell {(lam, tgt)} matches at full precision; flag unjustified")
    if elapsed >= 1.0:
        problems.append(f"table run took {elapsed:.2f}s, budget 1s")

    _verdict(1, "calibration-table", problems,
             f"185 cells vs 4-decimal reference, worst agreeing dev "
             f"{worst_ok:.1e}, flagged {sorted(flagged)}, {elapsed * 1e3:.0f}ms")


def test_criterion_2_zero_penalty_and_dominance():
    start = time.perf_counter()
    problems: list[str] = []
    for alpha in (0.01, 0.05, 0.1, 0.25):
        for fn in (psi, psi_zero):
            dev = abs(fn(alpha, 0.0) - (1.0 - alpha))
            if dev > 1e-12:
                problems.append(f"{fn.__name__}({alpha}, 0) off by {dev:.1e}")
    min_margin = math.inf
    for k in range(1, 41):
        lam = round(0.1 * k, 1)
        for alpha in (0.01, 0.05, 0.1):
            margin = psi_zero(alpha, lam) - psi(alpha, lam)
            min_margin = min(min_margin, margin)
            if margin < -1e-12:
                problems.append(
                    f"noise coverage below signal at alpha={alpha}, lambda0={lam}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _verdict(2, "zero-penalty-and-dominance", problems,
             f"8 identities at 1e-12, dominance margin >= {min_margin:.2e} "
             f"over 120 grid points, {elapsed * 1e3:.0f}ms")


def test_criterion_3_projection_vs_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(314159)
    problems: list[str] = []
    worst_kkt = 0.0
    worst_gap = -math.inf
    for k in range(1000):
        p = int(rng.integers(1, 9))
        Q = random_spd(rng, p)
        b = rng.standard_normal(p) * rng.uniform(0.5, 3.0)
        lam = float(rng.uniform(0.05, 2.0))
        signs = np.where(rng.random(p) < 0.35,
                         rng.choice([-1, 1], size=p), 0).astype(int)
        U, _ = _solve(Q, b[None], lam, signs.astype(float), np.zeros((1, p)))
        u = U[0]
        kkt = float(kkt_batch_reference(Q, b[None], lam, signs, U)[0])
        _, f_ref = enumerate_min(Q, b, lam, signs)
        gap = objective(Q, b, lam, signs, u) - f_ref
        worst_kkt = max(worst_kkt, kkt)
        worst_gap = max(worst_gap, gap)
        if kkt > 1e-10:
            problems.append(f"problem {k}: kkt residual {kkt:.2e} > 1e-10")
        if gap > 1e-8:
            problems.append(
                f"problem {k}: objective above sign-pattern optimum by {gap:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s, budget 30s")
    _verdict(3, "projection-vs-enumeration", problems,
             f"1000 random problems (p <= 8, signed and unsigned), worst kkt "
             f"{worst_kkt:.1e}, worst objective gap {worst_gap:.1e}, {elapsed:.1f}s")


def test_criterion_4_least_squares_projection_is_lasso():
    start = time.perf_counter()
    rng = np.random.default_rng(271828)
    problems: list[str] = []
    worst = 0.0
    for k in range(100):
        X = rng.standard_normal((200, 5))
        Y = X @ rng.standard_normal(5) + rng.standard_normal(200)
        ds = validate_dataset(X, Y)
        lam = float(rng.uniform(0.05, 1.0))
        theta_ls = np.linalg.solve(ds.gram, ds.xty)
        U, _ = _solve(ds.gram, (ds.gram @ theta_ls)[None], lam, np.zeros(5),
                      np.zeros((1, 5)))
        via_projection = U[0]
        direct = fit_lasso(ds, lam)
        dev = float(np.abs(via_projection - direct).max())
        worst = max(worst, dev)
        if dev > 1e-8:
            problems.append(f"dataset {k}: coordinate gap {dev:.2e} > 1e-8")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s, budget 10s")
    _verdict(4, "least-squares-projection-is-lasso", problems,
             f"100 datasets (n=200, p=5), worst coordinate gap {worst:.1e}, "
             f"{elapsed * 1e3:.0f}ms")


def test_criterion_5_limiting_coverage(limit_verification):
    rows, elapsed = limit_verification[1]
    problems: list[str] = []
    if len(rows) != 9:
        problems.append(f"expected 9 rows (3 penalties x 3 coordinates), got {len(rows)}")
    target_se = math.sqrt(0.95 * 0.05 / 2000)
    worst_sig = 0.0
    worst_noise = 0.0
    for row in rows:
        est = row["estimate"]
        if row["role"] == "signal":
            dev = abs(est - 0.95)
            worst_sig = max(worst_sig, dev / target_se)
            if dev > 3 * target_se:
                problems.append(
                    f"signal coord {row['coordinate']} at lambda0={row['lambda0']}: "
                    f"estimate {est:.4f} is {dev / target_se:.2f} se from 0.95")
        else:
            an = row["analytic"]
            an_se = math.sqrt(an * (1.0 - an) / 2000)
            if est < 0.95 - 3 * target_se:
                problems.append(
                    f"noise coord at lambda0={row['lambda0']}: estimate {est:.4f} "
                    f"below the target floor")
            dev = abs(est - an)
            worst_noise = max(worst_noise, dev / an_se)
            if dev > 3 * an_se:
                problems.append(
                    f"noise coord at lambda0={row['lambda0']}: estimate {est:.4f} "
                    f"is {dev / an_se:.2f} se from analytic {an:.4f}")
    if elapsed >= 300.0:
        problems.append(f"took {elapsed:.1f}s, budget 300s")
    _verdict(5, "limiting-coverage", problems,
             f"9 rows at 2000x2000 draws, worst signal dev {worst_sig:.2f} se, "
             f"worst noise dev {worst_noise:.2f} se vs analytic, {elapsed:.1f}s")


def test_criterion_6_exact_zero_mass():
    start = time.perf_counter()
    problems: list[str] = []
    spec = LimitSpec(C=np.eye(2), sigma0=1.0, theta0_signs=(1, 0))
    for lam in (0.3, 1.0, 2.0):
        if zero_mass_probability(spec, lam, np.zeros(2), inner=4000, seed=11) <= 0.0:
            problems.append(f"no sparse mass at lambda0={lam}")
    est = zero_mass_probability(spec, 1.0, np.zeros(2), inner=10_000, seed=2)
    ref = 0.38292492254802624  # P(|N(0,1)| <= 1/2), the soft-threshold atom
    se = math.sqrt(ref * (1.0 - ref) / 10_000)
    dev = abs(est - ref)
    if dev > 3 * se:
        problems.append(
            f"centered zero-mass estimate {est:.4f} is {dev / se:.2f} se from {ref:.5f}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s, budget 10s")
    _verdict(6, "exact-zero-mass", problems,
             f"positive atom at 3 penalties, centered case {est:.4f} vs "
             f"{ref:.5f} ({dev / se:.2f} se), {elapsed * 1e3:.0f}ms")


def test_criterion_7_finite_sample_coverage(coverage_study):
    problems: list[str] = []
    rep500 = coverage_study[(500, 1)].report
    sig = rep500.coverage[:5]
    noise = rep500.coverage[5:]
    for j, c in enumerate(sig):
        if not 0.90 <= c <= 0.97:
            problems.append(f"signal component {j}: coverage {c:.3f} outside [0.90, 0.97]")
    for j, c in enumerate(noise, start=5):
        if not 0.91 <= c <= 0.99:
            problems.append(f"noise component {j}: coverage {c:.3f} outside [0.91, 0.99]")
    m500 = float(rep500.coverage.mean())
    m1000 = float(coverage_study[(1000, 1)].report.coverage.mean())
    if m1000 < m500 - 0.01:
        problems.append(
            f"mean coverage fell from {m500:.4f} (n=500) to {m1000:.4f} (n=1000)")
    elapsed = coverage_study[(500, 1)].seconds + coverage_study[(1000, 1)].seconds
    if elapsed >= 1200.0:
        problems.append(f"took {elapsed:.0f}s, budget 1200s")
    _verdict(7, "finite-sample-coverage", problems,
             f"n=500: signal [{sig.min():.3f}, {sig.max():.3f}], noise "
             f"[{noise.min():.3f}, {noise.max():.3f}], mean {m500:.4f} -> "
             f"{m1000:.4f} at n=1000, {elapsed:.0f}s")


def test_criterion_8_posterior_moments():
    start = time.perf_counter()
    problems: list[str] = []
    count = 100_000
    cases = ((80, 4, 101, 17), (150, 6, 202, 18), (60, 3, 303, 19))
    for case, (n, p, data_seed, draw_seed) in enumerate(cases):
        rng = np.random.default_rng(data_seed)
        X = rng.standard_normal((n, p))
        Y = X @ rng.standard_normal(p) + rng.standard_normal(n)
        ds = validate_dataset(X, Y)
        fact = factorize(ds, PriorConfig(a_n=1.0))
        thetas, sigmas = sample_posterior_arrays(fact, count, seed=draw_seed)

        tau = sigmas ** -2.0
        tau_se = math.sqrt(fact.gamma_shape) / fact.gamma_rate / math.sqrt(count)
        tau_dev = abs(float(tau.mean()) - fact.gamma_shape / fact.gamma_rate)
        if tau_dev > 3 * tau_se:
            problems.append(f"case {case}: precision mean {tau_dev / tau_se:.2f} se off")

        cov = np.linalg.inv(n * ds.gram + np.eye(p))
        exp_sigma2 = fact.gamma_rate / (fact.gamma_shape - 1.0)
        mean_se = np.sqrt(np.diag(exp_sigma2 * cov) / count)
        if np.any(np.abs(thetas.mean(axis=0) - fact.ridge_mean) > 4 * mean_se):
            problems.append(f"case {case}: coefficient mean outside 4 se")

        w = ((thetas - fact.ridge_mean) @ fact.precision_chol) / sigmas[:, None]
        if np.any(np.abs(w.mean(axis=0)) > 4 / math.sqrt(count)):
            problems.append(f"case {case}: whitened mean nonzero")
        var_dev = float(np.abs(w.var(axis=0) - 1.0).max())
        if var_dev > 0.03:
            problems.append(f"case {case}: whitened variance off unit by {var_dev:.3f}")
        off = float(np.abs(np.cov(w.T) - np.eye(p)).max())
        if off > 0.03:
            problems.append(f"case {case}: whitened cross-moment off by {off:.3f}")
    elapsed = time.perf_counter() - start
    if elapsed >= 20.0:
        problems.append(f"took {elapsed:.1f}s, budget 20s")
    _verdict(8, "posterior-moments", problems,
             f"3 datasets x {count} draws: precision mean, coefficient mean, "
             f"whitened second moments all inside bounds, {elapsed:.1f}s")


def test_criterion_9_worker_determinism(limit_verification, coverage_study):
    problems: list[str] = []
    rows1, _ = limit_verification[1]
    rows8, _ = limit_verification[8]
    if rows1 != rows8:
        problems.append("limit sweep rows differ between workers 1 and 8")
    for n in (500, 1000):
        if coverage_study[(n, 1)].csv != coverage_study[(n, 8)].csv:
            problems.append(f"coverage CSV differs between worker counts at n={n}")
        r1 = coverage_study[(n, 1)].report
        r8 = coverage_study[(n, 8)].report
        if not (np.array_equal(r1.coverage, r8.coverage)
                and np.array_equal(r1.mean_length, r8.mean_length)
                and np.array_equal(r1.selection_freq, r8.selection_freq)):
            problems.append(f"report arrays differ between worker counts at n={n}")
    _verdict(9, "worker-determinism", problems,
             "limit rows and coverage reports byte-identical for workers 1 vs 8")
