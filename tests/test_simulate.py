"""Coverage-study harness: data generation laws, single replications,
aggregation, worker invariance, and the CSV table layouts."""

from dataclasses import replace

import numpy as np
import pytest

from sparseproj import calibration
from sparseproj.errors import InsufficientData
from sparseproj.simulate import (
    CAPTION_SIGNALS,
    DEFAULT_SIGNALS,
    ReplicationRecord,
    Scenario,
    aggregate,
    fit_dataset,
    generate_data,
    report_to_csv,
    run_replication,
    run_scenario,
    signal_vector,
    simulate_rows,
    sparsity_sweep,
    sweep_to_csv,
)
from sparseproj.types import PriorConfig, validate_dataset


def make_scenario(**kw):
    base = dict(n=40, p=3, theta0=np.zeros(3), replications=2, draws_per_rep=50,
                seed=0, lambda_n=0.5)
    base.update(kw)
    return Scenario(**base)


# --- configuration guards ----------------------------------------------------

def test_scenario_validation():
    with pytest.raises(ValueError):
        make_scenario(theta0=np.zeros(2))
    with pytest.raises(ValueError):
        make_scenario(design="toeplitz")
    with pytest.raises(ValueError):
        make_scenario(design="ar1", rho=1.0)
    with pytest.raises(ValueError):
        make_scenario(replications=0)
    with pytest.raises(ValueError):
        make_scenario(draws_per_rep=1)
    with pytest.raises(ValueError):
        make_scenario(target_coverage=1.0)
    with pytest.raises(ValueError):
        make_scenario(error_sd=0.0)
    with pytest.raises(ValueError):
        make_scenario(lambda_n=0.0)
    for field in ("lambda_n", "error_sd"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
                make_scenario(**{field: value})
    for folds in (1, 0):
        with pytest.raises(ValueError, match="cv_folds must be at least 2"):
            make_scenario(cv_folds=folds)
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got -3"):
        make_scenario(seed=-3)
    with pytest.raises(ValueError, match="p must be an integer, got 3.0"):
        make_scenario(p=3.0)
    for n in (0, -5):
        with pytest.raises(ValueError, match=f"n and p must be at least 1, got n = {n}"):
            make_scenario(n=n)
    with pytest.raises(ValueError, match="n and p must be at least 1"):
        make_scenario(p=0, theta0=np.zeros(0))
    for field in ("n", "p", "replications", "draws_per_rep", "cv_folds", "seed"):
        for value in (2.5, 10.0, "10"):
            with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
                make_scenario(**{field: value})


def test_signal_vector_layout():
    theta = signal_vector(8)
    np.testing.assert_array_equal(theta[:5], DEFAULT_SIGNALS)
    np.testing.assert_array_equal(theta[5:], 0.0)
    cap = signal_vector(6, caption_variant=True)
    np.testing.assert_array_equal(cap[:5], CAPTION_SIGNALS)
    assert cap[4] == 1.5
    with pytest.raises(ValueError):
        signal_vector(4)


# --- generate_data -----------------------------------------------------------

def test_ar1_lag_one_correlation():
    sc = make_scenario(n=100_000, p=3, design="ar1", rho=0.7, replications=1)
    X, _ = simulate_rows(sc, 0)
    for k in (0, 1):
        corr = np.corrcoef(X[:, k], X[:, k + 1])[0, 1]
        assert corr == pytest.approx(0.7, abs=0.01)
    assert X.var(axis=0) == pytest.approx(np.ones(3), abs=0.02)


def test_independent_columns_uncorrelated():
    sc = make_scenario(n=100_000, p=3, replications=1)
    X, _ = simulate_rows(sc, 0)
    corr = np.corrcoef(X, rowvar=False)
    off = corr[~np.eye(3, dtype=bool)]
    assert np.abs(off).max() < 0.01


def test_null_signal_response_variance():
    sc = make_scenario(n=100_000, p=2, theta0=np.zeros(2), replications=1)
    _, Y = simulate_rows(sc, 0)
    assert Y.var() == pytest.approx(1.0, abs=0.02)
    assert Y.mean() == pytest.approx(0.0, abs=0.02)


def test_generate_data_deterministic():
    sc = make_scenario()
    a = generate_data(sc, 1)
    b = generate_data(sc, 1)
    for name in ("gram", "xty", "yty", "fold_gram", "fold_xty", "fold_n"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    c = generate_data(sc, 2)
    assert not np.array_equal(a.gram, c.gram)
    # one block: the Gram carries the bits of X'X itself
    X, Y = simulate_rows(sc, 1)
    gram = X.T @ X / sc.n
    np.testing.assert_array_equal(a.gram, 0.5 * (gram + gram.T))
    np.testing.assert_array_equal(a.xty, X.T @ Y / sc.n)
    # a fixed penalty runs no CV, so no fold statistics are built; with CV
    # they are, and the other statistics keep their bits
    assert a.fold_n.size == 0
    cv = generate_data(replace(sc, lambda_n=None), 1)
    assert cv.fold_n.size == sc.cv_folds and cv.fold_n.sum() == sc.n
    for name in ("gram", "xty", "yty"):
        np.testing.assert_array_equal(getattr(cv, name), getattr(a, name))


# --- run_replication ---------------------------------------------------------

def test_full_shrinkage_covers_null_truth():
    sc = make_scenario(n=50, p=3, theta0=np.zeros(3), lambda_n=50.0,
                       draws_per_rep=100)
    rec = run_replication(sc, 0)
    np.testing.assert_array_equal(rec.covered, 1.0)
    np.testing.assert_array_equal(rec.lengths, 0.0)
    np.testing.assert_array_equal(rec.degenerate, 1.0)
    np.testing.assert_array_equal(rec.selected, 0.0)
    assert rec.lambda0 == pytest.approx(50.0 * np.sqrt(50))


def test_fit_dataset_calibrates_levels_without_psi_zero(monkeypatch):
    def forbidden(*args):
        raise AssertionError("fit_dataset evaluated psi_zero")

    monkeypatch.setattr(calibration, "psi_zero", forbidden)
    ds = generate_data(make_scenario(n=60, p=3, theta0=np.array([1.0, 0.0, 0.0])), 0)
    fit = fit_dataset(ds, 0.2, 50, 1, PriorConfig(), target=0.95)
    assert np.all((0.95 < fit.levels) & (fit.levels < 1.0))


def test_fit_dataset_rejects_zero_sigma_hat():
    # Y = 0 gives a zero ridge residual, so every effective penalty is infinite
    X = np.random.default_rng(0).standard_normal((30, 3))
    with pytest.raises(ValueError, match="must be finite and nonnegative, got inf"):
        fit_dataset(validate_dataset(X, np.zeros(30)), 0.1, 50, 1, PriorConfig(),
                    target=0.95)


def test_replication_record_fields():
    sc = make_scenario(n=60, p=3, theta0=np.array([1.0, 0.0, 0.0]),
                       lambda_n=0.2, draws_per_rep=80)
    rec = run_replication(sc, 4)
    assert rec.rep_index == 4
    assert rec.lambda_n == 0.2
    assert rec.lambda0 == pytest.approx(0.2 * np.sqrt(60))
    assert rec.sigma_hat > 0
    assert np.all((rec.levels > 0) & (rec.levels < 1))
    assert set(np.unique(rec.covered)) <= {0.0, 1.0}
    assert np.all(rec.lengths >= 0)
    assert np.all((rec.selected >= 0) & (rec.selected <= 1))
    assert rec.max_kkt <= 1e-8


def test_replication_deterministic():
    sc = make_scenario(lambda_n=None, cv_folds=5)
    a = run_replication(sc, 0)
    b = run_replication(sc, 0)
    assert a.lambda_n == b.lambda_n
    np.testing.assert_array_equal(a.covered, b.covered)
    np.testing.assert_array_equal(a.lengths, b.lengths)
    np.testing.assert_array_equal(a.levels, b.levels)


def test_replication_error_carries_index():
    sc = make_scenario(n=5, p=2, theta0=np.zeros(2), lambda_n=None,
                       cv_folds=10)
    with pytest.raises(InsufficientData, match="replication 3: "):
        run_replication(sc, 3)


def test_tiny_penalty_recovers_nominal_coverage():
    # unpenalized limit: intervals behave like plain posterior quantiles
    sc = make_scenario(n=60, p=2, theta0=np.array([1.0, -1.0]),
                       lambda_n=1e-6, replications=100, draws_per_rep=400,
                       target_coverage=0.95, seed=7)
    report = run_scenario(sc)
    se = np.sqrt(0.95 * 0.05 / sc.replications)
    for j in range(sc.p):
        assert abs(report.coverage[j] - 0.95) <= 3 * se, (j, report.coverage)


# --- aggregate ---------------------------------------------------------------

def record(idx, covered, lengths=None, selected=None):
    covered = np.asarray(covered, dtype=float)
    p = covered.size
    return ReplicationRecord(
        rep_index=idx, lambda_n=0.1, lambda0=0.1, sigma_hat=1.0,
        levels=np.full(p, 0.95), covered=covered,
        lengths=np.ones(p) if lengths is None else np.asarray(lengths, float),
        selected=np.full(p, 0.5) if selected is None else np.asarray(selected, float),
        degenerate=np.zeros(p), max_kkt=0.0)


def test_aggregate_single_record_identity():
    rec = record(0, [1.0, 0.0], lengths=[0.3, 0.7], selected=[1.0, 0.25])
    rep = aggregate([rec])
    np.testing.assert_array_equal(rep.coverage, rec.covered)
    np.testing.assert_array_equal(rep.mean_length, rec.lengths)
    assert rep.selection_freq == {0: 1.0, 1: 0.25}
    assert rep.replications == 1
    np.testing.assert_array_equal(rep.mc_se, 0.0)


def test_aggregate_three_quarters():
    recs = [record(i, [c]) for i, c in enumerate([1.0, 1.0, 0.0, 1.0])]
    rep = aggregate(recs)
    assert rep.coverage[0] == 0.75
    assert rep.mc_se[0] == pytest.approx(np.sqrt(0.75 * 0.25 / 4))


def test_aggregate_order_independent():
    recs = [record(i, [float(i % 2)]) for i in range(5)]
    fwd = aggregate(recs)
    rev = aggregate(list(reversed(recs)))
    np.testing.assert_array_equal(fwd.coverage, rev.coverage)
    np.testing.assert_array_equal(fwd.mean_length, rev.mean_length)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate([])


# --- run_scenario ------------------------------------------------------------

def test_run_scenario_worker_invariance():
    sc = make_scenario(n=40, p=3, replications=6, draws_per_rep=100,
                       lambda_n=0.1, seed=5)
    one = run_scenario(sc, workers=1)
    two = run_scenario(sc, workers=2)
    np.testing.assert_array_equal(one.coverage, two.coverage)
    np.testing.assert_array_equal(one.mc_se, two.mc_se)
    np.testing.assert_array_equal(one.mean_length, two.mean_length)
    assert one.selection_freq == two.selection_freq
    assert one.max_kkt == two.max_kkt
    assert 0.0 <= one.coverage.min() and one.coverage.max() <= 1.0
    assert one.runtime > 0


# --- sparsity_sweep ----------------------------------------------------------

def test_sparsity_sweep_edges_and_csv():
    base = make_scenario(n=30, p=4, theta0=np.zeros(4), replications=2,
                         draws_per_rep=50, lambda_n=0.5)
    s_values = [0, 2, 4]
    reports = sparsity_sweep(base, s_values)
    assert len(reports) == 3
    csv = sweep_to_csv(reports, base, s_values)
    lines = csv.strip().split("\n")
    assert lines[0] == "s,level,n,signal_coverage,noise_coverage"
    assert len(lines) == 4
    row0 = lines[1].split(",")
    assert row0[0] == "0" and row0[1] == "0.95" and row0[2] == "30"
    assert row0[3] == "nan"          # no signal components at s = 0
    float(row0[4])
    row_full = lines[3].split(",")
    assert row_full[4] == "nan"      # no noise components at s = p
    float(row_full[3])


def test_sparsity_sweep_rejects_s_above_p():
    base = make_scenario(p=3)
    with pytest.raises(ValueError):
        sparsity_sweep(base, [4])
    for s, message in ((-1, r"s = -1 lies outside \[0, p = 3\]"),
                       (2.7, "s must be an integer, got 2.7"),
                       (2.0, "s must be an integer, got 2.0")):
        with pytest.raises(ValueError, match=message):
            sparsity_sweep(base, [s])
    with pytest.raises(ValueError):  # checked before any replication runs
        sparsity_sweep(base, [0, 4])


# --- CSV layout --------------------------------------------------------------

def test_report_to_csv_layout():
    sc = make_scenario(n=40, p=3, theta0=np.array([1.0, 0.0, -2.0]),
                       replications=3, draws_per_rep=60, lambda_n=0.3)
    rep = run_scenario(sc)
    lines = report_to_csv(rep, sc).strip().split("\n")
    assert lines[0] == "design,n,component,role,coverage,mc_se,mean_length,selection_freq"
    assert len(lines) == 1 + sc.p
    roles = []
    for j, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == "independent" and cells[1] == "40"
        assert int(cells[2]) == j
        roles.append(cells[3])
        for cell in cells[4:]:
            float(cell)
    assert roles == ["signal", "noise", "signal"]


def test_report_csv_reproducible_across_workers():
    sc = make_scenario(n=40, p=2, theta0=np.array([1.0, 0.0]), replications=4,
                       draws_per_rep=60, lambda_n=0.3, seed=9)
    a = report_to_csv(run_scenario(sc, workers=1), sc)
    b = report_to_csv(run_scenario(sc, workers=2), sc)
    assert a == b
