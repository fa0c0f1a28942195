"""Coverage-study harness: data generation laws, single replications,
aggregation, worker invariance, and the CSV table layouts."""

import math
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from sparseproj import calibration, projection, simulate
from sparseproj.errors import InsufficientData, NoConvergence
from sparseproj.simulate import (
    CAPTION_SIGNALS,
    DEFAULT_SIGNALS,
    ReplicationRecord,
    Scenario,
    aggregate,
    draw_buffers,
    fit_dataset,
    generate_data,
    report_to_csv,
    run_replication,
    run_scenario,
    signal_vector,
    sparsity_sweep,
    sweep_to_csv,
)
from sparseproj.types import PriorConfig, validate_dataset


def data_rng(sc, rep_index):
    """The data stream of replication rep_index."""
    return np.random.default_rng(np.random.SeedSequence((sc.seed, rep_index, 0xDA7A)))


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
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"theta0 must be finite, got {value} at index 1"):
            make_scenario(theta0=np.array([1.0, value, 0.0]))
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
    X, _ = simulate._rows(sc, data_rng(sc, 0))
    for k in (0, 1):
        corr = np.corrcoef(X[:, k], X[:, k + 1])[0, 1]
        assert corr == pytest.approx(0.7, abs=0.01)
    assert X.var(axis=0) == pytest.approx(np.ones(3), abs=0.02)


def test_independent_columns_uncorrelated():
    sc = make_scenario(n=100_000, p=3, replications=1)
    X, _ = simulate._rows(sc, data_rng(sc, 0))
    corr = np.corrcoef(X, rowvar=False)
    off = corr[~np.eye(3, dtype=bool)]
    assert np.abs(off).max() < 0.01


def test_null_signal_response_variance():
    sc = make_scenario(n=100_000, p=2, theta0=np.zeros(2), replications=1)
    _, Y = simulate._rows(sc, data_rng(sc, 0))
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
    X, Y = simulate._rows(sc, data_rng(sc, 1))
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


@pytest.mark.parametrize("sd", [0.5, 2.0])
def test_fit_dataset_covers_signals_at_any_column_scale(sd):
    # Columns of s.d. sd have Gram diagonal c = sd^2, and the component
    # interval of coordinate j is calibrated at lambda0 / (sigma_hat sqrt(c_j)).
    # n = 1000, lambda0 = 2, R = 400 replications: each signal's coverage
    # lies within 4 binomial standard errors of the 0.95 target
    # ([0.906, 0.994]); 1000 replications of 2000 draws gave 0.942 at sd = 0.5
    # and 0.955 at sd = 2.  Calibrated at lambda0 sqrt(c_j) / sigma_hat instead, the
    # signals are covered about 0.6 at sd = 0.5 and 1.0 at sd = 2.
    n, R, draws, target = 1000, 400, 1000, 0.95
    theta = np.array([1.0, -1.0, 0.0])
    rng = np.random.default_rng(7)
    buffers = draw_buffers(draws, 3)
    covered = np.zeros(3)
    for r in range(R):
        X = sd * rng.standard_normal((n, 3))
        Y = X @ theta + rng.standard_normal(n)
        fit = fit_dataset(validate_dataset(X, Y), 2.0 / math.sqrt(n), draws, r, PriorConfig(),
                          target=target, buffers=buffers)
        covered += (fit.lo <= theta) & (theta <= fit.hi)
    coverage = covered / R
    bound = 4.0 * math.sqrt(target * (1.0 - target) / R)
    assert np.all(np.abs(coverage[:2] - target) <= bound), coverage
    assert coverage[2] >= target - bound, coverage


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


def assert_same_record(a, b):
    """Every field of two replication records equal bit for bit."""
    for f in fields(ReplicationRecord):
        x, y = np.asarray(getattr(a, f.name)), np.asarray(getattr(b, f.name))
        assert x.dtype == y.dtype and x.shape == y.shape, f.name
        assert x.tobytes() == y.tobytes(), (a.rep_index, f.name)


@pytest.mark.parametrize("design", ["independent", "ar1"])
@pytest.mark.parametrize("lambda_n", [0.2, None])
def test_reused_buffers_leak_no_state(monkeypatch, design, lambda_n):
    # run_scenario runs its replications in one set of draw buffers (one per
    # chunk with workers: 12 replications in 8 chunks puts two in some);
    # each record must equal its replication run alone
    sc = make_scenario(n=60, p=5, theta0=np.array([1.5, -1.0, 0.5, 0.0, 0.0]),
                       design=design, lambda_n=lambda_n, cv_folds=5, replications=12,
                       draws_per_rep=200, seed=3)
    alone = [run_replication(sc, i) for i in range(sc.replications)]
    for workers in (1, 2):
        seen = []
        monkeypatch.setattr(simulate, "aggregate",
                            lambda recs, real=aggregate: seen.extend(recs) or real(recs))
        run_scenario(sc, workers=workers)
        assert [r.rep_index for r in seen] == list(range(sc.replications))
        for rec, ref in zip(seen, alone):
            assert_same_record(rec, ref)


@pytest.mark.parametrize("lambda_n", [0.5, None])
def test_one_rng_stream_setup_per_replication(monkeypatch, lambda_n):
    # a replication draws its data once, in generate_data (its data stage),
    # whose dataset comes from the replication's (seed, rep_index, 0xDA7A)
    # data stream
    calls = []
    real = simulate.generate_data
    monkeypatch.setattr(simulate, "generate_data",
                        lambda sc, i: calls.append(i) or real(sc, i))
    rows = []
    real_rows = simulate._rows
    monkeypatch.setattr(simulate, "_rows", lambda sc, rng: rows.append(1) or real_rows(sc, rng))
    sc = make_scenario(replications=3, lambda_n=lambda_n, cv_folds=4)
    run_scenario(sc)
    assert calls == [0, 1, 2] and len(rows) == 3
    ds = generate_data(sc, 2)
    X, Y = real_rows(sc, data_rng(sc, 2))
    np.testing.assert_array_equal(ds.gram, validate_dataset(X, Y).gram)


def test_replication_after_a_failed_one_matches_fresh(monkeypatch):
    sc = make_scenario(n=60, p=5, theta0=np.array([1.5, -1.0, 0.5, 0.0, 0.0]),
                       lambda_n=0.2, draws_per_rep=200, seed=3)
    buffers = draw_buffers(sc.draws_per_rep, sc.p)

    def failing_sweep(*args, real=projection._sweep):
        real(*args)
        for b in buffers:  # leave every buffer poisoned, as a crash might
            b.fill(np.nan)
        raise NoConvergence("injected")

    monkeypatch.setattr(projection, "_sweep", failing_sweep)
    with pytest.raises(NoConvergence, match="replication 0: .*injected"):
        run_replication(sc, 0, buffers)
    monkeypatch.undo()
    for i in (1, 0):
        assert_same_record(run_replication(sc, i, buffers), run_replication(sc, i))


def test_fit_dataset_without_buffers_returns_fresh_arrays():
    ds = generate_data(make_scenario(n=60, p=3, theta0=np.array([1.0, 0.0, 0.0])), 0)
    a = fit_dataset(ds, 0.2, 50, 1, PriorConfig(), target=0.95)
    b = fit_dataset(ds, 0.2, 50, 1, PriorConfig(), target=0.95)
    assert not np.shares_memory(a.draws, b.draws)
    np.testing.assert_array_equal(a.draws, b.draws)
    buffers = draw_buffers(50, 3)
    c = fit_dataset(ds, 0.2, 50, 1, PriorConfig(), target=0.95, buffers=buffers)
    # documented: the rows-1.. view of the caller's first array, whose row 0
    # is the center; the center itself is a fresh array
    assert c.draws.base is buffers[0] and c.draws.shape == (50, 3)
    assert np.shares_memory(c.draws, buffers[0][1:])
    assert not np.shares_memory(c.center, buffers[0])
    np.testing.assert_array_equal(buffers[0][0], c.center)
    np.testing.assert_array_equal(c.draws, a.draws)
    np.testing.assert_array_equal(c.center, a.center)
    one_row_short = tuple(np.empty((50, 3), order="F") for _ in range(4))
    c_ordered = tuple(np.empty((51, 3)) for _ in range(4))
    single = tuple(np.empty((51, 3), np.float32, order="F") for _ in range(4))
    for wrong in (draw_buffers(60, 3), draw_buffers(50, 3)[:3], one_row_short, c_ordered,
                  single):
        with pytest.raises(ValueError, match=r"draw_buffers\(50, 3\) set"):
            fit_dataset(ds, 0.2, 50, 1, PriorConfig(), target=0.95, buffers=wrong)


def test_steady_replications_take_few_page_faults():
    # one set of draw buffers serves every replication, so a steady run
    # faults in almost no fresh pages: about 6-14 minor faults per
    # replication here, against about 500 when each replication allocated
    # its own (2000, 20) arrays
    resource = pytest.importorskip("resource")
    if not sys.platform.startswith("linux"):
        pytest.skip("minor page fault counts are read on Linux")
    sc = Scenario(n=500, p=20, theta0=signal_vector(20), replications=20,
                  draws_per_rep=2000, lambda_n=0.3 / math.sqrt(500), seed=1)
    run_scenario(replace(sc, replications=2))  # code pages, BLAS and heap warm
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_scenario(sc)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / sc.replications < 100, faults


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
