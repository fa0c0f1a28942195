"""The fit pipeline that `sparseproj fit` and the coverage studies share.

fit_dataset factorizes the posterior, computes the LASSO center, calibrates
a per-component credibility level, projects a batch of posterior draws and
reads off componentwise intervals.  A replication of a coverage study
generates a dataset, picks the penalty (CV by default), runs fit_dataset and
records which intervals caught the true coefficients.  Replications are
independent tasks with RNG streams keyed by (seed, rep_index), so results
are identical for any worker count; aggregation walks records in replication
order.
"""

from __future__ import annotations

import io
import math
import operator
import time
from dataclasses import dataclass, replace

import numpy as np

from .calibration import solve_levels
from .errors import SparseProjError
from .posterior import factorize, sample_posterior_arrays
from .projection import cross_validate_lambda, fit_lasso, project_draws
from .regions import component_intervals
from .types import Dataset, PriorConfig, frozen_copy, validate_dataset

DEFAULT_SIGNALS = (-2.0, -1.5, 0.5, 1.0, 2.0)
# the variant quoted alongside the reference coverage table ends in 1.5
CAPTION_SIGNALS = (-2.0, -1.5, 0.5, 1.0, 1.5)


def signal_vector(p: int, caption_variant: bool = False) -> np.ndarray:
    """Default true coefficients: the five signal values then zeros."""
    sig = CAPTION_SIGNALS if caption_variant else DEFAULT_SIGNALS
    if p < len(sig):
        raise ValueError(f"p = {p} too small for the {len(sig)} default signals")
    theta = np.zeros(p)
    theta[: len(sig)] = sig
    return theta


@dataclass(frozen=True)
class FitResult:
    """One pass of the method: lambda0 = lambda_n * sqrt(n), sigma_hat from
    the ridge residual, levels[j] the credibility of component j, draws the
    (draws, p) projected draws (F-ordered, as project_draws returns them),
    center the LASSO estimate, [lo, hi] the componentwise intervals
    (degenerate where of zero length) and max_kkt the worst KKT residual of
    the projected draws."""

    lambda_n: float
    lambda0: float
    sigma_hat: float
    levels: np.ndarray
    draws: np.ndarray
    center: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    degenerate: np.ndarray
    max_kkt: float


def fit_dataset(ds: Dataset, lam: float, draws: int, post_seed: int, prior: PriorConfig,
                *, target: float | None = None, level: float | None = None) -> FitResult:
    """Fit the projection posterior to ds at penalty lam, on the
    (1/n)||Y - Xu||^2 + lam*||u||_1 scale, with draws posterior draws from
    the stream post_seed, projected warm-started at the LASSO center.  Give
    exactly one of target (component j's level is calibrated from its
    effective penalty lambda0*sqrt(c_j)/sigma_hat, c_j its Gram diagonal, in
    one solve_levels call) and level (used for every j)."""
    if (target is None) == (level is None):
        raise ValueError("give exactly one of target and level")
    lam0 = lam * math.sqrt(ds.n)
    fact = factorize(ds, prior)
    center = fit_lasso(ds, lam)
    m = fact.ridge_mean
    # ||Y - Xm||^2/n from the statistics; rounding can take it below 0 when Y
    # lies near the span of X
    sigma_hat = math.sqrt(max(ds.yty / ds.n - 2.0 * float(m @ ds.xty)
                              + float(m @ ds.gram @ m), 0.0))
    if target is None:
        levels = np.full(ds.p, float(level))
    else:
        # a sigma_hat of 0 makes the penalties infinite, which solve_levels rejects
        with np.errstate(divide="ignore"):
            levels = solve_levels(lam0 * np.sqrt(np.diag(ds.gram)) / sigma_hat, target)

    thetas, _ = sample_posterior_arrays(fact, draws, post_seed)
    U, kkt = project_draws(ds, thetas, lam, warm=center)
    lo, hi, degenerate = component_intervals(U, center, levels)
    return FitResult(lambda_n=lam, lambda0=lam0, sigma_hat=sigma_hat, levels=levels,
                     draws=U, center=center, lo=lo, hi=hi, degenerate=degenerate,
                     max_kkt=float(kkt.max()))


@dataclass(frozen=True)
class Scenario:
    """A coverage-study configuration.

    design is "independent" (iid standard normal entries) or "ar1" (each row
    a stationary AR(1) path with lag-1 correlation rho and unit marginal
    variance).  lambda_n = None means cross-validate per replication.
    """

    n: int
    p: int
    theta0: np.ndarray
    design: str = "independent"
    rho: float = 0.7
    error_sd: float = 1.0
    replications: int = 200
    draws_per_rep: int = 2000
    target_coverage: float = 0.95
    seed: int = 0
    lambda_n: float | None = None
    cv_folds: int = 10

    def __post_init__(self):
        for name in ("n", "p", "replications", "draws_per_rep", "cv_folds", "seed"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.n < 1 or self.p < 1:
            raise ValueError(f"n and p must be at least 1, got n = {self.n}, p = {self.p}")
        theta0 = frozen_copy(self.theta0).ravel()
        object.__setattr__(self, "theta0", theta0)
        if theta0.shape[0] != self.p:
            raise ValueError("theta0 must have length p")
        if self.design not in ("independent", "ar1"):
            raise ValueError(f"unknown design {self.design!r}")
        if self.design == "ar1" and not abs(self.rho) < 1:
            raise ValueError("ar1 requires |rho| < 1")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.draws_per_rep < 2:
            raise ValueError("draws_per_rep must be at least 2")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be at least 2")
        if self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed}")
        if not 0.0 < self.target_coverage < 1.0:
            raise ValueError("target_coverage must lie in (0, 1)")
        if not 0.0 < self.error_sd < math.inf:
            raise ValueError(f"error_sd must be positive and finite, got {self.error_sd}")
        if self.lambda_n is not None and not 0.0 < self.lambda_n < math.inf:
            raise ValueError(f"fixed lambda_n must be positive and finite, got {self.lambda_n}")


@dataclass(frozen=True)
class ReplicationRecord:
    rep_index: int
    lambda_n: float
    lambda0: float
    sigma_hat: float
    levels: np.ndarray      # calibrated credibility per component
    covered: np.ndarray     # 0/1 per component
    lengths: np.ndarray
    selected: np.ndarray    # fraction of draws keeping each component
    degenerate: np.ndarray  # 0/1 per component: radius collapsed to 0
    max_kkt: float


@dataclass(frozen=True)
class CoverageReport:
    """Aggregated study results; all arrays are per component.

    runtime is wall-clock seconds for the whole run; it and the diagnostic
    summaries (mean penalties, mean level, worst KKT residual) are
    deliberately not part of the CSV output, which must be reproducible
    byte for byte.
    """

    coverage: np.ndarray
    mc_se: np.ndarray
    mean_length: np.ndarray
    selection_freq: dict[int, float]
    replications: int
    runtime: float = 0.0
    mean_lambda_n: float = 0.0
    mean_lambda0: float = 0.0
    mean_level: float = 0.0
    max_kkt: float = 0.0


def _rep_streams(seed: int, rep_index: int) -> tuple[np.random.Generator, int, int]:
    """Per-replication RNG channels: data generator plus derived child seeds
    for CV fold assignment and posterior sampling."""
    root = np.random.SeedSequence((int(seed), int(rep_index)))
    state = root.generate_state(3)
    data_rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(rep_index), 0xDA7A)))
    return data_rng, int(state[1]), int(state[2])


def generate_data(scenario: Scenario, rep_index: int) -> Dataset:
    """Simulate one dataset for the scenario, deterministic in (seed,
    rep_index), with scenario.cv_folds CV folds drawn from the replication's
    CV stream when the replication cross-validates (lambda_n is None), and
    none otherwise."""
    X, Y = simulate_rows(scenario, rep_index)
    _, cv_seed, _ = _rep_streams(scenario.seed, rep_index)
    folds = scenario.cv_folds if scenario.lambda_n is None else 0
    return validate_dataset(X, Y, folds=folds, fold_seed=cv_seed)


def simulate_rows(scenario: Scenario, rep_index: int) -> tuple[np.ndarray, np.ndarray]:
    """The design X and response Y behind generate_data(scenario, rep_index)."""
    rng, _, _ = _rep_streams(scenario.seed, rep_index)
    n, p = scenario.n, scenario.p
    if scenario.design == "independent":
        X = rng.standard_normal((n, p))
    else:
        eps = rng.standard_normal((n, p))
        X = np.empty((n, p))
        X[:, 0] = eps[:, 0]
        scale = math.sqrt(1.0 - scenario.rho ** 2)
        for k in range(1, p):  # stationary AR(1) across columns, unit variance
            X[:, k] = scenario.rho * X[:, k - 1] + scale * eps[:, k]
    Y = X @ scenario.theta0 + scenario.error_sd * rng.standard_normal(n)
    return X, Y


def run_replication(scenario: Scenario, rep_index: int) -> ReplicationRecord:
    """One full pipeline pass; records per-component interval hits."""
    try:
        return _run_replication(scenario, rep_index)
    except SparseProjError as exc:
        raise type(exc)(f"replication {rep_index}: {exc}") from exc


def _run_replication(scenario: Scenario, rep_index: int) -> ReplicationRecord:
    ds = generate_data(scenario, rep_index)
    _, _, post_seed = _rep_streams(scenario.seed, rep_index)

    if scenario.lambda_n is not None:
        lam = float(scenario.lambda_n)
    else:
        # CV minimizes prediction error on this objective's scale; the
        # projection takes the penalty on the classical (2n)-normalized LASSO
        # scale, i.e. half of that minimizer, keeping lambda0 = lambda_n*sqrt(n)
        # inside the calibrated range instead of over-shrinking the draws
        lam = 0.5 * cross_validate_lambda(ds)
    fit = fit_dataset(ds, lam, scenario.draws_per_rep, post_seed, PriorConfig(),
                      target=scenario.target_coverage)

    # degenerate radii are expected under heavy shrinkage; recorded, not printed
    theta0 = scenario.theta0
    covered = ((fit.lo <= theta0) & (theta0 <= fit.hi)).astype(float)
    return ReplicationRecord(rep_index=rep_index, lambda_n=fit.lambda_n,
                             lambda0=fit.lambda0, sigma_hat=fit.sigma_hat,
                             levels=fit.levels, covered=covered, lengths=fit.hi - fit.lo,
                             selected=(fit.draws != 0.0).mean(axis=0),
                             degenerate=fit.degenerate.astype(float), max_kkt=fit.max_kkt)


def aggregate(records: list[ReplicationRecord]) -> CoverageReport:
    """Means of indicators and lengths per component, in replication order."""
    if not records:
        raise ValueError("no records to aggregate")
    records = sorted(records, key=lambda r: r.rep_index)
    covered = np.stack([r.covered for r in records])
    lengths = np.stack([r.lengths for r in records])
    selected = np.stack([r.selected for r in records])
    R = len(records)
    coverage = covered.mean(axis=0)
    mc_se = np.sqrt(coverage * (1.0 - coverage) / R)
    return CoverageReport(coverage=coverage, mc_se=mc_se,
                          mean_length=lengths.mean(axis=0),
                          selection_freq={j: float(f) for j, f in
                                          enumerate(selected.mean(axis=0))},
                          replications=R,
                          mean_lambda_n=float(np.mean([r.lambda_n for r in records])),
                          mean_lambda0=float(np.mean([r.lambda0 for r in records])),
                          mean_level=float(np.mean([r.levels.mean() for r in records])),
                          max_kkt=max(r.max_kkt for r in records))


def run_scenario(scenario: Scenario, workers: int = 1) -> CoverageReport:
    """Run all replications (optionally in parallel) and aggregate.

    Per-replication RNG streams make the report independent of the worker
    count; only the runtime field varies between runs.
    """
    start = time.perf_counter()
    indices = range(scenario.replications)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            recs = list(pool.map(_rep_task, [(scenario, i) for i in indices],
                                 chunksize=max(1, scenario.replications // (4 * workers))))
    else:
        recs = [run_replication(scenario, i) for i in indices]
    report = aggregate(recs)
    return replace(report, runtime=time.perf_counter() - start)


def _rep_task(args) -> ReplicationRecord:
    return run_replication(*args)


def sparsity_sweep(base: Scenario, s_values: list[int],
                   workers: int = 1) -> list[CoverageReport]:
    """Coverage as sparsity grows: re-run the scenario with the first s
    coefficients set to 1 and the rest to 0, for each s.  Every s must be an
    integer in [0, p]; all are checked before the first run."""
    for s in s_values:
        try:
            operator.index(s)
        except TypeError:
            raise ValueError(f"s must be an integer, got {s!r}") from None
        if not 0 <= s <= base.p:
            raise ValueError(f"s = {s} lies outside [0, p = {base.p}]")
    reports = []
    for s in s_values:
        theta0 = np.zeros(base.p)
        theta0[:s] = 1.0
        reports.append(run_scenario(replace(base, theta0=theta0), workers=workers))
    return reports


def report_to_csv(report: CoverageReport, scenario: Scenario) -> str:
    """Coverage-table CSV: one row per component (runtime excluded so the
    bytes are reproducible)."""
    out = io.StringIO()
    out.write("design,n,component,role,coverage,mc_se,mean_length,selection_freq\n")
    for j in range(scenario.p):
        role = "signal" if scenario.theta0[j] != 0 else "noise"
        out.write(f"{scenario.design},{scenario.n},{j},{role},"
                  f"{report.coverage[j]:.10g},{report.mc_se[j]:.10g},"
                  f"{report.mean_length[j]:.10g},{report.selection_freq[j]:.10g}\n")
    return out.getvalue()


def sweep_to_csv(reports: list[CoverageReport], base: Scenario,
                 s_values: list[int]) -> str:
    """Sparsity-sweep CSV: mean signal/noise coverage per s."""
    out = io.StringIO()
    out.write("s,level,n,signal_coverage,noise_coverage\n")
    for s, rep in zip(s_values, reports):
        sig = rep.coverage[:s]
        noi = rep.coverage[s:]
        sig_mean = f"{sig.mean():.10g}" if sig.size else "nan"
        noi_mean = f"{noi.mean():.10g}" if noi.size else "nan"
        out.write(f"{s},{base.target_coverage:g},{base.n},{sig_mean},{noi_mean}\n")
    return out.getvalue()
