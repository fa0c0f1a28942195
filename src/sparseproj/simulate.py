"""The fit pipeline that `sparseproj fit` and the coverage studies share.

fit_dataset picks the penalty (the default recipe: half the CV minimizer),
factorizes the posterior, calibrates a per-component credibility level,
solves the LASSO center and the projections of a batch of posterior draws
in one certified batch and reads off componentwise intervals.  A
replication of a coverage study generates a dataset (generate_data, its
data stage), runs fit_dataset at the scenario's penalty (the default recipe
when it has none) and records which intervals caught the true
coefficients.  Replications are independent tasks with RNG streams keyed
by (seed, rep_index), so results are identical for any worker count;
aggregation walks records in replication order.  Each run of consecutive
replications works in one set of draw buffers (draw_buffers), which every
fit overwrites in full.
"""

from __future__ import annotations

import io
import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .calibration import effective_penalty, solve_levels
from .errors import SparseProjError
from .posterior import factorize, sample_posterior_arrays
from .projection import cross_validate_lambda, project_draws
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
    (draws, p) projected draws (rows 1.. of the F-ordered batch, as
    project_draws returns them), center the LASSO estimate (a fresh array),
    [lo, hi] the componentwise intervals (degenerate where of zero length)
    and max_kkt the worst KKT residual of the center and the projected
    draws.

    When fit_dataset was given buffers, draws is the rows-1.. view of their
    first array, which the next fit in the same buffers overwrites;
    otherwise it is fresh."""

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


def draw_buffers(draws: int, p: int) -> tuple[np.ndarray, ...]:
    """The four F-ordered (draws + 1, p) arrays one fit_dataset pass works
    in: project_draws' buffers (U, B, G, S), row 0 the LASSO center's.

    U holds the solutions, whose rows 1.. FitResult keeps as its draws; B
    the right-hand sides; G and S certificate work.  Before projection G
    holds the normals and S the posterior draws, each C-ordered in the
    array's leading draws * p entries; after it, G's rows 1.. hold the
    interval sort.  U is allocated first, so the three work arrays lie
    above it on the heap and can go back to the system once the caller
    drops them.
    """
    return tuple(np.empty((draws + 1, p), order="F") for _ in range(4))


def _c_rows(a: np.ndarray, rows: int) -> np.ndarray:
    """The leading entries of the F-ordered a, as a C-ordered (rows, p)
    array."""
    return a.ravel(order="F")[:rows * a.shape[1]].reshape(rows, a.shape[1])


def fit_dataset(ds: Dataset, lam: float | None, draws: int, post_seed: int,
                prior: PriorConfig, *, target: float | None = None, level: float | None = None,
                buffers: tuple[np.ndarray, ...] | None = None) -> FitResult:
    """Fit the projection posterior to ds at penalty lam, on the
    (1/n)||Y - Xu||^2 + lam*||u||_1 scale, with draws posterior draws from
    the stream post_seed, projected in one certified batch whose row 0 is
    the LASSO center (project_draws).  lam = None is the default recipe:
    half the minimizer of cross_validate_lambda on ds's folds.  Give exactly
    one of target (component j's level is calibrated at
    effective_penalty(lambda0, c_j, sigma_hat), c_j its Gram diagonal, in
    one solve_levels call) and level (used for every j).

    buffers is a draw_buffers(draws, ds.p) set that the caller owns and
    reuses: every array in it is overwritten, and FitResult.draws is the
    rows-1.. view of its first array.  Without it the pass allocates a set
    of its own, so every array it returns is fresh.  The result does not
    depend on which."""
    if (target is None) == (level is None):
        raise ValueError("give exactly one of target and level")
    if lam is None:
        # CV minimizes prediction error on this objective's scale; the
        # projection takes the penalty on the classical (2n)-normalized LASSO
        # scale, i.e. half of that minimizer, keeping lambda0 = lambda_n*sqrt(n)
        # inside the calibrated range instead of over-shrinking the draws
        lam = 0.5 * cross_validate_lambda(ds)
    lam0 = lam * math.sqrt(ds.n)
    fact = factorize(ds, prior)
    m = fact.ridge_mean
    # ||Y - Xm||^2/n from the statistics; rounding can take it below 0 when Y
    # lies near the span of X
    sigma_hat = math.sqrt(max(ds.yty / ds.n - 2.0 * float(m @ ds.xty)
                              + float(m @ ds.gram @ m), 0.0))
    if target is None:
        levels = np.full(ds.p, float(level))
    else:
        # a sigma_hat of 0 makes the penalties infinite, which solve_levels rejects
        levels = solve_levels(effective_penalty(lam0, np.diag(ds.gram), sigma_hat), target)

    if buffers is None:
        buffers = draw_buffers(draws, ds.p)
    elif len(buffers) != 4 or any(b.shape != (draws + 1, ds.p) or b.dtype != np.float64
                                  or not b.flags.f_contiguous for b in buffers):
        raise ValueError(f"buffers must be a draw_buffers({draws}, {ds.p}) set")
    work, spare = buffers[2:]
    thetas, _ = sample_posterior_arrays(fact, draws, post_seed, out=_c_rows(spare, draws),
                                        normals=_c_rows(work, draws))
    center, U, kkt = project_draws(ds, thetas, lam, buffers=buffers)
    lo, hi, degenerate = component_intervals(U, center, levels, work=work[1:])
    return FitResult(lambda_n=lam, lambda0=lam0, sigma_hat=sigma_hat, levels=levels,
                     draws=U, center=center, lo=lo, hi=hi, degenerate=degenerate,
                     max_kkt=float(kkt.max()))


def _is_number(value, kind=numbers.Real) -> bool:
    """value is a kind (numbers.Real or numbers.Integral) and not a bool,
    which Python counts as an integer but a config means as a flag."""
    return isinstance(value, kind) and not isinstance(value, bool)


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
            if not _is_number(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("rho", "error_sd", "target_coverage", "lambda_n"):
            value = getattr(self, name)
            if not (_is_number(value) or value is None and name == "lambda_n"):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if self.n < 1 or self.p < 1:
            raise ValueError(f"n and p must be at least 1, got n = {self.n}, p = {self.p}")
        for j, value in enumerate(np.asarray(self.theta0, dtype=object).ravel().tolist()):
            if not _is_number(value):
                raise ValueError(f"theta0 must hold numbers, got {value!r} at index {j}")
        theta0 = frozen_copy(self.theta0).ravel()
        object.__setattr__(self, "theta0", theta0)
        if theta0.shape[0] != self.p:
            raise ValueError("theta0 must have length p")
        if not np.isfinite(theta0).all():
            j = int(np.flatnonzero(~np.isfinite(theta0))[0])
            raise ValueError(f"theta0 must be finite, got {theta0[j]} at index {j}")
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
    selection_freq: np.ndarray
    replications: int
    runtime: float = 0.0
    mean_lambda_n: float = 0.0
    mean_lambda0: float = 0.0
    mean_level: float = 0.0
    max_kkt: float = 0.0


def _rep_seeds(seed: int, rep_index: int) -> tuple[int, int]:
    """The CV fold seed and posterior sampling seed of a replication."""
    state = np.random.SeedSequence((int(seed), int(rep_index))).generate_state(3)
    return int(state[1]), int(state[2])


def generate_data(scenario: Scenario, rep_index: int) -> Dataset:
    """Simulate one dataset for the scenario, deterministic in (seed,
    rep_index): the rows from the replication's data stream, and
    scenario.cv_folds CV folds from its CV seed when the replication
    cross-validates (lambda_n is None), none otherwise.  This is the data
    stage of every replication."""
    rng = np.random.default_rng(
        np.random.SeedSequence((int(scenario.seed), int(rep_index), 0xDA7A)))
    X, Y = _rows(scenario, rng)
    folds = scenario.cv_folds if scenario.lambda_n is None else 0
    return validate_dataset(X, Y, folds=folds,
                            fold_seed=_rep_seeds(scenario.seed, rep_index)[0])


def _rows(scenario: Scenario, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The design X and response Y of the scenario, drawn from rng."""
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


def run_replication(scenario: Scenario, rep_index: int,
                    buffers: tuple[np.ndarray, ...] | None = None) -> ReplicationRecord:
    """One full pipeline pass; records per-component interval hits.  buffers
    is an optional draw_buffers set for fit_dataset; the record is the same
    with or without it."""
    try:
        fit = fit_dataset(generate_data(scenario, rep_index), scenario.lambda_n,
                          scenario.draws_per_rep, _rep_seeds(scenario.seed, rep_index)[1],
                          PriorConfig(), target=scenario.target_coverage, buffers=buffers)
    except SparseProjError as exc:
        raise type(exc)(f"replication {rep_index}: {exc}") from exc

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
                          selection_freq=selected.mean(axis=0),
                          replications=R,
                          mean_lambda_n=float(np.mean([r.lambda_n for r in records])),
                          mean_lambda0=float(np.mean([r.lambda0 for r in records])),
                          mean_level=float(np.mean([r.levels.mean() for r in records])),
                          max_kkt=max(r.max_kkt for r in records))


def run_scenario(scenario: Scenario, workers: int = 1) -> CoverageReport:
    """Run all replications (optionally in parallel) and aggregate.

    Per-replication RNG streams make the report independent of the worker
    count; only the runtime field varies between runs.  Workers take
    contiguous chunks of replication indices, about four per worker.
    """
    start = time.perf_counter()
    reps = scenario.replications
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        chunks = min(reps, 4 * workers)
        bounds = [reps * k // chunks for k in range(chunks + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            recs = [rec for part in pool.map(_run_chunk, [scenario] * chunks,
                                             map(range, bounds[:-1], bounds[1:]))
                    for rec in part]
    else:
        recs = _run_chunk(scenario, range(reps))
    report = aggregate(recs)
    return replace(report, runtime=time.perf_counter() - start)


def _run_chunk(scenario: Scenario, indices: range) -> list[ReplicationRecord]:
    """The replications at indices, in order, all in one set of draw buffers."""
    buffers = draw_buffers(scenario.draws_per_rep, scenario.p)
    return [run_replication(scenario, i, buffers) for i in indices]


def sparsity_sweep(base: Scenario, s_values: list[int],
                   workers: int = 1) -> list[CoverageReport]:
    """Coverage as sparsity grows: re-run the scenario with the first s
    coefficients set to 1 and the rest to 0, for each s.  Every s must be an
    integer in [0, p]; all are checked before the first run."""
    for s in s_values:
        if not _is_number(s, numbers.Integral):
            raise ValueError(f"s must be an integer, got {s!r}")
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
