"""Layer spans recorded from outside the program.

`Tracer.install` replaces each layer's public function, wherever a loaded
`sparseproj` module binds it (for example `sparseproj.cli.project_draws` and
`sparseproj.simulate.project_draws`), with a wrapper that records a span:
name, start, end, parent span and run id.  Start and end are read from the
process CPU clock, as the worker times whole iterations.  Spans stay in
memory until the worker writes them out.  `layer_metrics` turns one run's
spans into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
import sys
import time

# layer module -> public functions whose spans make up the layer
LAYERS = {
    "dataio": ("dataset_from_csv",),
    "posterior": ("factorize", "sample_posterior_arrays"),
    "projection": ("cross_validate_lambda", "fit_lasso", "project_draws"),
    "regions": ("component_interval", "model_probabilities"),
    "calibration": ("solve_gamma",),
    "limits": ("limitcheck_rows", "limiting_coverage_mc"),
    "simulate": ("run_scenario", "run_replication", "generate_data"),
}
COMMAND_SPAN = "cli.main"
DEFAULT_CV_GRID = 100  # default_lambda_grid(num=100)


def maxrss_mb() -> float:
    """Peak resident set size of this process image in MiB.

    VmHWM starts afresh at exec.  getrusage's ru_maxrss does not: it carries
    the parent's peak into the child, which would report the benchmark's own
    input generation as the program's memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _annotate(name: str, bound, result) -> dict:
    """Counts taken at the layer boundary from arguments and results."""
    if name == "projection.project_draws":
        U, kkt = result
        return {"draws": int(U.shape[0]), "nonzero": int((U != 0.0).sum()),
                "entries": int(U.size), "max_kkt": float(kkt.max())}
    if name == "projection.cross_validate_lambda":
        grid = bound.arguments.get("grid")
        points = DEFAULT_CV_GRID if grid is None else len(grid)
        return {"fold_solves": int(bound.arguments.get("folds", 10)) * points}
    if name == "regions.component_interval":
        return {"degenerate": int(result[0] == result[1])}
    if name == "dataio.dataset_from_csv":
        return {"bytes": os.path.getsize(bound.arguments["path"])}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[list | None] = []  # [name, start, end, parent, run, info]
        self.stack: list[int] = []
        self.run = 0
        self.bindings: list[str] = []
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """fn with a span recorded around each call."""
        tracer = self
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            rss0 = maxrss_mb() if name == "dataio.dataset_from_csv" else None
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                tracer.stack.pop()
                tracer.spans[sid] = [name, start, end, parent, tracer.run, {}]
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                info = _annotate(name, bound, result)
            except (TypeError, ValueError, KeyError, AttributeError, OSError) as exc:
                info = {"annotate_error": repr(exc)}
            if rss0 is not None:
                info["rss_rise_mb"] = maxrss_mb() - rss0
            tracer.spans[sid][5] = info
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding of every layer function in loaded modules."""
        loaded = [(mname, mod) for mname, mod in list(sys.modules.items())
                  if mname == "sparseproj" or mname.startswith("sparseproj.")]
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"sparseproj.{layer}")
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", fn)
                for mname, mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))
                            self.bindings.append(f"{mname}.{attr}")

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()


def _self_times(spans: list[list]) -> list[float]:
    """Duration minus the time covered by direct children.  Spans of one
    thread nest without overlap, so the covered time is the children's sum."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def run_layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one run (one timed iteration in one process).
    A layer the workload never enters reports 0."""
    own = _self_times(spans)

    def total(name):
        return float(sum(s[2] - s[1] for s in spans if s[0] == name))

    def infos(name):
        return [s[5] for s in spans if s[0] == name]

    def self_of(*names):
        return float(sum(own[i] for i, s in enumerate(spans) if s[0] in names))

    ingest = infos("dataio.dataset_from_csv")
    ingest_s = total("dataio.dataset_from_csv")
    cv_s = total("projection.cross_validate_lambda")
    proj = infos("projection.project_draws")
    project_s = total("projection.project_draws")
    entries = sum(i.get("entries", 0) for i in proj)
    return {
        "dataio.ingest_s": ingest_s,
        "dataio.ingest_mb_per_s": _rate(sum(i.get("bytes", 0) for i in ingest) / 2 ** 20, ingest_s),
        "dataio.ingest_rss_mb": max((i.get("rss_rise_mb", 0) for i in ingest), default=0.0),
        "projection.cv_s": cv_s,
        "projection.cv_fold_solves_per_s": _rate(
            sum(i.get("fold_solves", 0) for i in infos("projection.cross_validate_lambda")), cv_s),
        "projection.project_s": project_s,
        "projection.draws_per_s": _rate(sum(i.get("draws", 0) for i in proj), project_s),
        "projection.center_s": total("projection.fit_lasso"),
        "projection.active_frac": sum(i.get("nonzero", 0) for i in proj) / entries if entries else 0.0,
        "projection.max_kkt": max((i.get("max_kkt", 0) for i in proj), default=0.0),
        "posterior.factorize_s": total("posterior.factorize"),
        "posterior.sample_s": total("posterior.sample_posterior_arrays"),
        "regions.intervals_s": total("regions.component_interval"),
        "regions.model_probs_s": total("regions.model_probabilities"),
        "regions.degenerate": float(sum(i.get("degenerate", 0) for i in infos("regions.component_interval"))),
        "calibration.solve_s": total("calibration.solve_gamma"),
        "calibration.solves": float(len(infos("calibration.solve_gamma"))),
        "limits.mc_s": total("limits.limiting_coverage_mc"),
        "simulate.data_s": total("simulate.generate_data"),
        "simulate.self_s": self_of("simulate.run_scenario", "simulate.run_replication"),
        "cli.self_s": self_of(COMMAND_SPAN),
        "trace.spans": float(len(spans)),
    }


def layer_metrics(runs: list[list[list]]) -> dict[str, float]:
    """Median of each per-run figure over the traced runs; replication
    percentiles pool every replication span."""
    per_run = [run_layer_metrics(spans) for spans in runs]
    out = {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}
    reps = sorted(s[2] - s[1] for spans in runs for s in spans
                  if s[0] == "simulate.run_replication")
    if len(reps) >= 2:
        q = statistics.quantiles(reps, n=100, method="inclusive")
        out["simulate.rep_s.p50"], out["simulate.rep_s.p95"] = q[49], q[94]
    else:
        out["simulate.rep_s.p50"] = out["simulate.rep_s.p95"] = reps[0] if reps else 0.0
    return out
