"""Command-line interface.

Subcommands: fit (full pipeline on a CSV), calibrate (single level lookup),
table (calibration grid as CSV), simulate (coverage study from a JSON
scenario), limitcheck (Monte-Carlo verification of the limiting coverage).
Worker count comes from --threads, falling back to the SPARSEPROJ_THREADS
environment variable, then to 1; either must be an integer >= 1.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from .calibration import (calibration_table_csv, display_level,
                          effective_penalty, solve_gamma, TABLE_LAMBDAS,
                          TABLE_TARGETS)
from .dataio import dataset_from_csv
from .errors import SparseProjError
from .limits import LimitSpec, limitcheck_rows
from .projection import cross_validate_lambda  # noqa: F401 (perfbench wraps this binding)
from .regions import model_probabilities
from .simulate import (Scenario, check_s_values, fit_dataset, report_to_csv, run_scenario,
                       signal_vector, sparsity_sweep, sweep_to_csv)
from .types import PriorConfig

log = logging.getLogger("sparseproj")

SCHEMA_VERSION = 1


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _checked(flag: str, rule: str, ok, kind=float):
    """An argparse type: convert with kind, then reject a value that fails ok
    with a message naming the flag (a usage error, exit status 2)."""
    def parse(value: str):
        try:
            x = kind(value)
        except ValueError:
            x = None
        if x is None or not ok(x):
            raise argparse.ArgumentTypeError(f"{flag} must be {rule}, got {value!r}")
        return x
    return parse


def _in_unit(x: float) -> bool:
    return 0.0 < x < 1.0


def _positive_finite(x: float) -> bool:
    return 0.0 < x < math.inf


def _finite_nonnegative(x: float) -> bool:
    return 0.0 <= x < math.inf


_positive_lambda = _checked("--lambda", "a positive finite number or 'auto'",
                            _positive_finite)


def _parse_lambda(value: str) -> float | None:
    """None for 'auto', which fit_dataset takes as its default CV recipe."""
    return None if value == "auto" else _positive_lambda(value)


def _number_list(flag: str, rule: str, ok):
    """An argparse type for comma-separated numbers that each pass ok, with
    a message naming the flag for a bad entry or an empty list."""
    def parse(value: str) -> list[float]:
        try:
            values = [float(tok) for tok in value.split(",") if tok.strip()]
        except ValueError:
            values = None
        if values == []:
            raise argparse.ArgumentTypeError(
                f"{flag} expected at least one number, got {value!r}")
        if values is None or not all(ok(x) for x in values):
            raise argparse.ArgumentTypeError(
                f"{flag} must be comma-separated {rule}, got {value!r}")
        return values
    return parse


_LIST_FLAGS = ("--lambda0", "--lambdas", "--signs", "--targets")


def _attach_lists(argv: list[str]) -> list[str]:
    """Rewrite `--signs -1,0` as `--signs=-1,0`.  argparse takes a separate
    word that starts with '-' for an option unless it is one negative
    number, so a comma list after a list flag is attached to the flag."""
    out: list[str] = []
    for word in argv:
        if out and out[-1] in _LIST_FLAGS and word.startswith("-") and "," in word:
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


_threads_flag = _checked("--threads", "an integer >= 1", lambda k: k >= 1, kind=int)
_threads_env = _checked("SPARSEPROJ_THREADS", "an integer >= 1", lambda k: k >= 1, kind=int)
_seed_flag = _checked("--seed", "an integer >= 0", lambda k: k >= 0, kind=int)


def cmd_fit(args) -> int:
    state = np.random.SeedSequence((int(args.seed), 0xF17)).generate_state(2)
    cv_seed, post_seed = int(state[0]), int(state[1])
    ds, names = dataset_from_csv(args.data, args.response, standardize=args.standardize,
                                 folds=10 if args.lambda_n is None else 0, fold_seed=cv_seed)

    fit = fit_dataset(ds, args.lambda_n, args.draws, post_seed, PriorConfig(a_n=args.an),
                      target=args.target, level=args.level)

    intervals = [{"name": names[j], "level": float(fit.levels[j]),
                  "estimate": float(fit.center[j]),
                  "lo": float(fit.lo[j]), "hi": float(fit.hi[j])} for j in range(ds.p)]

    labels = [str(j) for j in range(ds.p)]  # formatted once: a key joins these per support
    model_probs = {",".join([labels[j] for j in s]): f
                   for s, f in model_probabilities(fit.draws).items()}

    log.info("fit: seed=%d lambda_n=%.6g lambda0=%.6g level=%s max_kkt=%.3e",
             args.seed, fit.lambda_n, fit.lambda0,
             ",".join(f"{lv:.4f}" for lv in fit.levels[:5]), fit.max_kkt)

    out = {
        "schema": SCHEMA_VERSION,
        "n": ds.n,
        "p": ds.p,
        "seed": args.seed,
        "lambda_n": fit.lambda_n,
        "lambda0": fit.lambda0,
        "sigma_hat": fit.sigma_hat,
        "target": args.target,
        "intervals": intervals,
        "model_probabilities": model_probs,
        "diagnostics": {"max_kkt_residual": fit.max_kkt, "draws": args.draws},
    }
    _write_text(args.out, json.dumps(out, indent=2) + "\n")
    return 0


def cmd_calibrate(args) -> int:
    level, _, psi0 = solve_gamma(effective_penalty(args.lambda0, args.c, args.sigma0),
                                 args.target)
    log.info("calibrate: lambda0=%.6g target=%.6g level=%.6f psi0=%.6f",
             args.lambda0, args.target, level, psi0)
    print(display_level(level))
    return 0


def cmd_table(args) -> int:
    lambdas = args.lambdas if args.lambdas else TABLE_LAMBDAS
    targets = args.targets if args.targets else TABLE_TARGETS
    log.info("table: %d lambdas x %d targets", len(lambdas), len(targets))
    _write_text(args.out, calibration_table_csv(lambdas, targets))
    return 0


def cmd_simulate(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"scenario config {args.config}: expected a JSON object")
    try:
        sweep = s_values = cfg.pop("sweep", None)
        if sweep is not None:
            s_values = sweep["s_values"] if isinstance(sweep, dict) else None
            if not isinstance(s_values, list):
                raise ValueError(f'sweep must be {{"s_values": [integers]}}, got {sweep!r}')
        if "theta0" in cfg and "signals" in cfg:
            raise ValueError("give theta0 or signals, not both")
        if "theta0" not in cfg:
            variant = cfg.pop("signals", "default")
            if variant not in ("default", "caption"):
                raise ValueError(f"signals must be 'default' or 'caption', got {variant!r}")
            cfg["theta0"] = signal_vector(cfg["p"], caption_variant=(variant == "caption"))
        scenario = Scenario(**cfg)
        if sweep is not None:
            check_s_values(s_values, scenario.p)
    except KeyError as exc:
        raise ValueError(f"scenario config {args.config}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:  # a missing, unknown or invalid field
        raise ValueError(f"scenario config {args.config}: {exc}") from None
    log.info("simulate: design=%s n=%d p=%d reps=%d draws=%d seed=%d threads=%d",
             scenario.design, scenario.n, scenario.p, scenario.replications,
             scenario.draws_per_rep, scenario.seed, args.threads)
    if sweep is not None:
        reports = sparsity_sweep(scenario, s_values, workers=args.threads)
        _write_text(args.out, sweep_to_csv(reports, scenario, s_values))
    else:
        report = run_scenario(scenario, workers=args.threads)
        log.info("simulate: seed=%d mean_lambda_n=%.6g mean_lambda0=%.6g "
                 "mean_level=%.6f max_kkt=%.3e runtime=%.1fs",
                 scenario.seed, report.mean_lambda_n, report.mean_lambda0,
                 report.mean_level, report.max_kkt, report.runtime)
        _write_text(args.out, report_to_csv(report, scenario))
    return 0


def cmd_limitcheck(args) -> int:
    spec = LimitSpec(C=np.eye(len(args.signs)), sigma0=args.sigma0,
                     theta0_signs=args.signs)
    log.info("limitcheck: lambdas=%s target=%g outer=%d inner=%d seed=%d threads=%d",
             args.lambda0, args.target, args.outer, args.inner, args.seed, args.threads)
    rows = limitcheck_rows(spec, args.lambda0, args.target, args.outer,
                           args.inner, args.seed, workers=args.threads)
    lines = ["lambda0,coordinate,role,level,estimate,mc_se,analytic"]
    for r in rows:
        lines.append(f"{r['lambda0']:g},{r['coordinate']},{r['role']},"
                     f"{r['level']:.10g},{r['estimate']:.10g},"
                     f"{r['mc_se']:.10g},{r['analytic']:.10g}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseproj",
        description="Sparse projection-posterior inference for linear regression.")
    parser.add_argument("--threads", type=_threads_flag, default=None,
                        help="worker count (default: SPARSEPROJ_THREADS or 1)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress details to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a CSV dataset and write interval JSON")
    p_fit.add_argument("--data", required=True, help="input CSV with header row")
    p_fit.add_argument("--response", required=True, help="name of the response column")
    group = p_fit.add_mutually_exclusive_group(required=True)
    group.add_argument("--level", type=_checked("--level", "a number in (0, 1)", _in_unit),
                       help="credibility level used directly")
    group.add_argument("--target", type=_checked("--target", "a number in (0, 1)", _in_unit),
                       help="intended asymptotic coverage; level is calibrated from it")
    p_fit.add_argument("--lambda", dest="lambda_n", type=_parse_lambda, default="auto",
                       help="projection penalty, or 'auto' for cross-validation")
    p_fit.add_argument("--an", type=_checked("--an", "a finite number >= 0",
                                             _finite_nonnegative),
                       default=1.0, help="prior precision a_n")
    p_fit.add_argument("--draws", type=_checked("--draws", "an integer >= 2",
                                                lambda k: k >= 2, kind=int),
                       default=2000, help="posterior draw count")
    p_fit.add_argument("--seed", type=_seed_flag, default=0)
    p_fit.add_argument("--standardize", action="store_true",
                       help="center and scale predictor columns")
    p_fit.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p_fit.set_defaults(func=cmd_fit)

    p_cal = sub.add_parser("calibrate", help="print the calibrated credibility level")
    p_cal.add_argument("--lambda0", type=_checked("--lambda0", "a finite number >= 0",
                                                  _finite_nonnegative),
                       required=True)
    p_cal.add_argument("--target", type=_checked("--target", "a number in (0, 1)", _in_unit),
                       required=True)
    p_cal.add_argument("--c", type=_checked("--c", "a positive finite number", _positive_finite),
                       default=1.0, help="limiting Gram diagonal")
    p_cal.add_argument("--sigma0", type=_checked("--sigma0", "a positive finite number",
                                                 _positive_finite),
                       default=1.0, help="error s.d.")
    p_cal.set_defaults(func=cmd_calibrate)

    p_tab = sub.add_parser("table", help="emit the calibration table as CSV")
    p_tab.add_argument("--lambdas", type=_number_list("--lambdas", "finite numbers >= 0",
                                                      _finite_nonnegative),
                       default=None, help="comma-separated penalties (default: reference grid)")
    p_tab.add_argument("--targets", type=_number_list("--targets", "numbers in (0, 1)",
                                                      _in_unit),
                       default=None,
                       help="comma-separated coverage targets")
    p_tab.add_argument("--out", default=None)
    p_tab.set_defaults(func=cmd_table)

    p_sim = sub.add_parser("simulate", help="run a coverage study from a JSON scenario")
    p_sim.add_argument("--config", required=True, help="scenario JSON path")
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_lim = sub.add_parser("limitcheck",
                           help="Monte-Carlo check of the limiting coverage")
    p_lim.add_argument("--lambda0", type=_number_list("--lambda0", "finite numbers >= 0",
                                                      _finite_nonnegative),
                       default=[0.5, 1.0, 2.0],
                       help="comma-separated penalty values")
    p_lim.add_argument("--target", type=_checked("--target", "a number in (0, 1)", _in_unit),
                       default=0.95)
    p_lim.add_argument("--signs", type=_number_list("--signs", "signs in {-1, 0, 1}",
                                                    lambda x: x in (-1.0, 0.0, 1.0)),
                       default=[1.0, -1.0, 0.0],
                       help="true-sign pattern, e.g. '1,-1,0' (0 = noise)")
    p_lim.add_argument("--sigma0", type=_checked("--sigma0", "a positive finite number",
                                                 _positive_finite), default=1.0)
    for flag in ("--outer", "--inner"):
        p_lim.add_argument(flag, type=_checked(flag, "an integer >= 100", lambda k: k >= 100,
                                               kind=int), default=2000)
    p_lim.add_argument("--seed", type=_seed_flag, default=0)
    p_lim.add_argument("--out", default=None)
    p_lim.set_defaults(func=cmd_limitcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_lists(sys.argv[1:] if argv is None else argv))
    if args.threads is None:
        try:
            args.threads = _threads_env(os.environ.get("SPARSEPROJ_THREADS", "1"))
        except argparse.ArgumentTypeError as exc:
            parser.error(str(exc))
    logging.basicConfig(stream=sys.stderr,
                        level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(name)s: %(message)s")
    try:
        return args.func(args)
    except (SparseProjError, OSError, ValueError, KeyError, TypeError) as exc:
        print(f"sparseproj: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
