"""The benchmark's own tests: smoke-size runs of every workload, the output
checks against deliberately corrupted outputs, and the BENCHMARK.json
format.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOAD_METRIC = {"fit_wide": "fit_s", "fit_tall": "fit_s",
                   "coverage": "reps_per_s", "limitcheck": "outer_draws_per_s"}


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke():
    """smoke(workload, trace, seed) -> (result line, detail line, stdout
    lines) of one smoke-size run, each run made once per module."""
    runs: dict[tuple, tuple[dict, dict, list[str]]] = {}

    def get(workload: str, trace: int, seed: int = 3):
        key = (workload, trace, seed)
        if key not in runs:
            proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                          "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            detail = json.loads(lines[0].removeprefix("detail "))
            runs[key] = (json.loads(lines[-1]), detail, lines)
        return runs[key]

    return get


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(smoke, workload):
    result, detail, lines = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert {"error_rate", WORKLOAD_METRIC[workload]} | set(declared) <= printed
    env = detail["environment"]
    assert env["numpy"] and env["scipy"] and env["python"] and env["nproc"] >= 1
    assert set(env["blas_threads"].values()) <= {1}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_traced_run_yields_every_layer_metric(smoke, workload):
    result, detail, _ = smoke(workload, 1)
    assert result["correct"], detail["failed_checks"]
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert not detail["missing_layer_functions"]
    assert "sparseproj.cli.cross_validate_lambda" in detail["bindings"]
    assert "sparseproj.simulate.project_draws" in detail["bindings"]
    assert {it["traced"] for it in detail["iterations"]} == {True, False}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    busy = {"fit_wide": "projection.cv_s", "fit_tall": "dataio.ingest_s",
            "coverage": "simulate.rep_s.p50", "limitcheck": "limits.mc_s"}[workload]
    assert metrics[busy] > 0
    assert metrics["cli.self_s"] > 0


def test_same_seed_reads_and_writes_identical_bytes(smoke):
    for workload in inputs.WORKLOADS:
        _, first, _ = smoke(workload, 0)
        _, again, _ = smoke(workload, 1)  # a second run with the same seed
        assert first["input_sha256"] == again["input_sha256"]
        assert first["output_sha256"] == again["output_sha256"]
        _, other, _ = smoke(workload, 0, seed=4)
        assert other["input_sha256"] != first["input_sha256"]


def test_fixed_point_csv_parses_to_the_kept_array(tmp_path):
    plan = inputs.make_inputs("fit_tall", 5, str(tmp_path), "smoke")
    with open(plan.iteration[0][plan.iteration[0].index("--data") + 1], newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    parsed = np.array([[float(c) for c in row] for row in rows])
    assert np.array_equal(parsed[:, :-1], plan.data["X"])
    assert np.array_equal(parsed[:, -1], plan.data["Y"])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_slots_differ_only_in_output_files(tmp_path, workload):
    plan = inputs.make_inputs(workload, 5, str(tmp_path), "smoke")
    other = plan.for_slot(1)
    assert set(other.outputs).isdisjoint(plan.outputs)
    back = dict(zip(other.outputs, plan.outputs))
    assert [[back.get(a, a) for a in argv] for argv in other.iteration] == plan.iteration
    assert other.sha256 == plan.sha256


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "fit_wide", "--seed", "1", "--seconds", "1",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_format():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(inputs.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in BENCH["workloads"])
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    workloads = len(BENCH["workloads"])
    # a run measures for run_seconds plus about 3 s of input generation
    assert (4 + 22 * workloads) * (BENCH["run_seconds"] + 5) < 3420


# --- the checks flag corrupted outputs ---------------------------------------

def _run_cli(argv: list[str]) -> list[str]:
    """Run the program in this process; returns its progress log lines."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import logging

        from sparseproj.cli import main
        lines: list[str] = []
        handler = logging.Handler(logging.INFO)
        handler.emit = lambda record: lines.append(record.getMessage())
        logger = logging.getLogger("sparseproj")
        logger.setLevel(logging.INFO)
        logger.addHandler(handler)
        try:
            assert main(argv) == 0
        finally:
            logger.removeHandler(handler)
        return lines
    finally:
        sys.path.pop(0)


@pytest.fixture(scope="module")
def fit_output(tmp_path_factory):
    plan = inputs.make_inputs("fit_wide", 2, str(tmp_path_factory.mktemp("fit")), "smoke")
    _run_cli(plan.iteration[0])
    with open(plan.outputs[0], encoding="utf-8") as fh:
        return plan, json.load(fh)


def _fit_failures(plan, out) -> set[str]:
    found = checks.check_fit(json.dumps(out), plan.data["X"], plan.data["Y"])
    assert len(found) == checks.FIT_CHECKS
    return {c.name for c in found if not c.ok}


def test_fit_checks_pass_on_real_output(fit_output):
    assert _fit_failures(*fit_output) == set()


@pytest.mark.parametrize("corrupt, expected", [
    (lambda o: o["intervals"][0].update(estimate=o["intervals"][0]["estimate"] + 1e-3),
     "fit.center_kkt"),
    (lambda o: o["intervals"][1].update(lo=o["intervals"][1]["estimate"] + 1e-6),
     "fit.intervals_contain_estimates"),
    (lambda o: o.update(model_probabilities={"0": 0.5, "1": 0.49}), "fit.model_probs_sum"),
    (lambda o: o["diagnostics"].update(max_kkt_residual=1e-8), "fit.draws_kkt"),
    (lambda o: o.update(lambda_n=o["lambda_n"] * 1.01), "fit.center_kkt"),
    (lambda o: o.update(p=o["p"] + 1), "fit.shape"),
    (lambda o: o.pop("intervals"), "fit.parse"),
])
def test_fit_checks_flag_corruption(fit_output, corrupt, expected):
    plan, out = fit_output
    bad = json.loads(json.dumps(out))
    corrupt(bad)
    assert expected in _fit_failures(plan, bad)


@pytest.fixture(scope="module")
def coverage_output(tmp_path_factory):
    plan = inputs.make_inputs("coverage", 1, str(tmp_path_factory.mktemp("cov")), "smoke")
    log = _run_cli(plan.iteration[0])
    with open(plan.outputs[0], encoding="utf-8") as fh:
        return plan, fh.read(), log


def _coverage_failures(text: str, log: list[str]) -> set[str]:
    found = checks.check_coverage(text, log, inputs.COVERAGE_P, inputs.TARGET)
    assert len(found) == checks.COVERAGE_CHECKS
    return {c.name for c in found if not c.ok}


def test_coverage_checks(coverage_output):
    _, text, log = coverage_output
    assert _coverage_failures(text, log) == set()
    rows = list(csv.DictReader(io.StringIO(text)))
    for r in rows:
        r["coverage"] = "0.8"
    low = io.StringIO()
    writer = csv.DictWriter(low, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    assert _coverage_failures(low.getvalue(), log) == {"coverage.mean"}
    bad_log = [line.replace("max_kkt=", "max_kkt=1e-6 was ") for line in log]
    assert _coverage_failures(text, bad_log) == {"coverage.max_kkt"}
    assert _coverage_failures(text, []) == {"coverage.max_kkt"}
    short = "\n".join(text.splitlines()[:-1]) + "\n"
    assert _coverage_failures(short, log) == {"coverage.rows"}


@pytest.fixture(scope="module")
def limit_output(tmp_path_factory):
    plan = inputs.make_inputs("limitcheck", 1, str(tmp_path_factory.mktemp("lim")), "smoke")
    _run_cli(plan.iteration[0])
    with open(plan.outputs[0], encoding="utf-8") as fh:
        return plan, fh.read()


def _limit_failures(plan, text: str) -> list[str]:
    d = plan.data
    found = checks.check_limitcheck(text, d["outer"], inputs.TARGET, d["lambdas"], d["signs"])
    assert len(found) == checks.limit_check_count(d["lambdas"], d["signs"])
    return [c.name for c in found if not c.ok]


def test_limitcheck_checks(limit_output):
    plan, text = limit_output
    assert _limit_failures(plan, text) == []
    rows = list(csv.DictReader(io.StringIO(text)))

    def render(rs):
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rs)
        return buf.getvalue()

    se = (inputs.TARGET * (1 - inputs.TARGET) / plan.data["outer"]) ** 0.5
    shifted = [dict(r) for r in rows]
    # 7 normal se: the exact binomial tail of the miss count, which the
    # check uses, is heavier above the mean than the normal one
    shifted[0]["estimate"] = str(inputs.TARGET - 7 * se)
    assert _limit_failures(plan, render(shifted)) == [
        f"limitcheck.criterion5[lambda0={rows[0]['lambda0']} coord=0]"]
    noise = next(i for i, r in enumerate(rows) if r["role"] == "noise")
    floor = [dict(r) for r in rows]
    floor[noise]["estimate"] = floor[noise]["analytic"] = str(inputs.TARGET - 5 * se)
    assert len(_limit_failures(plan, render(floor))) == 1
    assert "limitcheck.rows" in _limit_failures(plan, render(rows[:-1]))


def test_rare_noise_misses_pass_and_many_fail():
    # analytic coverage 0.9993 expects 0.33 misses in 500 draws: 3 misses
    # happen on 0.5% of seeds of a correct program, 7 on fewer than 1e-7
    q = 1.0 - 0.9993328893
    assert checks.binomial_dev_se(3, 500, q) < checks.LIMIT_K < checks.binomial_dev_se(7, 500, q)
    assert checks.binomial_dev_se(25, 500, 0.05) == 0.0


def test_identical_output_check_flags_a_changed_output(fit_output, tmp_path):
    import run
    plan, out = fit_output
    text = json.dumps(out)
    path = tmp_path / "out.json"
    plan = inputs.Inputs(plan.workload, plan.iteration, [str(path)], plan.data)
    result = {"calls": [{"code": 0, "log": [], "error": None}]}
    path.write_text(text)
    found, digests, _ = run.check_iteration(plan, result, "", None)
    assert all(c.ok for c in found)
    path.write_text(text + " ")
    found, _, _ = run.check_iteration(plan, result, "", digests)
    assert [c.name for c in found if not c.ok] == ["output.identical"]
    found, _, _ = run.check_iteration(plan, None, "worker died", digests)
    assert len(found) == checks.FIT_CHECKS + 1 and not any(c.ok for c in found)


def test_self_time_subtracts_children():
    # a command span holding one layer span, which holds another
    trace = [
        ["cli.main", 0.0, 10.0, None, 0, {}],
        ["simulate.run_replication", 1.0, 5.0, 0, 0, {}],
        ["projection.project_draws", 2.0, 4.0, 1, 0,
         {"draws": 10, "nonzero": 5, "entries": 20, "max_kkt": 1e-11}],
    ]
    m = spans.run_layer_metrics(trace)
    assert m["cli.self_s"] == 6.0
    assert m["simulate.self_s"] == 2.0
    assert m["projection.project_s"] == 2.0
    assert m["projection.draws_per_s"] == 5.0
    assert m["projection.active_frac"] == 0.25
    assert m["dataio.ingest_s"] == 0.0
