"""The sparseproj benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fit_wide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program runs from `src/` with
no install.  The run writes seeded inputs to a scratch directory in the
checkout, times fresh-interpreter imports of `sparseproj.cli` (setup_s),
then starts rounds of fresh processes, one timed iteration each, while the
next round should end within --seconds.  A round runs one process per CPU
the run may use, up to WORKER_SLOTS, so that a run's figures pool both
CPUs of a 2-core host, whose speeds drift apart.  Each process calls
`sparseproj.cli.main` single-process (`--threads 1`, BLAS pinned to one
thread), as a user's command would, and is timed by its own CPU clock.
Every output is checked.

With --trace 0 the processes run untraced and the run reports the
end-to-end metrics.  With --trace 1 traced and untraced rounds alternate;
the traced ones give the per-layer metrics and the difference between the
two is the tracing overhead.  Human-readable lines come first; the last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
DEADLINE_S = 165.0    # the whole run must end within 180 s
SETUP_PROBES = 2      # import-only processes, so setup_s has 3+ samples
WORKER_SLOTS = 2      # processes at once, never more than the CPUs allowed


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("SPARSEPROJ_THREADS", None)
    return env


def worker_slots() -> int:
    return max(1, min(WORKER_SLOTS, len(os.sched_getaffinity(0))))


class Spawner:
    """Starts worker processes, a batch at once, and waits for each to end."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir, self.deadline, self.count = workdir, deadline, 0
        self.env = child_env()

    def run(self, requests: list[dict]) -> list[tuple[dict | None, str]]:
        """One worker per request, all started together; (result, stderr
        tail or failure) per request, in order."""
        jobs = []
        try:
            for request in requests:
                self.count += 1
                stem = os.path.join(self.workdir, str(self.count))
                with open(stem + ".request.json", "w", encoding="utf-8") as fh:
                    json.dump(request, fh)
                with open(stem + ".stderr", "w", encoding="utf-8") as err:
                    proc = subprocess.Popen(
                        [sys.executable, WORKER, stem + ".request.json",
                         stem + ".result.json"],
                        cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                        stdout=subprocess.DEVNULL, stderr=err)
                jobs.append((proc, stem))
            return [self._collect(proc, stem) for proc, stem in jobs]
        finally:
            for proc, _ in jobs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()

    def _collect(self, proc: subprocess.Popen, stem: str) -> tuple[dict | None, str]:
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            code = proc.wait(timeout)
        except subprocess.TimeoutExpired:
            return None, f"worker timed out after {timeout:.0f}s"
        with open(stem + ".stderr", encoding="utf-8", errors="replace") as fh:
            why = fh.read()[-2000:]
        if code != 0 or not os.path.exists(stem + ".result.json"):
            return None, why
        with open(stem + ".result.json", encoding="utf-8") as fh:
            return json.load(fh), why


def _checks_per_call(plan: inputs.Inputs) -> int:
    if plan.workload == "coverage":
        return checks.COVERAGE_CHECKS
    if plan.workload == "limitcheck":
        return checks.limit_check_count(plan.data["lambdas"], plan.data["signs"])
    return checks.FIT_CHECKS


def check_call(plan: inputs.Inputs, text: str, log: list[str]) -> list[checks.Check]:
    d = plan.data
    if plan.workload == "coverage":
        return checks.check_coverage(text, log, d["p"], inputs.TARGET)
    if plan.workload == "limitcheck":
        return checks.check_limitcheck(text, d["outer"], inputs.TARGET,
                                       d["lambdas"], d["signs"])
    return checks.check_fit(text, d["X"], d["Y"])


def check_iteration(plan: inputs.Inputs, result: dict | None, why: str,
                    first: list[str] | None) -> tuple[list[checks.Check], list[str], list[str]]:
    """Checks of one iteration's outputs, with those outputs' SHA-256 and
    text.  A failed process counts every check it would have had as failed."""
    per_call = _checks_per_call(plan) + (first is not None)
    found, digests, texts = [], [], []
    for k, out in enumerate(plan.outputs):
        call = result["calls"][k] if result else None
        if call is None or call["code"] != 0 or not os.path.exists(out):
            detail = (call["error"] or f"exit code {call['code']}") if call else why
            found += [checks.Check("command.failed", False, str(detail)[-500:])] * per_call
            digests.append("")
            texts.append("")
            continue
        with open(out, "rb") as fh:
            blob = fh.read()
        os.remove(out)  # a later iteration that writes nothing must not pass
        digests.append(hashlib.sha256(blob).hexdigest())
        texts.append(blob.decode("utf-8", "replace"))
        found += check_call(plan, texts[-1], call["log"])
        if first is not None:
            found.append(checks.Check("output.identical", digests[-1] == first[k],
                                      "same input and seed as the first iteration"))
    return found, digests, texts


def measure(plan: inputs.Inputs, spawner: Spawner, seconds: float, trace: bool) -> dict:
    setup = [res["setup_s"] for res, _ in spawner.run([{"import_only": True}] * SETUP_PROBES)
             if res is not None]

    # each slot's calls write their own output files
    plans = [plan.for_slot(k) for k in range(worker_slots())]
    found: list[checks.Check] = []
    iterations, walls, first, first_texts = [], [], None, None
    start = time.monotonic()
    while True:
        traced = trace and len(walls) % 2 == 0  # traced and untraced rounds alternate
        t0 = time.monotonic()
        results = spawner.run([{"calls": p.iteration, "trace": traced,
                                "run": len(iterations) + k} for k, p in enumerate(plans)])
        wall = time.monotonic() - t0
        for p, (res, why) in zip(plans, results):
            got, digests, texts = check_iteration(p, res, why, first)
            found += got
            if first is None:
                first, first_texts = digests, texts
            iterations.append({"traced": traced, "result": res, "digests": digests})
        walls.append(wall)
        # start another round only if even the slowest so far would end
        # within --seconds
        elapsed = time.monotonic() - start
        kinds = {it["traced"] for it in iterations}
        enough = elapsed + max(walls) > seconds and (not trace or len(kinds) == 2)
        crashed = any(res is None for res, _ in results)
        if crashed or enough or spawner.deadline - time.monotonic() < 1.5 * wall:
            break
    setup += [it["result"]["setup_s"] for it in iterations if it["result"]]
    return {"setup": setup, "iterations": iterations, "checks": found,
            "digests": first, "texts": first_texts}


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the two nearest samples.

    Every iteration of a run does the same work, so their spread is the
    host's.  On a shared host that spread is one-sided: most iterations
    run at the loaded host's speed and bursts run up to 40% faster.  How
    many bursts a run catches moves its median, but not its 90th
    percentile.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def metric_values(plan: inputs.Inputs, run: dict, trace: bool) -> dict[str, float]:
    done = [it for it in run["iterations"] if it["result"] is not None]
    plain = [it["result"] for it in done if not it["traced"]]
    traced = [it["result"] for it in done if it["traced"]]
    if not plain or (trace and not traced):
        return {}
    if not trace:
        return {"setup_s": statistics.median(run["setup"]),
                "iteration_cpu_s.p90": p90([r["cpu_s"] for r in plain]),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
    out = spans.layer_metrics([r["spans"] for r in traced])
    out["trace.overhead_s"] = (statistics.median(r["cpu_s"] for r in traced)
                               - statistics.median(r["cpu_s"] for r in plain))
    out["limits.max_dev_se"] = 0.0
    if plan.workload == "limitcheck" and run["texts"][0]:
        out["limits.max_dev_se"] = checks.max_dev_se(run["texts"][0], plan.data["outer"],
                                                     inputs.TARGET)
    return out


def workload_metrics(plan: inputs.Inputs, cpu_s: float) -> dict[str, tuple[float, str]]:
    """The workload's own end-to-end figures, derived from iteration_cpu_s.p90."""
    if plan.workload == "coverage":
        reps = plan.data["reps"] * len(plan.data["n"])
        return {"reps_per_s": (reps / cpu_s, "1/s")}
    if plan.workload == "limitcheck":
        cells = len(plan.data["lambdas"]) * len(plan.data["signs"])
        return {"outer_draws_per_s": (cells * plan.data["outer"] / cpu_s, "1/s")}
    return {"fit_s": (cpu_s, "s")}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sparseproj", "cli.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2

    # a terminated run still stops its worker and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + DEADLINE_S
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        plan = inputs.make_inputs(args.workload, args.seed, workdir,
                                  "smoke" if args.smoke else "full")
        run = measure(plan, Spawner(workdir, deadline), args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    found = run["checks"]
    failed = [c for c in found if not c.ok]
    values = metric_values(plan, run, bool(args.trace))
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        failed.append(checks.Check("metrics.missing", False, "no successful iteration"))
        found = found + failed[-1:]
        values = {name: values.get(name, 0.0) for name in units}

    done = [it["result"] for it in run["iterations"] if it["result"]]
    error_rate = len(failed) / len(found)
    human = {"error_rate": (error_rate, "ratio")}
    if not args.trace and values["iteration_cpu_s.p90"] > 0:
        human.update(workload_metrics(plan, values["iteration_cpu_s.p90"]))
        plain = [it["result"] for it in run["iterations"]
                 if it["result"] and not it["traced"]]
        human["iteration_cpu_s.p50"] = (statistics.median(r["cpu_s"] for r in plain), "s")
        human["iteration_wall_s"] = (statistics.median(r["wall_s"] for r in plain), "s")
    detail = {
        "workload": plan.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": "smoke" if args.smoke else "full",
        "worker_slots": worker_slots(),
        "environment": done[0]["environment"] if done else None,
        "input_sha256": plan.sha256, "input_bytes": plan.input_bytes,
        "output_sha256": run["digests"],
        "setup_samples_s": run["setup"],
        "iterations": [{"traced": it["traced"],
                        "cpu_s": it["result"]["cpu_s"] if it["result"] else None,
                        "wall_s": it["result"]["wall_s"] if it["result"] else None}
                       for it in run["iterations"]],
        "failed_checks": [f"{c.name}: {c.detail}" for c in failed][:20],
    }
    if args.trace and done:
        traced = [r for r in done if "spans" in r]
        detail["bindings"] = traced[0]["bindings"] if traced else []
        detail["missing_layer_functions"] = traced[0]["missing"] if traced else []
    print("detail " + json.dumps(detail))
    for name, (value, unit) in human.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, unit in units.items():
        print(f"metric {name} = {values[name]:.6g} {unit}")
    print(json.dumps({"correct": not failed, "attempted": len(found),
                      "failed": len(failed),
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
