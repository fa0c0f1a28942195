"""One benchmark process: import `sparseproj.cli`, run one timed iteration of
`sparseproj` commands through `sparseproj.cli.main`, and write the timings
as JSON.

    python3 worker.py REQUEST.json RESULT.json

The request holds the argument lists to run, a `trace` flag and a run id;
with `import_only` the process exits right after the import.

Times are this process's CPU time (user + system, `time.process_time`),
with wall time kept alongside.  The program runs on one thread (`--threads
1`, BLAS pinned to one thread), so on an idle core the two agree.  On a
shared host the hypervisor can take the core away for a quarter of the time
or more.  That steal time inflates wall time but not CPU time.
"""

import json
import sys
import time


def _environment() -> dict:
    """Versions, BLAS library and its thread count, and CPU count."""
    import ctypes
    import glob
    import os
    import platform

    import numpy
    import scipy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "blas_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        env["blas"] = "unknown"
    threads = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), "..", pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[os.path.basename(path)] = fn()
                    break
    env["blas_threads"] = threads
    return env


def main() -> int:
    req_path, res_path = sys.argv[1], sys.argv[2]
    import sparseproj.cli as cli
    # CPU time since the interpreter started: start-up plus the import
    result = {"setup_s": time.process_time()}
    with open(req_path, encoding="utf-8") as fh:
        req = json.load(fh)
    if not req.get("import_only"):
        result.update(_iteration(cli, req))
    with open(res_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _iteration(cli, req: dict) -> dict:
    import logging
    import traceback

    import spans

    class Capture(logging.Handler):
        def __init__(self):
            super().__init__(logging.INFO)
            self.lines: list[str] = []

        def emit(self, record):
            self.lines.append(record.getMessage())

    # the program's progress log carries diagnostics the checks read
    capture = Capture()
    logger = logging.getLogger("sparseproj")
    logger.setLevel(logging.INFO)
    logger.propagate = False
    logger.addHandler(capture)

    tracer = spans.Tracer()
    tracer.run = req["run"]
    command = cli.main
    if req["trace"]:
        tracer.install()
        command = tracer.wrap(spans.COMMAND_SPAN, cli.main)

    calls = []
    for argv in req["calls"]:
        capture.lines = []
        error = None
        start, wall = time.process_time(), time.perf_counter()
        try:
            code = command(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # reported to the parent, which fails the checks
            code, error = None, traceback.format_exc()
        calls.append({"code": code, "cpu_s": time.process_time() - start,
                      "wall_s": time.perf_counter() - wall,
                      "log": capture.lines, "error": error})
    tracer.uninstall()
    out = {"calls": calls, "cpu_s": sum(c["cpu_s"] for c in calls),
           "wall_s": sum(c["wall_s"] for c in calls),
           "peak_rss_mb": spans.maxrss_mb(), "environment": _environment()}
    if req["trace"]:
        out.update(spans=tracer.spans, bindings=tracer.bindings, missing=tracer.missing)
    return out


if __name__ == "__main__":
    sys.exit(main())
