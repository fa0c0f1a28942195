"""Seeded workload inputs and the `sparseproj` command lines that consume them.

Every input derives from the workload seed alone, so the same seed writes
the same bytes on any commit; `Inputs.sha256` records those bytes so that
two commits can be shown to have read identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

WORKLOADS = ("fit_wide", "fit_tall", "coverage", "limitcheck")

# fit CSVs: (n, p). coverage: replications per simulate call and the two
# sample sizes. limitcheck: outer and inner Monte-Carlo counts (100 is the
# smallest the program accepts).
SIZES = {
    "full": {"fit_wide": (2000, 100), "fit_tall": (50_000, 50),
             "coverage_reps": 40, "coverage_n": (500, 1000),
             "limit_outer": 500, "limit_inner": 2000},
    "smoke": {"fit_wide": (300, 20), "fit_tall": (3000, 10),
              "coverage_reps": 2, "coverage_n": (500, 1000),
              "limit_outer": 100, "limit_inner": 100},
}

SIGNALS = (-2.0, -1.5, 0.5, 1.0, 2.0)
TARGET = 0.95
COVERAGE_P = 20
COVERAGE_LAMBDA0 = 0.3
LIMIT_LAMBDAS = (0.5, 1.0, 2.0)
LIMIT_SIGNS = (1.0, -1.0, 0.0)

# CSV cells are fixed-point decimals "+dd.dddddddddddddd".  Each cell is
# k / 10**14 for an integer |k| < 9e15 < 2**53, so the IEEE quotient k / 1e14
# and Python's float() of the printed text are both the correctly rounded
# value of the same decimal: the arrays kept here equal, bit for bit, what
# the program parses.  A cell takes 19 bytes, close to a full repr() double.
_DECIMALS = 14
_CELL_LIMIT = 89.0


@dataclass
class Inputs:
    """One workload's generated inputs.

    iteration: the argument lists of the `sparseproj` calls that make up
    one timed iteration, in order.  outputs: the file each call writes.
    data: what the output checks need (arrays, scenario sizes, ...).
    """

    workload: str
    iteration: list[list[str]]
    outputs: list[str]
    data: dict
    sha256: dict[str, str] = field(default_factory=dict)
    input_bytes: int = 0

    def for_slot(self, slot: int) -> Inputs:
        """The same calls writing to output files of their own, so that
        several workers can run an iteration at once."""
        if slot == 0:
            return self
        renamed = {out: f"{out}.{slot}" for out in self.outputs}
        return replace(
            self, iteration=[[renamed.get(a, a) for a in argv] for argv in self.iteration],
            outputs=[renamed[out] for out in self.outputs])


def _stream(seed: int, workload: str) -> np.random.SeedSequence:
    tag = WORKLOADS.index(workload)
    return np.random.SeedSequence((int(seed), 0xBE7C, tag))


def program_seed(seed: int, workload: str) -> int:
    """The --seed passed to the program, derived from the workload seed."""
    return int(_stream(seed, workload).generate_state(1)[0] % 1_000_000)


def fixed_point_csv(columns: list[str], data: np.ndarray) -> tuple[bytes, np.ndarray]:
    """CSV bytes for `data` rounded to the fixed-point grid, and the rounded
    array exactly as the program will parse it."""
    k = np.rint(np.clip(data, -_CELL_LIMIT, _CELL_LIMIT) * 10.0 ** _DECIMALS).astype(np.int64)
    values = k / 10.0 ** _DECIMALS
    n, m = k.shape
    width = 4 + _DECIMALS + 1  # sign, two digits, point, decimals, separator
    cells = np.empty((n, m, width), dtype=np.uint8)
    cells[:, :, 0] = np.where(k < 0, ord("-"), ord("+"))
    mag = np.abs(k)
    digits = 2 + _DECIMALS
    positions = [1, 2] + list(range(4, 4 + _DECIMALS))
    for pos, power in zip(positions, range(digits - 1, -1, -1)):
        cells[:, :, pos] = (mag // 10 ** power) % 10 + ord("0")
    cells[:, :, 3] = ord(".")
    cells[:, :, -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    header = (",".join(columns) + "\n").encode()
    return header + cells.tobytes(), values


def _write(path: str, blob: bytes) -> str:
    with open(path, "wb") as fh:
        fh.write(blob)
    return hashlib.sha256(blob).hexdigest()


def make_inputs(workload: str, seed: int, workdir: str, size: str = "full") -> Inputs:
    """Write the workload's input files under workdir and return their plan."""
    sizes = SIZES[size]
    pseed = str(program_seed(seed, workload))
    if workload in ("fit_wide", "fit_tall"):
        n, p = sizes[workload]
        rng = np.random.default_rng(_stream(seed, workload))
        X = rng.standard_normal((n, p))
        theta = np.zeros(p)
        theta[: len(SIGNALS)] = SIGNALS
        Y = X @ theta + rng.standard_normal(n)
        blob, values = fixed_point_csv([f"x{j}" for j in range(p)] + ["y"],
                                       np.column_stack([X, Y]))
        path = os.path.join(workdir, f"{workload}.csv")
        out = os.path.join(workdir, f"{workload}.json")
        argv = ["--threads", "1", "fit", "--data", path, "--response", "y",
                "--lambda", "auto", "--target", repr(TARGET), "--seed", pseed,
                "--out", out]
        inputs = Inputs(workload, [argv], [out],
                        {"X": values[:, :p], "Y": values[:, p]})
        inputs.sha256[os.path.basename(path)] = _write(path, blob)
        inputs.input_bytes = len(blob)
        return inputs
    if workload == "coverage":
        reps = sizes["coverage_reps"]
        calls, outs, blobs = [], [], {}
        for n in sizes["coverage_n"]:
            scenario = {"n": n, "p": COVERAGE_P, "design": "independent",
                        "replications": reps, "draws_per_rep": 2000,
                        "target_coverage": TARGET, "seed": int(pseed),
                        "lambda_n": COVERAGE_LAMBDA0 / math.sqrt(n)}
            blob = (json.dumps(scenario, sort_keys=True) + "\n").encode()
            path = os.path.join(workdir, f"coverage_n{n}.json")
            out = os.path.join(workdir, f"coverage_n{n}.csv")
            blobs[path] = blob
            calls.append(["--threads", "1", "simulate", "--config", path, "--out", out])
            outs.append(out)
        inputs = Inputs(workload, calls, outs,
                        {"p": COVERAGE_P, "reps": reps, "n": list(sizes["coverage_n"])})
        for path, blob in blobs.items():
            inputs.sha256[os.path.basename(path)] = _write(path, blob)
            inputs.input_bytes += len(blob)
        return inputs
    if workload == "limitcheck":
        out = os.path.join(workdir, "limitcheck.csv")
        argv = ["--threads", "1", "limitcheck",
                "--lambda0", ",".join(f"{v:g}" for v in LIMIT_LAMBDAS),
                "--signs", ",".join(f"{v:g}" for v in LIMIT_SIGNS),
                "--target", repr(TARGET), "--outer", str(sizes["limit_outer"]),
                "--inner", str(sizes["limit_inner"]),
                "--seed", pseed, "--out", out]
        inputs = Inputs(workload, [argv], [out],
                        {"outer": sizes["limit_outer"], "lambdas": LIMIT_LAMBDAS,
                         "signs": LIMIT_SIGNS})
        args = " ".join(argv[:-2]).encode()  # the output path is not an input
        inputs.sha256["argv"] = hashlib.sha256(args).hexdigest()
        return inputs
    raise ValueError(f"unknown workload {workload!r}")
