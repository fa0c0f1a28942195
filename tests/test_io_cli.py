"""CSV ingestion, the streamed dataset statistics, and the command-line entry
points (mostly in-process via main(argv); a few subprocess runs exercise the
console-script entry point that pyproject.toml declares and the demo scripts,
in a fresh interpreter, with or without an install)."""

import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import sparseproj
from sparseproj import dataio
from sparseproj.calibration import solve_gamma
from sparseproj.cli import main
from sparseproj.dataio import CsvFormatError, dataset_from_csv, read_csv
from sparseproj.errors import DimensionMismatch, NonFiniteInput
from sparseproj.posterior import factorize
from sparseproj.projection import cross_validate_lambda
from sparseproj.types import DatasetAccumulator, PriorConfig, validate_dataset

from oracles import fold_labels_reference


def write_csv(path, X, Y, names=None):
    p = X.shape[1]
    names = names or [f"x{j}" for j in range(p)]
    lines = [",".join(names + ["y"])]
    for row, y in zip(X, Y):
        lines.append(",".join(f"{float(v)!r}" for v in row) + f",{float(y)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return names


@pytest.fixture
def demo_csv(tmp_path):
    rng = np.random.default_rng(42)
    X = rng.standard_normal((30, 2))
    Y = X @ np.array([1.0, 0.0]) + 0.5 * rng.standard_normal(30)
    path = tmp_path / "demo.csv"
    write_csv(path, X, Y)
    return path, X, Y


# --- dataset accumulator -----------------------------------------------------

def assert_same_statistics(got, want, rel=1e-12):
    assert got.n == want.n and got.p == want.p
    np.testing.assert_array_equal(got.fold_n, want.fold_n)
    for name in ("gram", "xty", "fold_gram", "fold_xty"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=rel,
                                   atol=rel * np.abs(getattr(want, name)).max(), err_msg=name)
    assert got.yty == pytest.approx(want.yty, rel=rel)


def reference_statistics(X, Y, folds, seed):
    # two passes over the whole matrix, folds from the run-by-run oracle
    n = X.shape[0]
    labels = fold_labels_reference(n, folds, seed)
    G = np.array([X[labels == k].T @ X[labels == k] for k in range(folds)])
    c = np.array([X[labels == k].T @ Y[labels == k] for k in range(folds)])
    sizes = np.bincount(labels, minlength=folds)
    return X.T @ X / n, X.T @ Y / n, float(Y @ Y), G, c, sizes


def test_chunked_equals_whole():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((57, 3))
    Y = rng.standard_normal(57)
    whole = validate_dataset(X, Y, folds=4, fold_seed=9)
    acc = DatasetAccumulator(3, folds=4, fold_seed=9)
    for lo, hi in ((0, 20), (20, 41), (41, 57)):
        acc.add(X[lo:hi], Y[lo:hi])
    parts = acc.dataset()
    assert parts.n == whole.n == 57
    assert_same_statistics(parts, whole)
    gram, xty, yty, G, c, sizes = reference_statistics(X, Y, 4, 9)
    np.testing.assert_array_equal(whole.fold_n, sizes)
    np.testing.assert_allclose(whole.fold_gram, G, rtol=1e-12)
    np.testing.assert_allclose(whole.fold_xty, c, rtol=1e-12)


def test_empty_chunk_is_noop():
    rng = np.random.default_rng(2)
    acc = DatasetAccumulator(2, folds=3, fold_seed=1)
    acc.add(rng.standard_normal((5, 2)), rng.standard_normal(5))
    before = acc.dataset()
    acc.add(np.empty((0, 2)), np.empty(0))
    assert_same_statistics(acc.dataset(), before, rel=0.0)


def test_wrong_width_rejected():
    acc = DatasetAccumulator(2)
    with pytest.raises(DimensionMismatch):
        acc.add(np.ones((3, 4)), np.ones(3))
    with pytest.raises(DimensionMismatch):
        acc.add(np.ones((3, 2)), np.ones(4))
    with pytest.raises(DimensionMismatch):
        acc.dataset()  # no rows yet


def test_fold_sizes_differ_by_at_most_one():
    for n, folds in ((3, 10), (10, 10), (23, 5), (1001, 10)):
        ds = validate_dataset(np.ones((n, 1)), np.ones(n), folds=folds, fold_seed=n)
        assert ds.fold_n.sum() == n
        assert ds.fold_n.max() - ds.fold_n.min() <= 1


# --- CSV reading -------------------------------------------------------------

def test_read_csv_basic(demo_csv):
    path, X, Y = demo_csv
    got_X, got_Y, names = read_csv(str(path), "y")
    assert names == ["x0", "x1"]
    np.testing.assert_array_equal(got_X, X)
    np.testing.assert_array_equal(got_Y, Y)


def test_read_csv_response_position(tmp_path):
    path = tmp_path / "mid.csv"
    path.write_text("a,y,b\n1,2,3\n4,5,6\n", encoding="utf-8")
    X, Y, names = read_csv(str(path), "y")
    assert names == ["a", "b"]
    np.testing.assert_array_equal(X, [[1.0, 3.0], [4.0, 6.0]])
    np.testing.assert_array_equal(Y, [2.0, 5.0])


def test_read_csv_ragged_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,y\n1,2\n3,4,5\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="row 3"):
        read_csv(str(path), "y")


def test_read_csv_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,y\n1,oops\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="row 2.*'oops'"):
        read_csv(str(path), "y")


def test_read_csv_header_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="header"):
        read_csv(str(empty), "y")
    no_resp = tmp_path / "no_resp.csv"
    no_resp.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="'y'"):
        read_csv(str(no_resp), "y")
    no_rows = tmp_path / "no_rows.csv"
    no_rows.write_text("a,y\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="no data rows"):
        read_csv(str(no_rows), "y")


def test_read_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("a,y\n1,2\n\n3,4\n", encoding="utf-8")
    X, Y, _ = read_csv(str(path), "y")
    assert X.shape == (2, 1)


def test_read_csv_rejects_duplicate_header_names(tmp_path):
    path = tmp_path / "dupes.csv"
    path.write_text("y,a, y,b,a\n1,2,3,4,5\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match=r"duplicate column names \['a', 'y'\]"):
        read_csv(str(path), "y")


def test_read_csv_names_non_finite_cell(tmp_path, capsys):
    path = tmp_path / "inf.csv"
    path.write_text("a,b,y\n1,2,3\n\n4,1e400,6\n7,nan,9\n", encoding="utf-8")
    with pytest.raises(NonFiniteInput, match=r"row 4: non-finite cell '1e400' in column 'b'"):
        read_csv(str(path), "y")
    assert main(["fit", "--data", str(path), "--response", "y", "--level", "0.9",
                 "--lambda", "1"]) == 1
    assert "row 4: non-finite cell '1e400'" in capsys.readouterr().err


def test_read_csv_names_cell_with_trailing_nul(tmp_path):
    # numpy's str dtype drops trailing NULs; the message shows the cell's text
    path = tmp_path / "nul.csv"
    path.write_text("y,a\n1,2\x00\n", encoding="utf-8")
    with pytest.raises(CsvFormatError) as info:
        read_csv(str(path), "y")
    assert "row 2: non-numeric cell '2\\x00'" in str(info.value)


def _rows_past_first_block(bad_line):
    """A file whose first parser block is clean: header, then blank lines
    that straddle the block boundary, then data with bad_line last."""
    block = dataio._BLOCK_LINES
    lines = ["a,b,y"] + [f"{i},{i}.5,-{i}" for i in range(block - 2)]
    lines += ["", "", "", "1,2,3", bad_line]
    return "\n".join(lines) + "\n", len(lines)


@pytest.mark.parametrize("bad_line, message", [
    ("1,2", "expected 3 cells, got 2"),
    ("1,2,3,4", "expected 3 cells, got 4"),
    ("1,x2,3", "non-numeric cell 'x2'"),
    ("1,2,1_000", "non-numeric cell '1_000'"),
    ("   ", "expected 3 cells, got 1"),
])
def test_read_csv_error_names_file_line_after_first_block(tmp_path, bad_line, message):
    text, bad_lineno = _rows_past_first_block(bad_line)
    assert bad_lineno > dataio._BLOCK_LINES + 2
    path = tmp_path / "late.csv"
    path.write_text(text, encoding="utf-8")
    for reader in (read_csv, dataset_from_csv):
        with pytest.raises(CsvFormatError, match=f"row {bad_lineno}: {message}"):
            reader(str(path), "y")


def test_read_csv_accepted_cell_syntax(tmp_path):
    path = tmp_path / "syntax.csv"
    path.write_bytes(b'a, y\r\n"1.5", 2 \r\n\r\n\t-3e-1,"+4."\r\n')
    X, Y, names = read_csv(str(path), "y")
    assert names == ["a"]
    np.testing.assert_array_equal(X, [[1.5], [-0.3]])
    np.testing.assert_array_equal(Y, [2.0, 4.0])
    blank = tmp_path / "blank.csv"
    blank.write_text("a,y\n\n\r\n\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the parser never sees an all-blank block
        with pytest.raises(CsvFormatError, match="no data rows"):
            read_csv(str(blank), "y")


@hyp_settings(max_examples=60, deadline=None)
@given(block=st.integers(1, 5),
       data=st.integers(1, 12).flatmap(lambda n: st.lists(
           st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
           min_size=n, max_size=n)),
       blanks=st.lists(st.integers(0, 12), max_size=4))
def test_read_csv_matches_float_per_cell(tmp_path_factory, block, data, blanks):
    lines = [",".join(repr(v) for v in row) for row in data]
    for at in sorted(blanks, reverse=True):
        lines.insert(min(at, len(lines)), "")
    text = "a,y,b\n" + "\n".join(lines) + "\n"
    path = tmp_path_factory.mktemp("prop") / "p.csv"
    path.write_text(text, encoding="utf-8")
    ref = np.array([[float(c) for c in line.split(",")] for line in lines if line])
    with mock.patch.object(dataio, "_BLOCK_LINES", block):
        X, Y, _ = read_csv(str(path), "y")
    np.testing.assert_array_equal(X.view(np.uint64), ref[:, [0, 2]].view(np.uint64))
    np.testing.assert_array_equal(Y.view(np.uint64), ref[:, 1].view(np.uint64))


def test_read_csv_standardize(tmp_path):
    rng = np.random.default_rng(3)
    X = 5.0 + 2.0 * rng.standard_normal((40, 2))
    path = tmp_path / "wide.csv"
    write_csv(path, X, rng.standard_normal(40))
    got, _, _ = read_csv(str(path), "y", standardize=True)
    np.testing.assert_allclose(got.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(got.std(axis=0), 1.0, atol=1e-12)


def test_read_csv_standardize_constant_column(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("a,y\n2,1\n2,2\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="'a'"):
        read_csv(str(path), "y", standardize=True)


def test_dataset_from_csv(demo_csv):
    path, X, Y = demo_csv
    ds, names = dataset_from_csv(str(path), "y")
    assert names == ["x0", "x1"]
    assert ds.n == 30 and ds.p == 2
    np.testing.assert_allclose(ds.gram, X.T @ X / 30, atol=1e-12)


def test_csv_with_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with U+FEFF
    path = tmp_path / "bom.csv"
    path.write_bytes("y,x1\n1,2\n3,5\n".encode("utf-8-sig"))
    X, Y, names = read_csv(str(path), "y")
    assert names == ["x1"]
    np.testing.assert_array_equal(Y, [1.0, 3.0])
    ds, names = dataset_from_csv(str(path), "y")
    assert names == ["x1"] and ds.n == 2
    np.testing.assert_array_equal(ds.xty, [(2.0 + 15.0) / 2])


def test_dataset_from_csv_needs_a_predictor(tmp_path):
    path = tmp_path / "only_y.csv"
    path.write_text("y\n1\n2\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="no predictor column besides 'y'"):
        dataset_from_csv(str(path), "y")


@pytest.mark.parametrize("block", [1, 7, 1024])
def test_streamed_statistics_match_two_pass_reference(tmp_path, block):
    # blank lines and \r\n endings; the folds and sums may not depend on
    # where the blocks fall
    rng = np.random.default_rng(21)
    X = rng.standard_normal((97, 4))
    Y = X @ np.array([1.0, 0.0, -2.0, 0.5]) + rng.standard_normal(97)
    lines = ["x0,y,x1,x2,x3"]
    for i, (row, y) in enumerate(zip(X, Y)):
        lines.append(",".join(repr(float(v)) for v in (row[0], y, *row[1:])))
        if i % 13 == 5:
            lines.append("")
    path = tmp_path / "crlf.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    got_X, got_Y, _ = read_csv(str(path), "y")
    np.testing.assert_array_equal(got_X, X)
    with mock.patch.object(dataio, "_BLOCK_LINES", block):
        ds, names = dataset_from_csv(str(path), "y", folds=6, fold_seed=5)
    assert names == ["x0", "x1", "x2", "x3"]
    gram, xty, yty, G, c, sizes = reference_statistics(got_X, got_Y, 6, 5)
    np.testing.assert_array_equal(ds.fold_n, sizes)
    assert ds.fold_n.max() - ds.fold_n.min() <= 1
    for got, want in ((ds.gram, gram), (ds.xty, xty), (ds.fold_gram, G), (ds.fold_xty, c)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    assert ds.yty == pytest.approx(yty, rel=1e-12)


def _ingest_peak(path) -> int:
    tracemalloc.start()
    try:
        dataset_from_csv(str(path), "y")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dataset_from_csv_memory_does_not_grow_with_rows(tmp_path):
    rng = np.random.default_rng(4)
    peaks = {}
    for n in (5_000, 40_000):
        data = rng.standard_normal((n, 21))
        path = tmp_path / f"rows{n}.csv"
        np.savetxt(path, data, delimiter=",", fmt="%.17g",
                   header=",".join([f"x{j}" for j in range(20)] + ["y"]), comments="")
        peaks[n] = _ingest_peak(path)
    # 40 000 x 21 doubles alone are 6.7 MB; one block of lines is about 0.5 MB
    assert peaks[40_000] <= 1.25 * peaks[5_000], peaks


def test_standardize_large_mean_matches_two_pass(tmp_path):
    # mean 1e6 and sd 1: X'X/n - mu^2 in one pass would keep about 4 digits
    rng = np.random.default_rng(8)
    Z = rng.standard_normal((500, 3)) * np.array([1.0, 3.0, 0.01])
    X = Z + np.array([1e6, -20.0, 0.5])
    Y = Z @ np.array([0.5, 1.0, 0.0]) + rng.standard_normal(500)
    path = tmp_path / "offset.csv"
    write_csv(path, X, Y)
    Xs, Ys, _ = read_csv(str(path), "y", standardize=True)  # two passes
    for block in (7, 1024):
        with mock.patch.object(dataio, "_BLOCK_LINES", block):
            ds, _ = dataset_from_csv(str(path), "y", standardize=True, folds=4, fold_seed=2)
        _, _, yty, G, c, sizes = reference_statistics(Xs, Ys, 4, 2)
        np.testing.assert_allclose(ds.gram, Xs.T @ Xs / 500, rtol=1e-9)
        np.testing.assert_allclose(ds.xty, Xs.T @ Ys / 500, rtol=1e-9)
        np.testing.assert_allclose(ds.fold_gram, G, rtol=1e-9, atol=1e-9 * np.abs(G).max())
        np.testing.assert_allclose(ds.fold_xty, c, rtol=1e-9, atol=1e-9 * np.abs(c).max())
        assert ds.yty == pytest.approx(yty, rel=1e-12)


def test_standardize_xty_exact_at_large_response_mean(tmp_path):
    # mean(Y) about 5e5 with unit spread: X_c'Y/n formed from the unshifted
    # Y cancels about ten digits (6.7e-10 relative); the reference is exact
    # rational sums over the parsed values, scaled by the rounded sd
    rng = np.random.default_rng(12)
    n = 200
    X = rng.standard_normal((n, 3)) + np.array([3.0, -1.0, 0.5])
    Y = 5e5 + X @ np.array([0.4, 0.0, -0.3]) + rng.standard_normal(n)
    path = tmp_path / "ymean.csv"
    write_csv(path, X, Y)
    ds, _ = dataset_from_csv(str(path), "y", standardize=True, folds=4, fold_seed=3)
    Xf = [[Fraction(v) for v in row] for row in X.tolist()]
    Yf = [Fraction(v) for v in Y.tolist()]
    cols = list(zip(*Xf))
    mean = [sum(col) / n for col in cols]
    sd = [math.sqrt(sum((v - m) ** 2 for v in col) / n) for col, m in zip(cols, mean)]

    def centered_xty(rows):
        return np.array([float(sum((Xf[i][j] - mean[j]) * Yf[i] for i in rows)) / sd[j]
                         for j in range(3)])

    labels = fold_labels_reference(n, 4, 3)
    for got, want in ((ds.xty, centered_xty(range(n)) / n),
                      (ds.fold_xty, [centered_xty(np.flatnonzero(labels == k)) for k in range(4)])):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert ds.yty == pytest.approx(float(sum(y * y for y in Yf)), rel=1e-14)


def test_dataset_from_csv_standardize_constant_column(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("b,a,y\n1,1e6,1\n2,1e6,2\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="constant column 'a'"):
        dataset_from_csv(str(path), "y", standardize=True)


# --- CLI ---------------------------------------------------------------------

def test_cli_missing_required_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--response", "y", "--level", "0.9"])
    assert exc.value.code == 2


def test_cli_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_cli_calibrate_prints_table_value(capsys):
    assert main(["calibrate", "--lambda0", "1", "--target", "0.95"]) == 0
    assert capsys.readouterr().out == "0.9708\n"


@pytest.mark.parametrize("argv", [
    ["--lambda0", "1e300", "--sigma0", "1e-300"],
    ["--lambda0", "1e300", "--c", "1e-300"],
])
def test_cli_calibrate_rejects_an_effective_penalty_that_overflows(argv, capsys):
    # each flag passes its own check, but the penalty they give is inf: exit 1
    # with solve_levels' error, as `fit` gives for a zero sigma_hat
    assert main(["calibrate", "--target", "0.95"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("sparseproj: error: effective penalty lambda0/(sigma0*sqrt(c_j)) "
                            "must be finite and nonnegative, got inf at index 0\n")


@pytest.mark.parametrize("command, flag, value, rule", [
    ("calibrate", "--lambda0", "nan", "a finite number >= 0"),
    ("calibrate", "--lambda0", "inf", "a finite number >= 0"),
    ("calibrate", "--lambda0", "-1", "a finite number >= 0"),
    ("calibrate", "--target", "1.5", "a number in (0, 1)"),
    ("calibrate", "--target", "nan", "a number in (0, 1)"),
    ("calibrate", "--c", "0", "a positive finite number"),
    ("calibrate", "--c", "inf", "a positive finite number"),
    ("calibrate", "--sigma0", "inf", "a positive finite number"),
    ("calibrate", "--sigma0", "-2", "a positive finite number"),
    ("limitcheck", "--target", "1.5", "a number in (0, 1)"),
    ("limitcheck", "--target", "0", "a number in (0, 1)"),
    ("limitcheck", "--outer", "1", "an integer >= 100"),
    ("limitcheck", "--outer", "500.5", "an integer >= 100"),
    ("limitcheck", "--inner", "99", "an integer >= 100"),
    ("limitcheck", "--sigma0", "nan", "a positive finite number"),
    ("limitcheck", "--seed", "-1", "an integer >= 0"),
    ("limitcheck", "--seed", "2.5", "an integer >= 0"),
    # a comma list that starts with a minus sign, also as the flag's next word
    ("limitcheck", "--lambda0", "-1,2", "comma-separated finite numbers >= 0"),
    ("limitcheck", "--signs", "-1,2", "comma-separated signs in {-1, 0, 1}"),
    ("table", "--lambdas", "-0.5,1", "comma-separated finite numbers >= 0"),
    ("table", "--targets", "-0.5,0.9", "comma-separated numbers in (0, 1)"),
])
def test_cli_checks_number_flags_while_parsing(command, flag, value, rule, capsys):
    # exit status 2 is a usage error: the value never reached the command;
    # the value may be attached with '=' or given as the next word
    argv = [command] + (["--lambda0=1", "--target=0.95"] if command == "calibrate" else [])
    for given in ([f"{flag}={value}"], [flag, value]):
        with pytest.raises(SystemExit) as exc:
            main(argv + given)
        assert exc.value.code == 2, given
        err = capsys.readouterr().err
        assert "usage" in err and f"{flag} must be {rule}, got '{value}'" in err, given


def test_cli_negative_list_as_next_word_writes_same_bytes(tmp_path):
    common = ["--lambda0", "1", "--outer", "100", "--inner", "100", "--seed", "3"]
    outs = []
    for signs in (["--signs=-1,0"], ["--signs", "-1,0"]):
        outs.append(tmp_path / f"limit{len(outs)}.csv")
        assert main(["limitcheck"] + signs + common + ["--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_text(encoding="utf-8").count("\n") == 3  # header + 2 coordinates


def test_cli_table_default_grid(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["table", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "lambda,0.9,0.925,0.95,0.975,0.99"
    assert len(lines) == 38
    row = dict(zip(lines[0].split(","), lines[11].split(",")))  # lambda = 0.55
    assert lines[20].split(",")[0] == "1"
    assert lines[20].split(",")[3] == "0.9708"
    assert all(len(line.split(",")) == 6 for line in lines)
    assert float(row["0.9"]) < float(row["0.99"])


def test_cli_table_custom_grid(capsys):
    assert main(["table", "--lambdas", "1,2", "--targets", "0.95"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "lambda,0.95"
    assert lines[1] == "1,0.9708"
    assert lines[2].startswith("2,")


def test_cli_fit_full_shrinkage(tmp_path, demo_csv):
    path, _, _ = demo_csv
    out = tmp_path / "fit.json"
    code = main(["fit", "--data", str(path), "--response", "y",
                 "--level", "0.9", "--lambda", "10", "--draws", "200",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["schema"] == 1
    assert doc["n"] == 30 and doc["p"] == 2
    assert doc["lambda_n"] == 10.0
    assert doc["model_probabilities"] == {"": 1.0}
    for iv in doc["intervals"]:
        assert iv["estimate"] == 0.0
        assert iv["lo"] == 0.0 and iv["hi"] == 0.0
        assert iv["level"] == 0.9
    assert doc["intervals"][0]["name"] == "x0"
    assert doc["diagnostics"]["max_kkt_residual"] <= 1e-10


def test_cli_fit_target_calibrates_levels(tmp_path, demo_csv):
    path, X, Y = demo_csv
    out = tmp_path / "fit.json"
    code = main(["fit", "--data", str(path), "--response", "y",
                 "--target", "0.95", "--lambda", "auto", "--draws", "100",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))

    state = np.random.SeedSequence((3, 0xF17)).generate_state(2)
    ds, _ = dataset_from_csv(str(path), "y", folds=10, fold_seed=int(state[0]))
    lam = 0.5 * cross_validate_lambda(ds)
    assert doc["lambda_n"] == pytest.approx(lam, rel=1e-12)
    assert doc["lambda0"] == pytest.approx(lam * math.sqrt(30), rel=1e-12)

    fact = factorize(ds, PriorConfig())
    resid = Y - X @ fact.ridge_mean
    sigma_hat = math.sqrt(float(resid @ resid) / ds.n)
    assert doc["sigma_hat"] == pytest.approx(sigma_hat, rel=1e-12)
    for j, iv in enumerate(doc["intervals"]):
        lambda_eff = doc["lambda0"] / (sigma_hat * math.sqrt(ds.gram[j, j]))
        expect = solve_gamma(lambda_eff, 0.95)[0]
        assert iv["level"] == pytest.approx(expect, abs=1e-12)
        assert iv["lo"] <= iv["estimate"] <= iv["hi"]


def test_cli_fit_builds_folds_only_for_cv(tmp_path, demo_csv):
    path, _, _ = demo_csv
    folds = []

    def recording(*args, **kwargs):
        folds.append(kwargs["folds"])
        return dataset_from_csv(*args, **kwargs)

    with mock.patch("sparseproj.cli.dataset_from_csv", recording):
        for lam in ("0.1", "auto"):
            assert main(["fit", "--data", str(path), "--response", "y", "--level", "0.9",
                         "--lambda", lam, "--draws", "50",
                         "--out", str(tmp_path / "fit.json")]) == 0
    assert folds == [0, 10]


def test_cli_fit_auto_lambda_when_n_below_p(tmp_path):
    # 40 rows, 60 predictors, three signals: every CV fold's Gram is singular
    rng = np.random.default_rng(40)
    X = rng.standard_normal((40, 60))
    theta = np.zeros(60)
    theta[:3] = (2.0, -1.5, 1.0)
    path = tmp_path / "wide.csv"
    write_csv(path, X, X @ theta + rng.standard_normal(40))
    out = tmp_path / "fit.json"
    assert main(["fit", "--data", str(path), "--response", "y", "--target", "0.95",
                 "--lambda", "auto", "--draws", "200", "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["p"] == 60 and doc["lambda_n"] > 0.0
    assert doc["diagnostics"]["max_kkt_residual"] <= 1e-10


def test_cli_fit_level_target_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", "x.csv", "--response", "y",
              "--level", "0.9", "--target", "0.95"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "cv"])
def test_cli_fit_rejects_non_finite_or_non_positive_lambda(value, demo_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", str(demo_csv[0]), "--response", "y",
              "--level", "0.9", f"--lambda={value}"])  # "-inf" alone reads as a flag
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage" in err and "--lambda must be a positive finite number" in err


@pytest.mark.parametrize("flag, value, rule", [
    ("--level", "1.5", "a number in (0, 1)"),
    ("--level", "1.0", "a number in (0, 1)"),
    ("--level", "0", "a number in (0, 1)"),
    ("--level", "nan", "a number in (0, 1)"),
    ("--target", "1.0", "a number in (0, 1)"),
    ("--target", "inf", "a number in (0, 1)"),
    ("--target", "high", "a number in (0, 1)"),
    ("--draws", "0", "an integer >= 2"),
    ("--draws", "1", "an integer >= 2"),
    ("--draws", "2.5", "an integer >= 2"),
    ("--an", "-1", "a finite number >= 0"),
    ("--an", "nan", "a finite number >= 0"),
    ("--an", "inf", "a finite number >= 0"),
    ("--seed", "-1", "an integer >= 0"),
    ("--seed", "1.5", "an integer >= 0"),
])
def test_cli_fit_rejects_bad_flag_before_reading_data(flag, value, rule, tmp_path, capsys):
    # the data file does not exist: exit status 2 shows the flag was checked
    # while parsing, before fit opened the file (which would exit 1)
    argv = ["fit", "--data", str(tmp_path / "missing.csv"), "--response", "y",
            f"{flag}={value}"]
    if flag not in ("--level", "--target"):
        argv.append("--level=0.9")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{flag} must be {rule}, got '{value}'" in capsys.readouterr().err


def test_cli_fit_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,y\n1,oops\n", encoding="utf-8")
    assert main(["fit", "--data", str(bad), "--response", "y",
                 "--level", "0.9"]) == 1
    assert "sparseproj: error:" in capsys.readouterr().err
    assert main(["fit", "--data", str(tmp_path / "missing.csv"),
                 "--response", "y", "--level", "0.9"]) == 1


def test_cli_simulate_single_replication(tmp_path):
    cfg = {"n": 40, "p": 3, "theta0": [1.0, 0.0, 0.0], "replications": 1,
           "draws_per_rep": 50, "seed": 0, "lambda_n": 0.5}
    cfg_path = tmp_path / "scen.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "cov.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "design,n,component,role,coverage,mc_se,mean_length,selection_freq"
    assert len(lines) == 4
    assert lines[1].split(",")[3] == "signal"
    assert float(lines[1].split(",")[5]) == 0.0  # one replication: se is 0


def test_cli_simulate_default_signals_and_sweep(tmp_path):
    cfg = {"n": 40, "p": 6, "replications": 1, "draws_per_rep": 50,
           "seed": 0, "lambda_n": 0.5, "sweep": {"s_values": [0, 2]}}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "s,level,n,signal_coverage,noise_coverage"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0"


@pytest.mark.parametrize("sweep", [{}, {"s_values": [2.7]}, {"s_values": [True]}])
def test_cli_simulate_rejects_bad_sweep(tmp_path, sweep, capsys):
    # an empty sweep is not a plain study, and s is never truncated, wrapped
    # or read from a JSON true
    cfg = {"n": 40, "p": 6, "replications": 1, "draws_per_rep": 50,
           "seed": 0, "lambda_n": 0.5, "sweep": sweep}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "sparseproj: error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cfg, missing", [
    ({"n": 40, "p": 6, "lambda_n": 0.5, "sweep": {}}, "missing key 's_values'"),
    ({"n": 40, "lambda_n": 0.5}, "missing key 'p'"),
    ({"p": 3, "theta0": [1.0, 0.0, 0.0]}, "argument: 'n'"),
    ("n = 40", "expected a JSON object"),
    ([40, 6], "expected a JSON object"),
    ({"n": 40, "p": 6, "lambda_n": 0.5, "signals": "captions"},
     "signals must be 'default' or 'caption', got 'captions'"),
    ({"n": 40, "p": 3, "theta0": [1.0, float("nan"), 0.0]},
     "theta0 must be finite, got nan at index 1"),
    ({"n": 40, "p": 6, "design": "toeplitz"}, "unknown design 'toeplitz'"),
    ({"n": 40, "p": 6, "sweep": {"s_values": 3}},
     "sweep must be {\"s_values\": [integers]}, got {'s_values': 3}"),
    ({"n": 40, "p": 6, "sweep": [1, 2]}, "sweep must be {\"s_values\": [integers]}, got [1, 2]"),
    ({"n": 40, "p": 3, "theta0": [1.0, 0.0, 0.0], "signals": "default"},
     "give theta0 or signals, not both"),
    ({"n": 40, "p": 6, "lambda_n": "0.1"}, "lambda_n must be a number, got '0.1'"),
    ({"n": 40, "p": 6, "error_sd": True}, "error_sd must be a number, got True"),
    ({"n": 40, "p": 6, "sweep": {"s_values": [True]}}, "s must be an integer, got True"),
    ({"n": 40, "p": 6, "sweep": {"s_values": [2, 9]}}, "s = 9 lies outside [0, p = 6]"),
])
def test_cli_simulate_names_config_file_and_missing_key(tmp_path, cfg, missing, capsys):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"sparseproj: error: scenario config {cfg_path}: ")
    assert err.endswith(missing)


@pytest.mark.parametrize("argv", [
    ["limitcheck", "--signs", ""],
    ["limitcheck", "--lambda0", ""],
    ["table", "--lambdas", ""],
])
def test_cli_rejects_empty_number_list(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage" in err and "expected at least one number" in err


@pytest.mark.parametrize("command, flag, value, rule", [
    ("limitcheck", "--lambda0", "-1", "finite numbers >= 0"),
    ("limitcheck", "--lambda0", "nan", "finite numbers >= 0"),
    ("limitcheck", "--lambda0", "0.5,inf", "finite numbers >= 0"),
    ("limitcheck", "--lambda0", "1,x", "finite numbers >= 0"),
    ("limitcheck", "--signs", "2,0", "signs in {-1, 0, 1}"),
    ("limitcheck", "--signs", "0.5", "signs in {-1, 0, 1}"),
    ("limitcheck", "--signs", "1,nan", "signs in {-1, 0, 1}"),
    ("table", "--lambdas", "-1", "finite numbers >= 0"),
    ("table", "--targets", "0.9,1.5", "numbers in (0, 1)"),
])
def test_cli_checks_number_lists_while_parsing(command, flag, value, rule, capsys):
    # exit status 2 is a usage error: LimitSpec or the table never saw the value
    with pytest.raises(SystemExit) as exc:
        main([command, f"{flag}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage" in err and f"{flag} must be comma-separated {rule}, got '{value}'" in err


@pytest.mark.parametrize("value", ["0", "-2", "1.5", "two"])
def test_cli_threads_flag_must_be_a_positive_integer(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([f"--threads={value}", "table"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage" in err and f"--threads must be an integer >= 1, got '{value}'" in err


@pytest.mark.parametrize("value", ["0", "-2", "1.5", "two", ""])
def test_cli_threads_environment_must_be_a_positive_integer(value, monkeypatch, capsys):
    monkeypatch.setenv("SPARSEPROJ_THREADS", value)
    with pytest.raises(SystemExit) as exc:
        main(["table"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage" in err
    assert f"SPARSEPROJ_THREADS must be an integer >= 1, got '{value}'" in err


def test_cli_threads_from_flag_then_environment_then_one(monkeypatch, tmp_path):
    seen = []
    monkeypatch.setattr("sparseproj.cli.limitcheck_rows",
                        lambda *args, workers: seen.append(workers) or [])
    argv = ["limitcheck", "--out", str(tmp_path / "limit.csv")]
    monkeypatch.setenv("SPARSEPROJ_THREADS", "3")
    assert main(argv) == 0
    monkeypatch.setenv("SPARSEPROJ_THREADS", "junk")  # not read when the flag is given
    assert main(["--threads", "2"] + argv) == 0
    monkeypatch.delenv("SPARSEPROJ_THREADS")
    assert main(argv) == 0
    assert seen == [3, 2, 1]


def test_cli_limitcheck_calibrates_at_lambda0_over_sigma0(tmp_path):
    # each row's level and analytic value come from its coordinate's
    # effective penalty lambda0 / (sigma0 sqrt(c_j)), so doubling both flags
    # leaves those columns as they were
    columns = []
    for sigma0, lam in (("2", "2"), ("1", "1")):
        out = tmp_path / f"limit{sigma0}.csv"
        assert main(["limitcheck", "--sigma0", sigma0, "--lambda0", lam, "--signs", "1,-1,0",
                     "--outer", "100", "--inner", "100", "--seed", "1", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")[1:]
        columns.append([(cells[3], cells[6]) for cells in (line.split(",") for line in lines)])
    assert len(columns[0]) == 3 and columns[0] == columns[1]
    assert columns[1][0] == ("0.9708518789", "0.95")


def test_cli_limitcheck_layout(tmp_path):
    out = tmp_path / "limit.csv"
    code = main(["limitcheck", "--lambda0", "0.5", "--signs", "1,0",
                 "--outer", "100", "--inner", "100", "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "lambda0,coordinate,role,level,estimate,mc_se,analytic"
    assert len(lines) == 3
    sig = lines[1].split(",")
    noi = lines[2].split(",")
    assert sig[:3] == ["0.5", "0", "signal"]
    assert noi[:3] == ["0.5", "1", "noise"]
    for cells in (sig, noi):
        for cell in cells[3:]:
            float(cell)


LIMITCHECK_PINNED = """\
lambda0,coordinate,role,level,estimate,mc_se,analytic
0,0,signal,0.95,0.93,0.02551470164,0.95
0,1,signal,0.95,0.95,0.02179449472,0.95
0,2,noise,0.95,0.89,0.03128897569,0.95
0.5,0,signal,0.9565868183,0.96,0.01959591794,0.95
0.5,1,signal,0.9565868183,0.94,0.02374868417,0.95
0.5,2,noise,0.9565868183,0.92,0.02712931993,0.9625785733
2,0,signal,0.9918585222,0.96,0.01959591794,0.95
2,1,signal,0.9918585222,0.95,0.02179449472,0.95
2,2,noise,0.9918585222,1,0,0.9993328893
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_limitcheck_bytes_pinned(tmp_path, threads):
    # The whole CSV of a three-penalty sweep, lambda0 = 0 (one more row
    # penalty of the stacked batch) included: restructuring the Monte-Carlo
    # pass must not move a byte.
    out = tmp_path / "limit.csv"
    assert main(["--threads", threads, "limitcheck", "--lambda0", "0,0.5,2",
                 "--signs", "1,-1,0", "--outer", "100", "--inner", "200",
                 "--seed", "3", "--out", str(out)]) == 0
    assert out.read_bytes() == LIMITCHECK_PINNED.encode("utf-8")


def test_cli_limitcheck_zero_beside_one_positive_penalty_bytes_pinned(tmp_path):
    # the zero penalty is the first block of the stacked batch, at row
    # penalty 0; these are the bytes of solving every penalty on its own
    out = tmp_path / "limit.csv"
    assert main(["limitcheck", "--lambda0", "0,0.5", "--signs", "1,0", "--outer", "100",
                 "--inner", "100", "--seed", "2", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == """\
lambda0,coordinate,role,level,estimate,mc_se,analytic
0,0,signal,0.95,0.93,0.02551470164,0.95
0,1,noise,0.95,0.97,0.01705872211,0.95
0.5,0,signal,0.9565868183,0.93,0.02551470164,0.95
0.5,1,noise,0.9565868183,0.97,0.01705872211,0.9625785733
"""


# --- console-script entry point, in a fresh interpreter ----------------------
# main() calls logging.basicConfig, which pytest's log capture would hide
# in-process, so these runs need their own interpreter.

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def child_env():
    """The environment with the directory of the already-imported sparseproj
    first on PYTHONPATH, so the child runs the same source as this process
    from any working directory, never a stale installed copy."""
    src = str(Path(sparseproj.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_console_script(*args):
    """Run the `sparseproj` script declared in [project.scripts] the way the
    wrapper that pip generates does: import the entry point, call it, exit."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["sparseproj"]
    module, attr = target.split(":")
    code = (f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'sparseproj'; sys.exit({attr}())")
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=child_env())


def test_console_script_help():
    proc = run_console_script("--help")
    assert proc.returncode == 0
    for name in ("fit", "calibrate", "table", "simulate", "limitcheck"):
        assert name in proc.stdout


def test_console_script_calibrate_and_logging(tmp_path, demo_csv):
    proc = run_console_script("calibrate", "--lambda0", "1",
                              "--target", "0.95")
    assert proc.returncode == 0
    assert proc.stdout == "0.9708\n"

    path, _, _ = demo_csv
    proc = run_console_script("-v", "fit", "--data", str(path),
                              "--response", "y", "--level", "0.9",
                              "--lambda", "0.5", "--draws", "100",
                              "--seed", "2", "--out", str(tmp_path / "o.json"))
    assert proc.returncode == 0
    assert "fit: seed=2" in proc.stderr
    assert "lambda0=" in proc.stderr and "max_kkt=" in proc.stderr


def test_commands_load_no_scipy_module(tmp_path, demo_csv):
    # scipy is a test-only dependency: importing the CLI and running its
    # commands must not load any of it (a fresh interpreter, as pytest and
    # the test modules import scipy themselves)
    path, _, _ = demo_csv
    code = f"""
import sys
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import sparseproj.cli
from sparseproj.cli import main
assert not loaded(), loaded()
runs = [["fit", "--data", {str(path)!r}, "--response", "y", "--lambda", "auto",
         "--target", "0.95", "--draws", "100", "--seed", "1",
         "--out", {str(tmp_path / "fit.json")!r}],
        ["calibrate", "--lambda0", "1", "--target", "0.95"],
        ["limitcheck", "--lambda0", "0.5", "--signs", "1,0", "--outer", "100",
         "--inner", "100", "--seed", "0", "--out", {str(tmp_path / "limit.csv")!r}]]
for argv in runs:
    assert main(argv) == 0, argv
    assert not loaded(), (argv[0], loaded())
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0.9708\n"


def test_console_script_usage_error():
    proc = subprocess.run([sys.executable, "-m", "sparseproj.cli", "fit"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()



# solver, region and calibration API that no command called, deleted from src/
DELETED_API = {
    "projection": ("QuadL1Problem", "solve_quad_l1", "kkt_check", "objective_value",
                   "_kkt_batch", "SolverSettings", "_cd_shared", "_cd_sweep",
                   "_newton_cd_solve", "_newton_step", "_residual"),
    "regions": ("ProjectedSample", "radius_quantile", "_distances", "_warn_degenerate",
                "minkowski_norm", "rectangle_levels", "minkowski_norms"),
    "calibration": ("h_minus", "CalibrationQuery", "CalibrationResult", "_clipped_gamma"),
    "limits": ("sample_xi", "_cd_shared", "_solve_limit_batch", "_sqrt_factors",
               "_t_star_rhs"),
    "posterior": ("_shard_sizes",),
    "types": ("NormSelector",),
    "simulate": ("simulate_rows", "_dataset", "_rep_streams", "_run_replication"),
}


def test_package_exports_resolve_and_leave_out_deleted_api():
    assert all(hasattr(sparseproj, name) for name in sparseproj.__all__)
    namespace = {}
    exec("from sparseproj import *", namespace)  # a fresh namespace
    assert set(sparseproj.__all__) <= namespace.keys()
    for module, names in DELETED_API.items():
        mod = importlib.import_module(f"sparseproj.{module}")
        for name in names:
            assert name not in sparseproj.__all__ and not hasattr(sparseproj, name), name
            assert not hasattr(mod, name), (module, name)


def test_readme_library_quick_start_runs(tmp_path):
    # the README's library example runs as written, in a fresh interpreter
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "(0, 1, 2): " in proc.stdout  # the model probabilities were printed


def test_demos_run(tmp_path):
    # each narrative script in demos/ runs to completion in a fresh interpreter
    demos = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
    assert "fit_pipeline.py" in [d.name for d in demos]
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                              text=True, env=child_env(), cwd=tmp_path)
        assert proc.returncode == 0, (demo.name, proc.stderr)
        assert proc.stdout, demo.name
