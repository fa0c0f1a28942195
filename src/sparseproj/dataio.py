"""CSV reading, streamed into a Dataset's sufficient statistics.

CSV files are UTF-8, with or without a byte-order mark, with one header row,
read by the csv module; header names are stripped of whitespace and must be
distinct.  The data lines are handed to numpy's C parser (np.loadtxt) in
blocks of rows.  A cell is a decimal or exponent float literal, optionally
padded with whitespace or wrapped in double quotes; forms that Python's
float() also takes, such as 1_000 or non-ASCII digits, are non-numeric here.
Lines holding only a line ending are skipped.  Errors name the file line:
CsvFormatError for a ragged row or a non-numeric cell (found by re-parsing
the failing block line by line with the same parser), and NonFiniteInput,
with the column, for a cell that parses to NaN or infinity (nan, inf, 1e400).

dataset_from_csv feeds each parsed block to a DatasetAccumulator and drops
it, so its memory does not grow with the number of rows; read_csv
concatenates the same blocks into X and Y.
"""

from __future__ import annotations

import csv
import itertools

import numpy as np

from .errors import NonFiniteInput, SparseProjError
from .types import Dataset, DatasetAccumulator


class CsvFormatError(SparseProjError):
    """Malformed CSV input: ragged row, non-numeric cell, or bad header."""


# Data lines handed to the parser at a time: big enough that the per-call
# overhead vanishes, small enough that the block's line strings stay a few MB.
_BLOCK_LINES = 1024


def read_csv(path: str, response: str,
             standardize: bool = False) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Read a UTF-8 CSV with a header row into (X, Y, predictor_names).

    The named response column becomes Y; every other column is a predictor,
    in header order.  No intercept column is added.  Header names must be
    distinct after stripping whitespace.  Data lines are parsed in blocks of
    _BLOCK_LINES by numpy's C parser; blank lines are skipped.  A ragged row,
    a non-numeric cell or a NaN/infinite value is rejected with its file line.
    standardize centers and scales each predictor by its mean and population
    standard deviation, in two passes over X.
    """
    with _open_csv(path) as fh:
        header, y_col, first_line = _read_header(fh, path, response)
        data = np.concatenate(list(_blocks(fh, path, header, first_line)))
    Y = data[:, y_col]
    X = np.delete(data, y_col, axis=1)
    names = [h for i, h in enumerate(header) if i != y_col]
    if standardize:
        mu = X.mean(axis=0)
        sd = X.std(axis=0)
        if np.any(sd == 0):
            raise _constant_column(path, names, sd)
        X = (X - mu) / sd
    return X, Y, names


def dataset_from_csv(path: str, response: str, standardize: bool = False,
                     folds: int = 0, fold_seed: int = 0) -> tuple[Dataset, list[str]]:
    """Read a CSV as read_csv does, straight into a Dataset with `folds` CV
    folds (0 for none) drawn from fold_seed, and return it with the
    predictor names.

    Each parsed block goes to a DatasetAccumulator and is dropped, so no
    buffer grows with the number of rows.  With standardize, the predictors
    are centered and scaled by their mean and population standard deviation
    as read_csv does, from the statistics of the rows shifted by the first
    data row, response included (no one-pass cancellation for a column whose
    mean is large against its spread); a constant column raises
    CsvFormatError naming it.
    """
    with _open_csv(path) as fh:
        header, y_col, first_line = _read_header(fh, path, response)
        names = [h for i, h in enumerate(header) if i != y_col]
        if not names:
            raise CsvFormatError(f"{path}: no predictor column besides {response!r}")
        acc = DatasetAccumulator(len(names) + standardize, folds, fold_seed)
        shift = None
        for block in _blocks(fh, path, header, first_line):
            if standardize:
                shift = block[0].copy() if shift is None else shift
                block = np.column_stack([block - shift, np.ones(block.shape[0])])
            acc.add(np.delete(block, y_col, axis=1), block[:, y_col])
    ds = acc.dataset()
    return (_standardized(ds, path, names, float(shift[y_col])) if standardize else ds), names


def _standardized(ds: Dataset, path: str, names: list[str], y0: float) -> Dataset:
    """The Dataset of the standardized predictors, from ds, whose rows are
    the predictors and the response shifted by a reference row (s, y0) and
    whose columns are those predictors then a column of ones.

    With Z = X - 1s', V = Y - y0 1 and d = Z'1/n, the centered predictors
    are Z - 1d', so X_c'X_c/n = Z'Z/n - dd', X_c'Y/n = Z'V/n - d*mean(V)
    and Y'Y = V'V + 2 y0 sum(V) + n y0^2, and per fold X_ck'X_ck = Z_k'Z_k
    - t_k d' - d t_k' + n_k dd' with t_k = Z_k'1 and X_ck'Y_k = Z_k'V_k -
    d*sum(V_k) + y0 (t_k - n_k d); the ones column holds d, t_k, mean(V)
    and sum(V_k).  No difference cancels terms of the raw values' size.
    """
    p = ds.p - 1
    d = ds.gram[:p, p]
    var = np.diag(ds.gram)[:p] - d * d
    sd = np.sqrt(np.maximum(var, 0.0))
    if np.any(sd == 0):
        raise _constant_column(path, names, sd)
    scale = np.outer(sd, sd)
    t = ds.fold_gram[:, :p, p]
    dd = np.outer(d, d)
    fold_gram = (ds.fold_gram[:, :p, :p] - t[:, :, None] * d - d[:, None] * t[:, None, :]
                 + ds.fold_n[:, None, None] * dd) / scale
    fold_xty = (ds.fold_xty[:, :p] - ds.fold_xty[:, p, None] * d
                + y0 * (t - ds.fold_n[:, None] * d)) / sd
    return Dataset(n=ds.n, p=p, gram=(ds.gram[:p, :p] - dd) / scale,
                   xty=(ds.xty[:p] - ds.xty[p] * d) / sd,
                   yty=ds.yty + ds.n * y0 * (2.0 * ds.xty[p] + y0),
                   fold_gram=fold_gram, fold_xty=fold_xty, fold_n=ds.fold_n)


def _constant_column(path: str, names: list[str], sd: np.ndarray) -> CsvFormatError:
    flat = names[int(np.argmax(sd == 0))]
    return CsvFormatError(f"{path}: cannot standardize constant column {flat!r}")


def _open_csv(path: str):
    # utf-8-sig drops the byte-order mark that spreadsheet exports put first
    return open(path, newline="", encoding="utf-8-sig")


def _read_header(fh, path: str, response: str) -> tuple[list[str], int, int]:
    """The stripped header names, the response's column index and the file
    line number of the first data line; leaves fh at that line."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError(f"{path}: empty file, header row required") from None
    header = [h.strip() for h in header]
    dupes = sorted({h for h in header if header.count(h) > 1})
    if dupes:
        raise CsvFormatError(f"{path}: duplicate column names {dupes} in header")
    if response not in header:
        raise CsvFormatError(f"{path}: response column {response!r} not in header {header}")
    return header, header.index(response), reader.line_num + 1


def _is_blank(line: str) -> bool:
    return not line.rstrip("\r\n")


def _loadtxt(lines: list[str], **kwargs) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2, **kwargs)


def _cells(line: str) -> list[str]:
    """The cells of one line as the parser splits them, as Python strings:
    numpy's fixed-width str dtype would drop trailing NUL characters."""
    return _loadtxt([line], dtype=object)[0].tolist()


def _blocks(fh, path: str, header: list[str], first_line: int):
    """Parse the lines left in fh block by block, yielding (rows, width)
    arrays; raises CsvFormatError if there is no data row.

    first_line is the file line number of the next line in fh; errors name
    file lines, counting the blank ones.
    """
    lineno = first_line
    parsed = False
    while lines := list(itertools.islice(fh, _BLOCK_LINES)):
        # an all-blank block would make the parser warn about missing data
        if not all(map(_is_blank, lines)):
            yield _parse_block(lines, path, header, lineno)
            parsed = True
        lineno += len(lines)
    if not parsed:
        raise CsvFormatError(f"{path}: no data rows")


def _parse_block(lines: list[str], path: str, header: list[str], lineno: int) -> np.ndarray:
    """Parse one block whose first line is file line lineno; checks the width
    against the header and that every value is finite."""
    try:
        block = _loadtxt(lines, dtype=float)
    except ValueError:
        block = None
    # the parser takes its width from the block's first row
    if block is None or block.shape[1] != len(header):
        raise _first_bad_line(lines, path, len(header), lineno)
    finite = np.isfinite(block)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        data_lines = [i for i, line in enumerate(lines) if not _is_blank(line)]
        i = data_lines[row]
        cell = _cells(lines[i])[col]
        raise NonFiniteInput(f"{path}, row {lineno + i}: non-finite cell {cell!r} "
                             f"in column {header[col]!r}")
    return block


def _first_bad_line(lines: list[str], path: str, width: int, lineno: int) -> CsvFormatError:
    """Re-parse a rejected block one line at a time with the same parser and
    describe the first line it rejects."""
    for i, line in enumerate(lines):
        if _is_blank(line):
            continue
        cells = _cells(line)
        if len(cells) != width:
            return CsvFormatError(f"{path}, row {lineno + i}: expected {width} cells, got {len(cells)}")
        for col, cell in enumerate(cells):
            try:
                _loadtxt([line], dtype=float, usecols=col)
            except ValueError:
                return CsvFormatError(f"{path}, row {lineno + i}: non-numeric cell {cell!r}")
    return CsvFormatError(f"{path}, rows {lineno}-{lineno + len(lines) - 1}: "
                          "rejected by the CSV parser")
