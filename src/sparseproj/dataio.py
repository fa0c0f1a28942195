"""File formats and chunked ingestion: CSV reading and Gram accumulation.

CSV files are UTF-8 with one header row, read by the csv module; header
names are stripped of whitespace and must be distinct.  The data lines are
handed to numpy's C parser (np.loadtxt) in blocks of rows and the blocks are
concatenated.  A cell is a decimal or exponent float literal, optionally
padded with whitespace or wrapped in double quotes; forms that Python's
float() also takes, such as 1_000 or non-ASCII digits, are non-numeric here.
Lines holding only a line ending are skipped.  Errors name the file line:
CsvFormatError for a ragged row or a non-numeric cell (found by re-parsing
the failing block line by line with the same parser), and NonFiniteInput,
with the column, for a cell that parses to NaN or infinity (nan, inf, 1e400).

The Gram accumulator keeps only X'X, X'Y, Y'Y and the row count, which is
all the fitting pipeline needs, so chunks of any size (from any number of
machines) can be summed and merged in any grouping.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, SparseProjError
from .types import Dataset, frozen_copy, validate_dataset


class CsvFormatError(SparseProjError):
    """Malformed CSV input: ragged row, non-numeric cell, or bad header."""


# Data lines handed to the parser at a time: big enough that the per-call
# overhead vanishes, small enough that the block's line strings stay a few MB.
_BLOCK_LINES = 1024


@dataclass(frozen=True)
class GramAccumulator:
    """Running cross products over ingested rows.

    Merging accumulators adds fields elementwise, so merge is associative
    and commutative up to float rounding regardless of chunk boundaries.
    """

    p: int
    sum_xtx: np.ndarray
    sum_xty: np.ndarray
    sum_yy: float
    count: int

    def __post_init__(self):
        xtx = frozen_copy(self.sum_xtx)
        xty = frozen_copy(self.sum_xty).ravel()
        if xtx.shape != (self.p, self.p) or xty.shape != (self.p,):
            raise DimensionMismatch("accumulator fields disagree with p")
        object.__setattr__(self, "sum_xtx", xtx)
        object.__setattr__(self, "sum_xty", xty)

    @classmethod
    def empty(cls, p: int) -> "GramAccumulator":
        return cls(p=p, sum_xtx=np.zeros((p, p)), sum_xty=np.zeros(p),
                   sum_yy=0.0, count=0)

    def merge(self, other: "GramAccumulator") -> "GramAccumulator":
        if other.p != self.p:
            raise DimensionMismatch(f"cannot merge p = {self.p} with p = {other.p}")
        return GramAccumulator(p=self.p,
                               sum_xtx=self.sum_xtx + other.sum_xtx,
                               sum_xty=self.sum_xty + other.sum_xty,
                               sum_yy=self.sum_yy + other.sum_yy,
                               count=self.count + other.count)


def ingest_chunk(acc: GramAccumulator, X_chunk: np.ndarray,
                 Y_chunk: np.ndarray) -> GramAccumulator:
    """Fold a block of rows into the accumulator; empty chunks are no-ops."""
    X = np.atleast_2d(np.asarray(X_chunk, dtype=float))
    Y = np.asarray(Y_chunk, dtype=float).ravel()
    if X.size == 0 and Y.size == 0:
        return acc
    if X.shape[1] != acc.p:
        raise DimensionMismatch(f"chunk has {X.shape[1]} columns, expected {acc.p}")
    if X.shape[0] != Y.shape[0]:
        raise DimensionMismatch("chunk X and Y row counts differ")
    return GramAccumulator(p=acc.p,
                           sum_xtx=acc.sum_xtx + X.T @ X,
                           sum_xty=acc.sum_xty + X.T @ Y,
                           sum_yy=acc.sum_yy + float(Y @ Y),
                           count=acc.count + X.shape[0])


def read_csv(path: str, response: str,
             standardize: bool = False) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Read a UTF-8 CSV with a header row into (X, Y, predictor_names).

    The named response column becomes Y; every other column is a predictor,
    in header order.  No intercept column is added.  Header names must be
    distinct after stripping whitespace.  Data lines are parsed in blocks of
    _BLOCK_LINES by numpy's C parser; blank lines are skipped.  A ragged row,
    a non-numeric cell or a NaN/infinite value is rejected with its file line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
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
        data = _read_rows(fh, path, header, first_line=reader.line_num + 1)
    y_col = header.index(response)
    Y = data[:, y_col]
    X = np.delete(data, y_col, axis=1)
    names = [h for i, h in enumerate(header) if i != y_col]
    if standardize:
        mu = X.mean(axis=0)
        sd = X.std(axis=0)
        if np.any(sd == 0):
            flat = names[int(np.argmax(sd == 0))]
            raise CsvFormatError(f"{path}: cannot standardize constant column {flat!r}")
        X = (X - mu) / sd
    return X, Y, names


def _is_blank(line: str) -> bool:
    return not line.rstrip("\r\n")


def _loadtxt(lines: list[str], **kwargs) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2, **kwargs)


def _cells(line: str) -> list[str]:
    """The cells of one line as the parser splits them, as Python strings:
    numpy's fixed-width str dtype would drop trailing NUL characters."""
    return _loadtxt([line], dtype=object)[0].tolist()


def _read_rows(fh, path: str, header: list[str], first_line: int) -> np.ndarray:
    """Parse the lines left in fh block by block into one (rows, width) array.

    first_line is the file line number of the next line in fh; errors name
    file lines, counting the blank ones.
    """
    blocks = []
    lineno = first_line
    while lines := list(itertools.islice(fh, _BLOCK_LINES)):
        # an all-blank block would make the parser warn about missing data
        if not all(map(_is_blank, lines)):
            blocks.append(_parse_block(lines, path, header, lineno))
        lineno += len(lines)
    if not blocks:
        raise CsvFormatError(f"{path}: no data rows")
    return np.concatenate(blocks)


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


def dataset_from_csv(path: str, response: str, standardize: bool = False,
                     chunk_rows: int = 4096) -> tuple[Dataset, list[str]]:
    """Read a CSV and build a Dataset, running the rows through the chunked
    Gram accumulator (whose sums are checked against the dataset's)."""
    X, Y, names = read_csv(path, response, standardize=standardize)
    acc = GramAccumulator.empty(X.shape[1])
    for start in range(0, X.shape[0], chunk_rows):
        acc = ingest_chunk(acc, X[start:start + chunk_rows], Y[start:start + chunk_rows])
    ds = validate_dataset(X, Y)
    scale = max(1.0, float(np.abs(ds.gram).max()))
    if float(np.abs(acc.sum_xtx / acc.count - ds.gram).max()) > 1e-10 * scale:
        raise SparseProjError("accumulated Gram disagrees with direct computation")
    return ds, names
