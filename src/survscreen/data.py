"""Right-censored sample container and the one CSV table format.

Observed times are log-transformed once, at construction; everything
downstream works on the log scale.  The raw-scale times are kept alongside
so that emitted CSVs reproduce the ingested values exactly.  Every CSV the
package reads goes through ``read_table`` or ``load_sample`` (one row
iterator behind both), and every CSV it writes through ``write_table``.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadValue,
    MissingColumn,
    NonBinaryStatus,
    NonNumericCell,
    NonPositiveTime,
    TooFewRows,
)


#: float64 cells in one block of a blockwise pass over the covariates (512 KB)
BLOCK_CELLS = 1 << 16


def fmt_float(x: float) -> str:
    """Shortest decimal representation that round-trips to the same float."""
    return repr(float(x))


@dataclass
class SurvivalSample:
    """Log observed times, event indicators and an n x d covariate matrix.

    events[i] is 1 when the event was observed and 0 when the observation
    is censored.  ``times`` holds the raw-scale observed times.
    """

    log_times: np.ndarray
    events: np.ndarray
    covariates: np.ndarray
    covariate_names: list[str] | None = None
    times: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.log_times = np.asarray(self.log_times, dtype=float)
        self.events = np.asarray(self.events)
        self.covariates = np.atleast_2d(np.asarray(self.covariates, dtype=float))
        n = self.log_times.shape[0]
        if n < 2:
            raise TooFewRows(f"need at least 2 observations, got {n}")
        if self.events.shape[0] != n or self.covariates.shape[0] != n:
            raise ValueError("log_times, events and covariates disagree on n")
        bad = ~np.isin(self.events, (0, 1))
        if bad.any():
            raise NonBinaryStatus(int(np.flatnonzero(bad)[0]) + 1)
        self.events = self.events.astype(np.int64)
        bad = ~np.isfinite(self.log_times)
        if bad.any():
            raise NonPositiveTime(int(np.flatnonzero(bad)[0]) + 1)
        if self.times is None:
            self.times = np.exp(self.log_times)
        else:
            self.times = np.asarray(self.times, dtype=float)
        if self.covariate_names is not None:
            if len(self.covariate_names) != self.covariates.shape[1]:
                raise ValueError("covariate_names length does not match d")

    @classmethod
    def from_times(cls, times, events, covariates, covariate_names=None):
        """Build a sample from raw-scale observed times (must be > 0)."""
        times = np.asarray(times, dtype=float)
        bad = ~(np.isfinite(times) & (times > 0))
        if bad.any():
            raise NonPositiveTime(int(np.flatnonzero(bad)[0]) + 1)
        return cls(np.log(times), events, covariates, covariate_names, times=times)

    @property
    def n(self) -> int:
        return self.log_times.shape[0]

    @property
    def d(self) -> int:
        return self.covariates.shape[1]

    def names(self) -> list[str]:
        if self.covariate_names is not None:
            return list(self.covariate_names)
        return [f"x{j + 1}" for j in range(self.d)]


@dataclass
class CovariateSummary:
    """Column means and unbiased (divisor n-1) column variances."""

    means: np.ndarray
    variances: np.ndarray

    @property
    def degenerate(self) -> np.ndarray:
        """Mask of zero-variance (constant) covariates."""
        return self.variances == 0.0


def covariate_summary(x: np.ndarray, weights: np.ndarray | None = None) -> CovariateSummary:
    """Per-column means and variances of the covariates x (n x d) under a
    weighted distribution.

    With weights w the means are sum(w x) / sum(w) and the variances
    sum(w (x - mean)^2) / (sum(w) - 1), which is the n-1 divisor when w
    sums to n; rows of weight 0 do not count at all, and the weights must
    sum to more than 1.  ``weights=None`` gives every row weight 1: the
    plain means and n-1 divisor variances.  The columns are reduced in
    ``column_blocks``, so no copy of the whole matrix is made.  This is the
    one pass that takes the moments of the covariates for CARS: the
    weighted rows of ``shrinkage`` are standardized from it.

    Constant columns (over the rows that carry weight) are flagged via
    ``CovariateSummary.degenerate`` rather than rejected; downstream scoring
    assigns them score 0.
    """
    x = np.asarray(x, dtype=float)
    weights = np.ones(x.shape[0]) if weights is None else np.asarray(weights, dtype=float)
    carried = weights > 0
    w = weights[carried]
    total = float(w.sum())
    if not total > 1.0:
        raise BadValue(f"weights must sum to more than 1, got {total}")
    means, variances = np.empty((2, x.shape[1]))
    for cols, xt in column_blocks(x, rows=carried):
        means[cols] = (xt * w).sum(axis=1) / total
        # a constant column has zero variance exactly; do not let mean round-off
        # leave a 1e-32 residue that would defeat the degeneracy flag
        constant = (xt == xt[:, :1]).all(axis=1)
        xt -= means[cols, None]
        variances[cols] = np.where(constant, 0.0, (xt**2 * w).sum(axis=1) / (total - 1.0))
    return CovariateSummary(means, variances)


def block_length(cross: int, cells: int | None = None) -> int:
    """Rows (or columns) of ``cross`` cells each in one block of at most
    ``cells`` cells (default ``BLOCK_CELLS``), and at least one."""
    return max(1, (BLOCK_CELLS if cells is None else cells) // max(cross, 1))


def column_blocks(x: np.ndarray, rows: np.ndarray | None = None, cells: int | None = None):
    """(columns, xt) for consecutive blocks of columns of x, in order.

    ``columns`` is the slice of the block and xt the C-contiguous transpose
    of ``x[rows, columns]`` (every row when ``rows`` is None), at most
    ``cells`` cells (default ``BLOCK_CELLS``) and at least one column.  A
    row of xt is one column in contiguous memory, so a reduction along it
    gives the same bits however the columns are blocked.
    """
    width = block_length(x.shape[0] if rows is None else int(np.count_nonzero(rows)), cells)
    for lo in range(0, x.shape[1], width):
        cols = slice(lo, min(lo + width, x.shape[1]))
        yield cols, np.ascontiguousarray((x[:, cols] if rows is None else x[rows, cols]).T)


def parse_cell(cell: str, row: int, column: str, convert=float):
    """``convert(cell)``; a cell it cannot convert, or a non-finite value,
    raises NonNumericCell.  Rows are 1-based data rows (header excluded)."""
    try:
        value = convert(cell)
        if np.isfinite(value):
            return value
    except (TypeError, ValueError):
        pass
    raise NonNumericCell(row, column)


def _rows(reader):
    """(row, cells) of each non-blank row of a ``csv.reader``: the header is
    row 0 and data rows count from 1, blank rows not counted.  A row ``csv``
    cannot split, such as one with a cell over its field limit, raises
    NonNumericCell for that row."""
    row = 0
    try:
        for cells in reader:
            if cells:
                yield row, cells
                row += 1
    except csv.Error as exc:
        raise NonNumericCell(row, f"<{exc}>") from None


def read_table(path, columns):
    """(1-based data row, {column: cell}) for each data row of a headed CSV.

    Each record maps every header column to its cell, as ``csv.DictReader``
    does: blank rows are skipped and not counted, a short row leaves its
    missing cells None (``parse_cell`` rejects them) and extra cells are
    dropped.  A header without every name in ``columns`` raises
    MissingColumn.
    """
    with open(path, newline="") as fh:
        rows = _rows(csv.reader(fh))
        _, header = next(rows, (0, []))
        if not set(columns) <= set(header):
            raise MissingColumn(f"{path}: expected the columns {','.join(columns)}")
        for r, cells in rows:
            yield r, dict(itertools.zip_longest(header, cells[: len(header)]))


def write_table(path, header, rows) -> None:
    """Write a headed CSV: float cells (numpy float64 is one) with
    ``fmt_float``, None as an empty cell and every other cell as it is."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([fmt_float(c) if isinstance(c, float) else c for c in row] for row in rows)


def load_sample(path, time_col: str = "time", status_col: str = "status") -> SurvivalSample:
    """Read a `time,status,<covariates...>` CSV into a SurvivalSample.

    The header row is mandatory.  Every column other than the time and
    status columns is treated as a numeric covariate; missing or
    non-numeric cells are rejected.  Row indices in errors are 1-based
    data rows (header and blank rows excluded).  Of several faults the
    first row with a cell that does not parse is reported, else the first
    non-finite cell, else the first time <= 0, else the first status other
    than 0 or 1.

    The data rows are parsed in one C pass (``_parsed_table``); a file that
    pass cannot take as it stands is read row by row with ``csv``, which
    alone decides what such a file holds and which error it gets.  When the
    covariates are one run of columns (as in ``time,status,x1,...``) the
    sample's covariate matrix is a view of the parsed table; any other
    layout is copied out of it.  The time and status columns must differ.
    """
    if time_col == status_col:
        raise BadValue(f"the time and status columns must differ, got {time_col!r} for both")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = _rows(reader)
        _, header = next(rows, (0, None))
        if header is None:
            raise TooFewRows("empty file")
        header = [h.strip() for h in header]
        for col in (time_col, status_col):
            if col not in header:
                raise MissingColumn(f"column {col!r} not found in header")
        t_idx = header.index(time_col)
        s_idx = header.index(status_col)
        cov_idx = [i for i in range(len(header)) if i not in (t_idx, s_idx)]
        if not cov_idx:
            raise MissingColumn("no covariate columns besides the time and status columns")
        names = [header[i] for i in cov_idx]

        table = _parsed_table(path, reader.line_num, len(header))
        if table is None:
            values = []
            for r, rec in rows:
                if len(rec) != len(header):
                    raise NonNumericCell(r, "<row length>")
                try:
                    values.append([float(c) for c in rec])
                except ValueError:
                    for cell, column in zip(rec, header):
                        parse_cell(cell, r, column)
            table = np.array(values)
            del values

    if len(table) < 2:
        raise TooFewRows(f"need at least 2 data rows, got {len(table)}")
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        raise NonNumericCell(int(bad[0, 0]) + 1, header[bad[0, 1]])
    lo, hi = cov_idx[0], cov_idx[-1] + 1
    # covariates in one run of columns stay a view of the table: no second copy
    covariates = table[:, lo:hi] if hi - lo == len(cov_idx) else table.take(cov_idx, axis=1)
    return SurvivalSample.from_times(
        table.take(t_idx, axis=1), table.take(s_idx, axis=1), covariates, names
    )


def _parsed_table(path, skip: int, width: int) -> np.ndarray | None:
    """The data rows after the first ``skip`` lines as one n x width table.

    ``np.loadtxt`` parses the cells in C with the correctly rounded
    conversion of ``float``, and every cell it accepts ``float`` accepts
    with the same value.  The file is read in universal-newline mode,
    which splits lines where ``csv`` does.  A blank line (a bare newline)
    is skipped and not counted, as the ``csv`` loop skips it.  None means
    the ``csv`` loop must read the file: another whitespace-only line or a
    quote (which ``loadtxt`` would skip or split differently), no data line
    at all, a cell ``loadtxt`` rejects, or rows that are not ``width`` cells
    wide.
    """
    plain = True

    def lines(fh):
        nonlocal plain
        for line in itertools.islice(fh, skip, None):
            if line == "\n":
                continue
            if line.isspace() or '"' in line:
                plain = False
                return
            yield line

    with open(path) as fh:
        data = lines(fh)
        first = next(data, None)
        if first is None:
            return None
        try:
            table = np.loadtxt(
                itertools.chain((first,), data),
                delimiter=",", dtype=float, comments=None, quotechar=None, ndmin=2,
            )
        except ValueError:
            return None
    return table if plain and table.shape[1] == width else None


def save_sample(sample: SurvivalSample, path) -> None:
    """Write the sample back to CSV with round-trip float precision."""
    write_table(
        path,
        ["time", "status"] + sample.names(),
        ([sample.times[i], int(sample.events[i]), *sample.covariates[i]] for i in range(sample.n)),
    )
