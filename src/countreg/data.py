"""Dataset container, the CSV dialect, and design-matrix construction.

Columns are typed as ``count`` (nonnegative integers), ``categorical``
(integer codes into a level vocabulary), or ``numeric``.  Design matrices
always start with an intercept column; each categorical contributes one
dummy column per non-reference level, in vocabulary order.

Both halves of countreg's CSV dialect live here: `load_csv` reads it, and
`csv_text` writes it, quoting each field by one rule (`csv_field`), for the
simulated datasets and the ``--format csv`` reports.  `name_reads_back` and
`level_reads_back` name the header names and levels that the reader gives
back as written.
"""

import csv
import math
from dataclasses import dataclass, field
from itertools import compress, filterfalse
from operator import itemgetter

import numpy as np

from .errors import (
    DegenerateCovariateError,
    RowParseError,
    SchemaError,
)

COLUMN_KINDS = ("count", "categorical", "numeric")
FAMILIES = ("poisson", "nb", "zinb")
MISSING_TOKENS = {"", "NA"}
INTERCEPT_LABEL = "(intercept)"


def name_reads_back(text: str) -> bool:
    """Whether `load_csv` finds a header cell written as ``text`` under that
    name: it is not empty, and it has no surrounding whitespace, which the
    reader strips from every cell."""
    return text != "" and text == text.strip()


def level_reads_back(text: str) -> bool:
    """Whether `load_csv` gives back a categorical cell written as ``text``
    as that level: it reads back as a name would, and it is not a missing
    token, whose rows the reader drops."""
    return name_reads_back(text) and text not in MISSING_TOKENS


def csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, its quotes doubled, where it holds
    a comma, a quote, a carriage return or a newline, as-is elsewhere."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(names, rows) -> str:
    """CSV text in the dialect `load_csv` reads: the header row of
    ``names``, each through `csv_field`, then one line per row of ``rows``,
    whose fields are written already.  Each line ends in a newline."""
    header = ",".join(map(csv_field, names))
    return "\n".join([header, *map(",".join, rows)]) + "\n"


@dataclass
class Column:
    name: str
    kind: str
    values: np.ndarray
    levels: tuple[str, ...] | None = None  # categorical only

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise SchemaError(f"unknown column kind {self.kind!r} for '{self.name}'")
        if self.kind == "categorical":
            if self.levels is None:
                raise SchemaError(f"categorical column '{self.name}' needs a vocabulary")
            if self.values.size and (
                self.values.min() < 0 or self.values.max() >= len(self.levels)
            ):
                raise SchemaError(f"categorical codes out of range in '{self.name}'")
        if self.kind == "count":
            if self.values.size and self.values.min() < 0:
                raise SchemaError(f"count column '{self.name}' has negative values")

    def labels(self) -> np.ndarray:
        """Categorical codes decoded back to their level labels."""
        if self.kind != "categorical":
            raise SchemaError(f"column '{self.name}' is not categorical")
        return np.asarray(self.levels, dtype=object)[self.values]


@dataclass
class Dataset:
    """Immutable-by-convention table of equal-length typed columns."""

    columns: dict[str, Column]
    n_rows: int
    dropped_rows: int = 0

    def __post_init__(self):
        for col in self.columns.values():
            if len(col.values) != self.n_rows:
                raise SchemaError(
                    f"column '{col.name}' has {len(col.values)} rows, expected {self.n_rows}"
                )

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(f"no column named '{name}'") from None

    def response_vector(self, name: str) -> np.ndarray:
        col = self.column(name)
        if col.kind != "count":
            raise SchemaError(f"response column '{name}' must be of kind 'count'")
        return col.values


@dataclass
class ModelSpec:
    """Family choice plus the covariate lists for the two model parts."""

    family: str  # "poisson" | "nb" | "zinb"
    response: str
    count_covariates: list[str] = field(default_factory=list)
    zero_covariates: list[str] = field(default_factory=list)
    reference_levels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SchemaError(f"unknown family {self.family!r}")
        if self.zero_covariates and self.family != "zinb":
            raise SchemaError("zero-part covariates are only valid for the zinb family")
        for part, names in (("count", self.count_covariates), ("zero", self.zero_covariates)):
            if self.response in names:
                raise SchemaError(
                    f"the response '{self.response}' cannot be a covariate of the {part} part"
                )
            repeated = next((name for name in names if names.count(name) > 1), None)
            if repeated is not None:
                raise SchemaError(f"covariate '{repeated}' is listed twice in the {part} part")


@dataclass
class DesignMatrix:
    values: np.ndarray  # (n_rows, d), intercept first; column-major from build_design
    labels: list[str]  # "(intercept)", "variable=level", or numeric names

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def parse_schema(text: str) -> dict[str, str]:
    """Parse 'name=kind,name=kind' declarations into a schema mapping."""
    schema = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise SchemaError(f"schema entry {item!r} is not of the form name=kind")
        name, kind = item.split("=", 1)
        name, kind = name.strip(), kind.strip()
        if kind not in COLUMN_KINDS:
            raise SchemaError(f"unknown column kind {kind!r} for '{name}'")
        if name in schema:
            raise SchemaError(f"column '{name}' is declared twice")
        schema[name] = kind
    if not schema:
        raise SchemaError("schema declares no columns")
    return schema


INT64_MAX = 2**63 - 1
_CONVERSIONS = {"count": (int, np.int64), "numeric": (float, np.float64)}


def _cell_ok(cell: str, kind: str) -> bool:
    """Whether a present cell parses under its kind: an int64 count that is
    not negative, or a finite number (float() accepts "nan" and "inf")."""
    try:
        if kind == "count":
            return 0 <= int(cell) <= INT64_MAX
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _convert(cells: list[str], kind: str) -> tuple[np.ndarray | None, int | None]:
    """The values of a count or numeric column's present cells, or the index
    of its first bad cell.

    One C-level conversion over the column and one vectorised range check;
    only a column whose conversion raises is scanned cell by cell.
    """
    parse, dtype = _CONVERSIONS[kind]
    try:
        values = np.fromiter(map(parse, cells), dtype, count=len(cells))
    except (ValueError, OverflowError):  # unparsable, or a count past int64
        return None, next(i for i, cell in enumerate(cells) if not _cell_ok(cell, kind))
    bad = values < 0 if kind == "count" else ~np.isfinite(values)
    return (None, int(np.argmax(bad))) if bad.any() else (values, None)


def _read_columns(path, schema: dict[str, str]) -> tuple[dict[str, list[str]], int]:
    """The stripped cells of each declared column in row order, and the
    number of data rows.  A row too short to hold a column reads "" there.
    Bytes that are not UTF-8, and text that `csv` cannot parse (such as a
    field past its size limit), raise a SchemaError naming the file line."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise SchemaError(f"{path}, line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            # exc.start counts from the decoded chunk; find the file offset
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as first:
                line = data.count(b"\n", 0, first.start) + 1
            raise SchemaError(f"{path}, line {line}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise SchemaError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in rows.pop(0)]
    missing_cols = [name for name in schema if name not in header]
    if missing_cols:
        raise SchemaError(f"{path}: declared columns absent from header: {missing_cols}")
    repeated = next((name for name in schema if header.count(name) > 1), None)
    if repeated is not None:
        raise SchemaError(f"{path}: header holds column '{repeated}' more than once")
    positions = [header.index(name) for name in schema]
    width = max(positions, default=-1) + 1
    if rows and min(map(len, rows)) < width:
        rows = [r if len(r) >= width else r + [""] * (width - len(r)) for r in rows]
    cells = {
        name: list(map(str.strip, map(itemgetter(pos), rows)))
        for name, pos in zip(schema, positions)
    }
    return cells, len(rows)


def load_csv(path, schema: dict[str, str]) -> Dataset:
    """Load declared columns from a UTF-8, header-first CSV file.

    Rows with a missing value ("" or "NA") in any declared column are dropped;
    the number of dropped rows is recorded on the returned Dataset.  A
    non-missing cell that does not parse under its declared kind (a count
    must be a nonnegative integer that fits in int64; a numeric cell must be
    finite) raises a RowParseError naming the 1-based data row: the first
    such cell in row order, then declaration order, even in a row that is
    dropped.  Level vocabularies for categorical columns are collected over
    every non-missing cell, so levels seen only in dropped rows still enter
    the vocabulary.

    The file is parsed once by `csv.reader`; each declared column is then
    converted as a whole.
    """
    for kind in schema.values():
        if kind not in COLUMN_KINDS:
            raise SchemaError(f"unknown column kind {kind!r}")
    cells, n = _read_columns(path, schema)
    missing = {
        name: np.fromiter(map(MISSING_TOKENS.__contains__, col), bool, count=n)
        for name, col in cells.items()
        if not MISSING_TOKENS.isdisjoint(col)
    }
    keep = ~np.logical_or.reduce(list(missing.values())) if missing else None
    n_rows = n if keep is None else int(np.count_nonzero(keep))
    columns: dict[str, Column] = {}
    bad = []  # (row, declaration position, column, cell) of each column's first bad cell
    for position, (name, kind) in enumerate(schema.items()):
        col, gaps = cells[name], missing.get(name)
        if kind == "categorical":
            levels = tuple(sorted(set(col).difference(MISSING_TOKENS)))
            index = {lvl: i for i, lvl in enumerate(levels)}
            kept = col if keep is None else compress(col, keep.tolist())
            codes = np.fromiter(map(index.__getitem__, kept), np.int64, count=n_rows)
            columns[name] = Column(name, kind, codes, levels)
            continue
        present = col if gaps is None else list(filterfalse(MISSING_TOKENS.__contains__, col))
        values, first = _convert(present, kind)
        if first is not None:
            row = first if gaps is None else int(np.flatnonzero(~gaps)[first])
            bad.append((row + 1, position, name, present[first]))
        elif keep is None:
            columns[name] = Column(name, kind, values)
        else:
            columns[name] = Column(name, kind, values[keep if gaps is None else keep[~gaps]])
    if bad:
        row, _, name, cell = min(bad)
        raise RowParseError(row, name, cell)
    return Dataset(columns, n_rows, dropped_rows=n - n_rows)


def build_design(
    ds: Dataset, covariates: list[str], reference_levels: dict[str, str] | None = None
) -> DesignMatrix:
    """Intercept column plus covariate blocks in declaration order.

    Categorical covariates expand to one dummy column per non-reference level
    ("variable=level" labels, vocabulary order); the reference defaults to the
    first vocabulary level.  Count and numeric covariates pass through as a
    single column.  Deterministic: identical inputs give identical columns.

    The values are column-major (Fortran order): each column is contiguous,
    which is the layout the fitter's per-row sums contract along.
    """
    reference_levels = reference_levels or {}
    for name, level in reference_levels.items():
        col = ds.column(name)
        if col.kind != "categorical":
            raise SchemaError(f"reference level given for non-categorical '{name}'")
        if level not in col.levels:
            raise SchemaError(
                f"reference level {level!r} not in vocabulary of '{name}': {col.levels}"
            )

    columns = [np.ones(ds.n_rows)]
    labels = [INTERCEPT_LABEL]
    for name in covariates:
        col = ds.column(name)
        if col.kind == "categorical":
            if len(col.levels) < 2:
                raise DegenerateCovariateError(
                    f"categorical '{name}' has a single level; its dummy block would be all zero"
                )
            ref = reference_levels.get(name, col.levels[0])
            ref_code = col.levels.index(ref)
            for code, level in enumerate(col.levels):
                if code == ref_code:
                    continue
                columns.append(col.values == code)
                labels.append(f"{name}={level}")
        else:
            columns.append(col.values)
            labels.append(name)
    # the columns are the rows of one (d, n) array: its transpose is the
    # design in column-major order, with no second copy
    return DesignMatrix(np.array(columns, dtype=np.float64).T, labels)
