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

`load_csv` reads the file once as bytes and takes its cells from one of two
sources.  A file that `csv.reader` would split on "," and "\n" alone (no
quote, NUL or carriage return, every line as wide as the header, none past
the csv field size limit) goes to `_split_source`, which splits the text of
`BLOCK_ROWS` lines at a time in one call and makes no list per row; every
other file goes to `_csv_source`, one `csv.reader` read `BLOCK_ROWS` rows at
a time.  Each block is converted before the next is read, so the loader
holds the file's bytes, one block and the converted columns.
"""

import csv
import io
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, count, islice

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
_PARSERS = {"count": int, "numeric": float}
_DTYPES = {"count": np.int64, "numeric": np.float64, "categorical": np.int64}
BLOCK_ROWS = 4096  # data rows read and converted at a time
# every byte but "," and "\n": deleting them leaves the file's line skeleton
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n")))


def _cell_ok(cell: str, kind: str) -> bool:
    """Whether a present cell parses under its kind: an int64 count that is
    not negative, or a finite number (float() accepts "nan" and "inf")."""
    try:
        if kind == "count":
            return 0 <= int(cell) <= INT64_MAX
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _convert(cells: list[str], kind: str):
    """A count or numeric column's values (0 in a missing cell), its missing
    mask, and the index of its first bad present cell or None.

    Where `int` or `float` accepts a raw cell it gives the value of the
    stripped cell (surrounding whitespace is ignored), and it accepts no
    missing cell, so one C-level conversion of the raw cells serves a column
    with no missing cell.  Only a column whose conversion raises is stripped
    and masked, and only one whose present cells still do not convert is
    scanned cell by cell.
    """
    parse, dtype = _PARSERS[kind], _DTYPES[kind]
    gaps = np.zeros(len(cells), bool)
    try:
        values = np.fromiter(map(parse, cells), dtype, count=len(cells))
    except (ValueError, OverflowError):  # a missing or unparsable cell, or a count past int64
        cells = list(map(str.strip, cells))
        gaps = np.fromiter(map(MISSING_TOKENS.__contains__, cells), bool, count=len(cells))
        rows = np.flatnonzero(~gaps)
        present = [cells[i] for i in rows.tolist()]
        values = np.zeros(len(cells), dtype)
        try:
            values[rows] = np.fromiter(map(parse, present), dtype, count=len(present))
        except (ValueError, OverflowError):
            first = next(i for i, cell in enumerate(present) if not _cell_ok(cell, kind))
            return values, gaps, int(rows[first])
    bad = values < 0 if kind == "count" else ~np.isfinite(values)
    return values, gaps, (int(np.argmax(bad)) if bad.any() else None)


def _utf8(path) -> bytes:
    """The bytes of the file at ``path``.  Bytes that are not UTF-8 raise a
    SchemaError naming the file line of the first bad one."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise SchemaError(f"{path}, line {line}: not UTF-8 text ({exc.reason})") from None
    return data


def _line_stops(data: bytes) -> np.ndarray | None:
    """The end offset of each line of ``data``, header first, if
    `csv.reader` would split it on "," and "\n" alone; None otherwise.

    That holds for a file with no quote, no NUL and no carriage return,
    whose header line is not blank, whose every line holds as many commas
    as the header, and whose lines are none longer than
    `csv.field_size_limit()`, so that no field is.
    """
    if not data or any(c in data for c in (b'"', b"\0", b"\r")):
        return None
    stops = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    skeleton = data.translate(None, _NOT_SEPARATORS)
    if not data.endswith(b"\n"):
        stops = np.append(stops, len(data))
        skeleton += b"\n"
    lengths = np.diff(stops, prepend=-1) - 1
    if lengths[0] == 0 or lengths.max() > csv.field_size_limit():
        return None
    header = skeleton[: skeleton.index(b"\n") + 1]
    return stops if skeleton == header * len(stops) else None


def _split_source(data: bytes, stops: np.ndarray):
    """The header's cells, then for each block of `BLOCK_ROWS` data lines
    its cells in row order with the number of fields per row: one `split`
    of the block's text, its newlines read as commas, and no list per row."""
    header = data[: stops[0]].decode("utf-8").split(",")
    yield header
    for first in range(1, len(stops), BLOCK_ROWS):
        last = min(first + BLOCK_ROWS, len(stops)) - 1
        text = data[stops[first - 1] + 1 : stops[last]].decode("utf-8")
        yield text.replace("\n", ",").split(","), len(header)


def _csv_source(path, data: bytes):
    """What `_split_source` yields, for any file: `csv.reader`'s rows, read
    `BLOCK_ROWS` at a time and padded with "" to the block's longest row.
    Text that `csv` cannot parse (such as a field past its size limit)
    raises a SchemaError naming the file line."""
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    try:
        yield next(reader, None)
        while rows := list(islice(reader, BLOCK_ROWS)):
            width = max(1, *map(len, rows))
            if min(map(len, rows)) < width:
                rows = [row + [""] * (width - len(row)) for row in rows]
            yield list(chain.from_iterable(rows)), width
    except csv.Error as exc:
        raise SchemaError(f"{path}, line {reader.line_num}: {exc}") from None


def _positions(path, header: list[str] | None, schema: dict[str, str]) -> list[int]:
    """Each declared column's index in the header row."""
    if header is None:
        raise SchemaError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in header]
    missing_cols = [name for name in schema if name not in header]
    if missing_cols:
        raise SchemaError(f"{path}: declared columns absent from header: {missing_cols}")
    repeated = next((name for name in schema if header.count(name) > 1), None)
    if repeated is not None:
        raise SchemaError(f"{path}: header holds column '{repeated}' more than once")
    return [header.index(name) for name in schema]


def _convert_block(cells, width, rows_before, schema, positions, levels):
    """One block's kept-row mask and each declared column's values over all
    its rows.  A categorical column's values are codes from ``levels`` (its
    dict of level to code), which numbers each level in the block where it
    first appears.  The block's first bad cell, in row order and then
    declaration order, raises a RowParseError."""
    m = len(cells) // width
    gaps, values, bad = [np.zeros(m, bool)], {}, []
    for position, ((name, kind), pos) in enumerate(zip(schema.items(), positions)):
        col = cells[pos::width] if pos < width else [""] * m
        if kind == "categorical":
            col = list(map(str.strip, col))
            seen = levels[name]
            seen.update(zip(set(col) - seen.keys(), count(len(seen))))
            values[name] = np.fromiter(map(seen.__getitem__, col), np.int64, count=m)
            gaps.append(np.isin(values[name], [seen.get(token, -1) for token in MISSING_TOKENS]))
            continue
        values[name], gap, first = _convert(col, kind)
        gaps.append(gap)
        if first is not None:
            bad.append((rows_before + first + 1, position, name, col[first].strip()))
    if bad:
        row, _, name, cell = min(bad)
        raise RowParseError(row, name, cell)
    return ~np.logical_or.reduce(gaps), values


def _load(path, schema: dict[str, str], source) -> Dataset:
    """`load_csv`'s Dataset from the header and blocks that ``source``
    yields."""
    positions = _positions(path, next(source), schema)
    parts = {name: [np.empty(0, _DTYPES[kind])] for name, kind in schema.items()}
    levels = {name: {} for name, kind in schema.items() if kind == "categorical"}
    n = n_rows = 0
    for cells, width in source:
        keep, values = _convert_block(cells, width, n, schema, positions, levels)
        for name, col in values.items():
            parts[name].append(col[keep])
        n += keep.size
        n_rows += int(np.count_nonzero(keep))
    columns: dict[str, Column] = {}
    for name, kind in schema.items():
        values, vocabulary = np.concatenate(parts.pop(name)), None
        if kind == "categorical":
            vocabulary = tuple(sorted(levels[name].keys() - MISSING_TOKENS))
            rank = {level: code for code, level in enumerate(vocabulary)}
            values = np.array([rank.get(level, -1) for level in levels[name]], np.int64)[values]
        columns[name] = Column(name, kind, values, vocabulary)
    return Dataset(columns, n_rows, dropped_rows=n - n_rows)


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
    the vocabulary.  Cells are stripped of surrounding whitespace, and a row
    too short to hold a column reads "" there.  Text that `csv` cannot parse
    is an error wherever it stands, even after a bad cell.

    The file is read once, as bytes.  One that `csv.reader` would split on
    "," and "\n" alone (`_line_stops`) is split by `_split_source`, any
    other is read by `_csv_source`; both serve `BLOCK_ROWS` rows at a time,
    and each block is converted before the next is read.
    """
    for kind in schema.values():
        if kind not in COLUMN_KINDS:
            raise SchemaError(f"unknown column kind {kind!r}")
    data = _utf8(path)
    stops = _line_stops(data)
    source = _csv_source(path, data) if stops is None else _split_source(data, stops)
    try:
        return _load(path, schema, source)
    except SchemaError:
        deque(source, maxlen=0)  # text `csv` cannot parse, later in the file, comes first
        raise


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
