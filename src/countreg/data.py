"""Dataset container, the CSV dialect, and design construction.

Columns are typed as ``count`` (nonnegative integers), ``categorical``
(integer codes into a level vocabulary), or ``numeric``.  A design always
starts with an intercept column; each categorical contributes one dummy
column per non-reference level, in vocabulary order.  `design_terms` alone
decides this: its terms are what `linear_predictor` evaluates, for the
fitter and the simulator, and what `build_design` expands into a DesignMatrix.

`distinct_codes` finds a column's distinct values, row codes and counts
for the fitter's pattern scan and the screening tables; counts and factor
codes below the row count index their own table, with no sort.

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
holds the file's bytes, one block and the converted columns.  Each column
converts a distinct cell text once per load, through its own `_Table`: a
level's code, or a count's or number's value until the column shows that
its cells do not repeat.  `_cell_ok` alone says which count or numeric cell
is bad; it reads no cell of a column that converts and passes its range
check in a block whose text is `_plain`.
"""

import codecs
import csv
import io
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice

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


def distinct_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted distinct values of ``values``, each row's code (its
    value's position among them) and each distinct value's count: what
    ``np.unique(values, return_inverse=True, return_counts=True)`` returns.

    An integer array whose values all lie in [0, n), as counts and factor
    codes mostly do, indexes its own table: one ``np.bincount`` counts each
    value, the running count of the occupied ones ranks them, and each row
    gathers its rank, with no sort.  Any other array goes through
    ``np.unique``.
    """
    n = values.size
    if values.dtype.kind in "iu" and n and values.min() >= 0 and values.max() < n:
        index = values.astype(np.intp, copy=False)
        table = np.bincount(index)
        occupied = table > 0
        distinct = np.flatnonzero(occupied)
        codes = (np.cumsum(occupied) - 1).take(index)
        return distinct.astype(values.dtype, copy=False), codes, table[distinct]
    return np.unique(values, return_inverse=True, return_counts=True)


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
            check_covariates(names, self.response, f"the {part} part")


def check_covariates(names: list[str], response: str, where: str):
    """Reject covariate ``names`` that are not a list or tuple of strings,
    the response among them, or a name listed twice; ``where`` names the
    list in the SchemaError."""
    if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
        raise SchemaError(f"the covariates of {where} must be a list of names, not {names!r}")
    if response in names:
        raise SchemaError(f"the response '{response}' cannot be a covariate of {where}")
    repeated = next((name for name in names if names.count(name) > 1), None)
    if repeated is not None:
        raise SchemaError(f"covariate '{repeated}' is listed twice in {where}")


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
        name, eq, kind = item.partition("=")
        name, kind = name.strip(), kind.strip()
        if not eq or not name:
            raise SchemaError(f"schema entry {item!r} is not of the form name=kind")
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
    """Whether a present, stripped count or numeric cell is good, the one
    rule for a bad one: it is `_plain`, and it is an int64 count that is not
    negative or a finite number (float() accepts "nan" and "inf")."""
    try:
        if kind == "count":
            return _plain(cell) and 0 <= int(cell) <= INT64_MAX
        return _plain(cell) and math.isfinite(float(cell))
    except ValueError:
        return False


def _plain(text: str) -> bool:
    """Whether ``text`` is ASCII with no "_", as a number must be: `int` and
    `float` also read digit underscores and non-ASCII digits."""
    return text.isascii() and "_" not in text


class _Table(dict):
    """One column's raw cell texts, each with its value, for one load: what
    `int` or `float` gives a count or numeric cell, or a categorical cell's
    code, the number of its stripped text in ``levels`` as levels first
    appear.  A text converts on its first lookup; one that raises is not kept."""

    def __init__(self, kind: str):
        super().__init__()
        levels = self.levels = {}
        self.parse = _PARSERS.get(kind, lambda text: levels.setdefault(text.strip(), len(levels)))

    def __missing__(self, text: str):
        self[text] = value = self.parse(text)
        return value


def _convert(cells: list[str], kind: str, table: _Table | None):
    """A count or numeric column's values (0 in a missing cell), its missing
    mask, and whether its present cells all converted and passed the range
    check (a count not negative, a number finite).  Each cell's value comes
    from ``table``, or straight from `int` or `float` where it is None.
    `int` and `float` give a raw cell the value of the stripped cell and
    accept no missing cell, so one C-level conversion of the raw cells
    serves a column with no missing cell; only a column whose conversion
    raises is stripped and masked."""
    parse = _PARSERS[kind] if table is None else table.__getitem__
    dtype = _DTYPES[kind]
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
            return values, gaps, False
    ok = values.min(initial=0) >= 0 if kind == "count" else np.isfinite(values).all()
    return values, gaps, ok


def _utf8(path) -> bytes:
    """The bytes of the file at ``path``, less one leading UTF-8 byte order
    mark, which is not part of the first header name.  Bytes that are not
    UTF-8 raise a SchemaError naming the file line of the first bad one."""
    with open(path, "rb") as handle:
        data = handle.read().removeprefix(codecs.BOM_UTF8)
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
    its cells in row order, the number of fields per row and whether its
    text is `_plain`: one `split` of the block's text, its newlines read as
    commas, and no list per row."""
    header = data[: stops[0]].decode("utf-8").split(",")
    yield header
    for first in range(1, len(stops), BLOCK_ROWS):
        last = min(first + BLOCK_ROWS, len(stops)) - 1
        text = data[stops[first - 1] + 1 : stops[last]].decode("utf-8")
        yield text.replace("\n", ",").split(","), len(header), _plain(text)


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
            cells = list(chain.from_iterable(rows))
            yield cells, width, _plain("".join(cells))
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


def _convert_block(cells, width, plain, rows_before, schema, positions, tables):
    """One block's kept-row mask and each declared column's values over all
    its rows, read through the column's `_Table` in ``tables``.

    A categorical column's codes are its raw cells looked up in its table,
    and its rows are missing where a code is that of "" or "NA".  A count
    or numeric column's table is read by `_convert` until it holds
    `BLOCK_ROWS` texts: then the column's cells do not repeat, and the rest
    of the load converts them directly.

    The block's first bad cell, in row order and then declaration order,
    raises a RowParseError: a count or numeric column that `_convert` does
    not pass, or whose text is not `_plain` where ``plain`` does not clear
    the block, is scanned once through `_cell_ok`."""
    m = len(cells) // width
    gaps, values, bad = [np.zeros(m, bool)], {}, []
    for position, ((name, kind), pos) in enumerate(zip(schema.items(), positions)):
        col = cells[pos::width] if pos < width else [""] * m
        table = tables[name]
        if kind == "categorical":
            values[name] = codes = np.fromiter(map(table.__getitem__, col), np.int64, count=m)
            missing = [table.levels[token] for token in MISSING_TOKENS if token in table.levels]
            if missing:
                gaps.append(np.isin(codes, missing))
            continue
        values[name], gap, ok = _convert(col, kind, table)
        if table is not None and len(table) >= BLOCK_ROWS:
            tables[name] = None
        gaps.append(gap)
        if not ok or not (plain or _plain("".join(col))):  # name the first bad cell
            for row, cell in enumerate(map(str.strip, col), rows_before + 1):
                if cell not in MISSING_TOKENS and not _cell_ok(cell, kind):
                    bad.append((row, position, name, cell))
                    break
    if bad:
        row, _, name, cell = min(bad)
        raise RowParseError(row, name, cell)
    return ~np.logical_or.reduce(gaps), values


def _load(path, schema: dict[str, str], source) -> Dataset:
    """`load_csv`'s Dataset from the header and blocks that ``source``
    yields, each column read through one `_Table` for this load."""
    positions = _positions(path, next(source), schema)
    parts = {name: [np.empty(0, _DTYPES[kind])] for name, kind in schema.items()}
    # each column's table, kept for this load alone
    tables = {name: _Table(kind) for name, kind in schema.items()}
    n = n_rows = 0
    for cells, width, plain in source:
        keep, values = _convert_block(cells, width, plain, n, schema, positions, tables)
        for name, col in values.items():
            parts[name].append(col[keep])
        n += keep.size
        n_rows += int(np.count_nonzero(keep))
    columns: dict[str, Column] = {}
    for name, kind in schema.items():
        values, vocabulary = np.concatenate(parts.pop(name)), None
        if kind == "categorical":
            levels = tables[name].levels
            vocabulary = tuple(sorted(levels.keys() - MISSING_TOKENS))
            rank = {level: code for code, level in enumerate(vocabulary)}
            values = np.array([rank.get(level, -1) for level in levels], np.int64)[values]
        columns[name] = Column(name, kind, values, vocabulary)
    return Dataset(columns, n_rows, dropped_rows=n - n_rows)


def load_csv(path, schema: dict[str, str]) -> Dataset:
    """Load declared columns from a UTF-8, header-first CSV file; a leading
    byte order mark is skipped.

    Rows with a missing value ("" or "NA") in any declared column are
    dropped and counted on the Dataset.  Cells are stripped of surrounding
    whitespace; a row too short to hold a column reads "" there.  A present
    count or numeric cell that `_cell_ok` rejects (a count is a nonnegative
    int64, a numeric cell finite, either ASCII with no "_") raises a
    RowParseError naming the 1-based data row of the first such cell in row
    order, then declaration order, even in a dropped row.  Categorical levels
    are collected over every non-missing cell, those of dropped rows too.
    Text that `csv` cannot parse is an error anywhere, even after a bad cell.

    The file is read once, as bytes.  One that `csv.reader` would split on
    "," and "\n" alone (`_line_stops`) is split by `_split_source`, any
    other is read by `_csv_source`; both serve `BLOCK_ROWS` rows at a time,
    and each block is converted before the next is read, through tables of
    each column's distinct cell texts that live for this call alone
    (`_convert_block`).
    """
    for name, kind in schema.items():
        if kind not in COLUMN_KINDS:
            raise SchemaError(f"unknown column kind {kind!r}")
        if not name:
            raise SchemaError(f"schema entry {'=' + kind!r} is not of the form name=kind")
    data = _utf8(path)
    stops = _line_stops(data)
    source = _csv_source(path, data) if stops is None else _split_source(data, stops)
    try:
        return _load(path, schema, source)
    except SchemaError:
        deque(source, maxlen=0)  # text `csv` cannot parse, later in the file, comes first
        raise


@dataclass(eq=False)
class _Term:
    """One covariate's block of design columns, labelled ``labels``: the
    intercept (``values`` its ones, a stride-0 view), a factor (``values``
    its codes into ``levels`` levels, of which those in ``keep``, all but
    the reference, have a column) or a column (``values`` its float64
    values).  A term is equal only to itself, so it keys the caches of one
    evaluation and ``joint``, which holds this factor's joint codes with
    another factor, keyed by that factor, for the fit.
    """

    labels: list[str]
    values: np.ndarray
    kind: str = "column"  # "intercept", "factor" or "column"
    levels: int = 0
    keep: np.ndarray | None = None
    joint: dict = field(default_factory=dict)


def design_terms(
    ds: Dataset, covariates: list[str], reference_levels: dict | None = None, made=None
) -> list[_Term]:
    """The design of ``covariates`` on ``ds`` as terms: the intercept, then
    each covariate's term in declaration order.  A term holds ``ds``'s own
    array where it needs no conversion.

    The reference-level overrides are checked first, and each covariate as
    it is reached, so that every design raises the same error first.
    ``made`` holds terms by covariate name (the intercept's is None), so
    that two parts built with one ``made`` share a covariate's term.
    """
    reference_levels = reference_levels or {}
    made = {} if made is None else made
    for name, level in reference_levels.items():
        col = ds.column(name)
        if col.kind != "categorical":
            raise SchemaError(f"reference level given for non-categorical '{name}'")
        if level not in col.levels:
            raise SchemaError(
                f"reference level {level!r} not in vocabulary of '{name}': {col.levels}"
            )
    ones = np.broadcast_to(1.0, ds.n_rows)
    terms = [made.setdefault(None, _Term([INTERCEPT_LABEL], ones, "intercept"))]
    for name in covariates:
        col = ds.column(name)
        if name in made:
            term = made[name]
        elif col.kind != "categorical":
            term = _Term([name], np.asarray(col.values, np.float64))
        elif len(col.levels) < 2:
            raise DegenerateCovariateError(
                f"categorical '{name}' has a single level; its dummy block would be all zero"
            )
        else:
            ref = col.levels.index(reference_levels.get(name, col.levels[0]))
            keep = np.delete(np.arange(len(col.levels)), ref)
            labels = [f"{name}={col.levels[code]}" for code in keep]
            codes = np.ascontiguousarray(col.values, np.intp)
            term = _Term(labels, codes, "factor", len(col.levels), keep)
        terms.append(made.setdefault(name, term))
    return terms


def linear_predictor(terms: list[_Term], coef: np.ndarray, out, scratch) -> np.ndarray:
    """The design of ``terms`` times ``coef``, into ``out`` with ``scratch``
    for each added term: the intercept, then each factor's level values
    gathered by its codes, then each column times its coefficient."""
    starts = list(accumulate((len(term.labels) for term in terms), initial=0))
    out.fill(coef[0] if terms[0].kind == "intercept" else 0.0)
    for term, start in zip(terms, starts):
        if term.kind == "factor":
            table = np.zeros(term.levels)
            table[term.keep] = coef[start : start + term.keep.size]
            out += np.take(table, term.values, out=scratch, mode="clip")
    for term, start in zip(terms, starts):
        if term.kind == "column":
            out += np.multiply(term.values, coef[start], out=scratch)
    return out


def build_design(
    ds: Dataset, covariates: list[str], reference_levels: dict[str, str] | None = None
) -> DesignMatrix:
    """Intercept column plus covariate blocks in declaration order.

    Categorical covariates expand to one dummy column per non-reference level
    ("variable=level" labels, vocabulary order); the reference defaults to the
    first vocabulary level.  Count and numeric covariates pass through as a
    single column.  Deterministic: identical inputs give identical columns.

    The values are column-major (Fortran order): each column is contiguous.
    """
    columns, labels = [], []
    for term in design_terms(ds, covariates, reference_levels):
        if term.kind == "factor":
            columns += [term.values == code for code in term.keep]
        else:
            columns.append(term.values)
        labels += term.labels
    # the columns are the rows of one (d, n) array: its transpose is the
    # design in column-major order, with no second copy
    return DesignMatrix(np.array(columns, dtype=np.float64).T, labels)
