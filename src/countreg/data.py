"""Dataset container, CSV ingestion, and design-matrix construction.

Columns are typed as ``count`` (nonnegative integers), ``categorical``
(integer codes into a level vocabulary), or ``numeric``.  Design matrices
always start with an intercept column; each categorical contributes one
dummy column per non-reference level, in vocabulary order.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateCovariateError,
    RowParseError,
    SchemaError,
)

COLUMN_KINDS = ("count", "categorical", "numeric")
MISSING_TOKENS = {"", "NA"}
INTERCEPT_LABEL = "(intercept)"


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
        if self.family not in ("poisson", "nb", "zinb"):
            raise SchemaError(f"unknown family {self.family!r}")
        if self.zero_covariates and self.family != "zinb":
            raise SchemaError("zero-part covariates are only valid for the zinb family")


@dataclass
class DesignMatrix:
    values: np.ndarray  # (n_rows, d), intercept first
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
        schema[name] = kind
    if not schema:
        raise SchemaError("schema declares no columns")
    return schema


def _parse_count(cell: str, row: int, name: str) -> int:
    try:
        value = int(cell)
    except ValueError:
        raise RowParseError(row, name, cell) from None
    if value < 0:
        raise RowParseError(row, name, cell)
    return value


def _parse_numeric(cell: str, row: int, name: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise RowParseError(row, name, cell) from None
    if not math.isfinite(value):  # float() accepts "nan" and "inf"
        raise RowParseError(row, name, cell)
    return value


def load_csv(path, schema: dict[str, str]) -> Dataset:
    """Load declared columns from a UTF-8, header-first CSV file.

    Rows with a missing value ("" or "NA") in any declared column are dropped;
    the number of dropped rows is recorded on the returned Dataset.  A
    non-missing cell that does not parse under its declared kind, or a
    non-finite numeric cell, raises a RowParseError naming the 1-based data
    row.  Level vocabularies for categorical columns are collected over every
    non-missing cell, so levels seen only in dropped rows still enter the
    vocabulary.
    """
    for kind in schema.values():
        if kind not in COLUMN_KINDS:
            raise SchemaError(f"unknown column kind {kind!r}")
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        missing_cols = [name for name in schema if name not in header]
        if missing_cols:
            raise SchemaError(f"{path}: declared columns absent from header: {missing_cols}")
        positions = {name: header.index(name) for name in schema}

        raw: dict[str, list] = {name: [] for name in schema}
        level_sets: dict[str, set] = {
            name: set() for name, kind in schema.items() if kind == "categorical"
        }
        keep: list[bool] = []
        for row_idx, row in enumerate(reader, start=1):
            parsed = {}
            complete = True
            for name, kind in schema.items():
                pos = positions[name]
                cell = row[pos].strip() if pos < len(row) else ""
                if cell in MISSING_TOKENS:
                    complete = False
                    parsed[name] = None
                    continue
                if kind == "count":
                    parsed[name] = _parse_count(cell, row_idx, name)
                elif kind == "numeric":
                    parsed[name] = _parse_numeric(cell, row_idx, name)
                else:
                    parsed[name] = cell
                    level_sets[name].add(cell)
            keep.append(complete)
            if complete:
                for name in schema:
                    raw[name].append(parsed[name])

    dropped = keep.count(False)
    n_rows = keep.count(True)
    columns: dict[str, Column] = {}
    for name, kind in schema.items():
        if kind == "count":
            values = np.asarray(raw[name], dtype=np.int64)
            columns[name] = Column(name, kind, values)
        elif kind == "numeric":
            values = np.asarray(raw[name], dtype=np.float64)
            columns[name] = Column(name, kind, values)
        else:
            levels = tuple(sorted(level_sets[name]))
            index = {lvl: i for i, lvl in enumerate(levels)}
            codes = np.asarray([index[cell] for cell in raw[name]], dtype=np.int64)
            columns[name] = Column(name, kind, codes, levels)
    return Dataset(columns, n_rows, dropped_rows=dropped)


def build_design(
    ds: Dataset, covariates: list[str], reference_levels: dict[str, str] | None = None
) -> DesignMatrix:
    """Intercept column plus covariate blocks in declaration order.

    Categorical covariates expand to one dummy column per non-reference level
    ("variable=level" labels, vocabulary order); the reference defaults to the
    first vocabulary level.  Count and numeric covariates pass through as a
    single column.  Deterministic: identical inputs give identical columns.
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

    blocks = [np.ones((ds.n_rows, 1))]
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
                blocks.append((col.values == code).astype(np.float64).reshape(-1, 1))
                labels.append(f"{name}={level}")
        else:
            blocks.append(np.asarray(col.values, dtype=np.float64).reshape(-1, 1))
            labels.append(name)
    return DesignMatrix(np.hstack(blocks), labels)
