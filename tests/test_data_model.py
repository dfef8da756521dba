"""CSV ingestion, typed columns, and design-matrix construction."""

import csv
import io
import math
import random

import numpy as np
import pytest

from countreg import (
    Column,
    Dataset,
    DegenerateCovariateError,
    ModelSpec,
    RowParseError,
    SchemaError,
    build_design,
    load_csv,
    parse_schema,
)
from countreg import data
from countreg.data import MISSING_TOKENS
from countreg.report import _csv

SCHEMA = {"y": "count", "grp": "categorical", "age": "numeric"}


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseSchema:
    def test_basic(self):
        assert parse_schema("y=count,grp=categorical,age=numeric") == SCHEMA

    def test_whitespace_tolerated(self):
        assert parse_schema(" y = count , grp = categorical ") == {
            "y": "count",
            "grp": "categorical",
        }

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            parse_schema("y=integer")

    def test_missing_equals(self):
        with pytest.raises(SchemaError):
            parse_schema("y")

    def test_empty(self):
        with pytest.raises(SchemaError):
            parse_schema("")

    def test_name_declared_twice(self):
        with pytest.raises(SchemaError, match="column 'y' is declared twice"):
            parse_schema("y=count,y=numeric")


ONE_COLUMN = {"y": "count"}
# name: (file text, schema, error text or None to match the row loop)
EDGE_CASES = {
    "crlf": ("y,grp,age\r\n0,a,1.5\r\n3,b,2.0\r\n", SCHEMA, None),
    "lone-cr": ("y,grp,age\r0,a,1.5\r3,b,2.0\r", SCHEMA, None),
    "mixed-endings": ("y,grp,age\r\n0,a,1.5\n3,b,2.0\r1,a,0.25\r\n", SCHEMA, None),
    "blank-line-mid-file": ("y,grp,age\n0,a,1.5\n\n3,b,2.0\n", SCHEMA, None),
    "blank-line-at-end": ("y,grp,age\n0,a,1.5\n3,b,2.0\n\n", SCHEMA, None),
    "one-column-blank-lines": ("y\n1\n\n2\n\n", ONE_COLUMN, None),
    "no-final-newline": ("y,grp,age\n0,a,1.5\n3,b,2.0", SCHEMA, None),
    "header-only": ("y,grp,age\n", SCHEMA, None),
    "header-only-no-newline": ("y,grp,age", SCHEMA, None),
    "empty-file": ("", SCHEMA, "{path}: empty file, expected a header row"),
    "nul-byte": ("y,grp,age\n0,a\0b,1.5\n3,b,2.0\n", SCHEMA, None),
    "multibyte-level": ("y,grp,age\n0,é,1.5\n3,日本,2.0\n1,é,0.5\n", SCHEMA, None),
    "row-longer-than-header": ("y,grp,age\n0,a,1.5,extra\n3,b,2.0\n", SCHEMA, None),
    "ragged-short-row": ("y,grp,age\n0,a\n3,b,2.0\n", SCHEMA, None),
    "csv-error-after-bad-cell": (
        "y,grp,age\nx,a,1.5\n3,b," + "9" * 200_000 + "\n",
        SCHEMA,
        "{path}, line 3: field larger than field limit (131072)",
    ),
}


class TestLoadCsv:
    def test_happy_path(self, tmp_path):
        path = _write(tmp_path, "y,grp,age\n0,a,1.5\n3,b,2.0\n1,a,0.25\n")
        ds = load_csv(path, SCHEMA)
        assert ds.n_rows == 3
        assert ds.dropped_rows == 0
        np.testing.assert_array_equal(ds.column("y").values, [0, 3, 1])
        assert ds.column("grp").levels == ("a", "b")
        np.testing.assert_array_equal(ds.column("grp").values, [0, 1, 0])
        np.testing.assert_allclose(ds.column("age").values, [1.5, 2.0, 0.25])

    def test_missing_rows_dropped_and_counted(self, tmp_path):
        path = _write(tmp_path, "y,grp,age\n0,a,1.5\nNA,b,2.0\n1,,0.25\n2,b,\n4,b,3.0\n")
        ds = load_csv(path, SCHEMA)
        assert ds.n_rows == 2
        assert ds.dropped_rows == 3
        np.testing.assert_array_equal(ds.column("y").values, [0, 4])

    def test_vocabulary_includes_levels_seen_only_in_dropped_rows(self, tmp_path):
        path = _write(tmp_path, "y,grp,age\n0,a,1.5\nNA,zed,2.0\n1,b,0.25\n")
        ds = load_csv(path, SCHEMA)
        assert ds.column("grp").levels == ("a", "b", "zed")

    def test_levels_sorted_lexicographically(self, tmp_path):
        path = _write(tmp_path, "y,grp,age\n0,c,1\n1,a,1\n2,b,1\n")
        ds = load_csv(path, SCHEMA)
        assert ds.column("grp").levels == ("a", "b", "c")

    def test_bad_count_names_one_based_row(self, tmp_path):
        path = _write(tmp_path, "y,grp,age\n0,a,1.5\n2.5,b,2.0\n")
        with pytest.raises(RowParseError) as err:
            load_csv(path, SCHEMA)
        assert err.value.row == 2
        assert err.value.column == "y"

    def test_negative_count_rejected(self, tmp_path):
        path = _write(tmp_path, "y,grp,age\n-1,a,1.5\n")
        with pytest.raises(RowParseError) as err:
            load_csv(path, SCHEMA)
        assert err.value.row == 1

    def test_bad_numeric_rejected(self, tmp_path):
        path = _write(tmp_path, "y,grp,age\n0,a,oops\n")
        with pytest.raises(RowParseError) as err:
            load_csv(path, SCHEMA)
        assert err.value.column == "age"

    def test_count_past_int64_names_the_row(self, tmp_path):
        path = _write(
            tmp_path, "y,grp,age\n9223372036854775807,a,1.5\n99999999999999999999,b,2.0\n"
        )
        with pytest.raises(RowParseError) as err:
            load_csv(path, SCHEMA)
        assert (err.value.row, err.value.column, err.value.value) == (
            2, "y", "99999999999999999999"
        )

    def test_largest_int64_count_loads(self, tmp_path):
        path = _write(tmp_path, "y,grp,age\n9223372036854775807,a,1.5\n")
        ds = load_csv(path, SCHEMA)
        assert ds.column("y").values.tolist() == [2**63 - 1]

    def test_first_bad_cell_in_row_order_even_in_a_dropped_row(self, tmp_path):
        # row 2 is dropped for its missing grp, but its bad age still comes
        # before the bad count of row 3
        path = _write(tmp_path, "y,grp,age\n0,a,1.5\n1,NA,oops\nx,b,2.0\n")
        with pytest.raises(RowParseError) as err:
            load_csv(path, SCHEMA)
        assert (err.value.row, err.value.column, err.value.value) == (2, "age", "oops")

    def test_undeclared_columns_ignored(self, tmp_path):
        path = _write(tmp_path, "y,extra,grp,age\n0,junk,a,1.5\n")
        ds = load_csv(path, SCHEMA)
        assert set(ds.columns) == {"y", "grp", "age"}

    def test_declared_name_twice_in_header(self, tmp_path):
        path = _write(tmp_path, "y,grp,age,grp\n0,a,1.5,b\n")
        with pytest.raises(SchemaError, match="column 'grp' more than once"):
            load_csv(path, SCHEMA)

    def test_declared_column_absent(self, tmp_path):
        path = _write(tmp_path, "y,age\n0,1.5\n")
        with pytest.raises(SchemaError):
            load_csv(path, SCHEMA)

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(SchemaError):
            load_csv(path, SCHEMA)

    def test_short_row_treated_as_missing(self, tmp_path):
        path = _write(tmp_path, "y,grp,age\n0,a,1.5\n1,b\n")
        ds = load_csv(path, SCHEMA)
        assert ds.n_rows == 1
        assert ds.dropped_rows == 1

    @pytest.mark.parametrize("block_rows", [data.BLOCK_ROWS, 1])
    @pytest.mark.parametrize("text, schema, error", EDGE_CASES.values(), ids=EDGE_CASES)
    def test_edge_case_agrees_with_the_row_loop(
        self, tmp_path, monkeypatch, text, schema, error, block_rows
    ):
        # an error case must give the text of `csv.reader` over the whole file
        monkeypatch.setattr(data, "BLOCK_ROWS", block_rows)
        path = tmp_path / "edge.csv"
        path.write_bytes(text.encode("utf-8"))
        if error is not None:
            with pytest.raises(SchemaError) as err:
                load_csv(path, schema)
            assert str(err.value) == error.format(path=path)
            return
        want = _outcome(_row_loop_load_csv, path, schema)
        got = _outcome(load_csv, path, schema)
        if isinstance(want, tuple):
            assert got == want
        else:
            _assert_same_dataset(got, want)

    def test_deterministic(self, tmp_path):
        text = "y,grp,age\n0,b,1.5\n3,a,2.0\n1,b,0.25\n"
        ds1 = load_csv(_write(tmp_path, text, "a.csv"), SCHEMA)
        ds2 = load_csv(_write(tmp_path, text, "b.csv"), SCHEMA)
        assert ds1.column("grp").levels == ds2.column("grp").levels
        np.testing.assert_array_equal(ds1.column("grp").values, ds2.column("grp").values)


class TestDataset:
    def test_response_vector_requires_count(self, tmp_path):
        path = _write(tmp_path, "y,grp,age\n0,a,1.5\n")
        ds = load_csv(path, SCHEMA)
        with pytest.raises(SchemaError):
            ds.response_vector("age")

    def test_unknown_column(self, tmp_path):
        path = _write(tmp_path, "y,grp,age\n0,a,1.5\n")
        ds = load_csv(path, SCHEMA)
        with pytest.raises(SchemaError):
            ds.column("nope")

    def test_length_mismatch_rejected(self):
        col = Column("y", "count", np.array([1, 2, 3]))
        with pytest.raises(SchemaError):
            Dataset({"y": col}, n_rows=2)

    def test_categorical_code_out_of_range(self):
        with pytest.raises(SchemaError):
            Column("grp", "categorical", np.array([0, 2]), levels=("a", "b"))

    def test_labels_decode(self):
        col = Column("grp", "categorical", np.array([1, 0, 1]), levels=("a", "b"))
        np.testing.assert_array_equal(col.labels(), ["b", "a", "b"])


class TestModelSpec:
    def test_zero_part_requires_zinb(self):
        with pytest.raises(SchemaError):
            ModelSpec("nb", "y", zero_covariates=["grp"])
        ModelSpec("zinb", "y", zero_covariates=["grp"])  # fine

    def test_unknown_family(self):
        with pytest.raises(SchemaError):
            ModelSpec("gaussian", "y")

    def test_covariate_listed_twice_in_one_part(self):
        with pytest.raises(SchemaError, match="'grp' is listed twice in the count part"):
            ModelSpec("nb", "y", ["grp", "age", "grp"])
        with pytest.raises(SchemaError, match="'grp' is listed twice in the zero part"):
            ModelSpec("zinb", "y", zero_covariates=["grp", "grp"])
        ModelSpec("zinb", "y", ["grp"], ["grp"])  # one in each part is fine

    def test_response_is_not_a_covariate(self):
        with pytest.raises(SchemaError, match="response 'y' cannot be a covariate of the count"):
            ModelSpec("nb", "y", ["grp", "y"])
        with pytest.raises(SchemaError, match="response 'y' cannot be a covariate of the zero"):
            ModelSpec("zinb", "y", ["grp"], ["y"])


class TestBuildDesign:
    @pytest.fixture
    def ds(self, tmp_path):
        path = _write(
            tmp_path,
            "y,grp,age\n0,b,1.5\n3,a,2.0\n1,c,0.25\n2,b,1.0\n",
        )
        return load_csv(path, SCHEMA)

    def test_intercept_only(self, ds):
        design = build_design(ds, [])
        assert design.labels == ["(intercept)"]
        np.testing.assert_array_equal(design.values, np.ones((4, 1)))

    def test_categorical_expansion(self, ds):
        design = build_design(ds, ["grp"])
        assert design.labels == ["(intercept)", "grp=b", "grp=c"]
        np.testing.assert_array_equal(design.values[:, 1], [1, 0, 0, 1])
        np.testing.assert_array_equal(design.values[:, 2], [0, 0, 1, 0])

    def test_dummy_rows_sum_to_indicator(self, ds):
        # each row has at most one dummy set, and none when at the reference
        design = build_design(ds, ["grp"])
        sums = design.values[:, 1:].sum(axis=1)
        is_ref = ds.column("grp").values == 0
        np.testing.assert_array_equal(sums, (~is_ref).astype(float))

    def test_reference_override(self, ds):
        design = build_design(ds, ["grp"], reference_levels={"grp": "b"})
        assert design.labels == ["(intercept)", "grp=a", "grp=c"]
        np.testing.assert_array_equal(design.values[:, 1], [0, 1, 0, 0])

    def test_reference_must_exist(self, ds):
        with pytest.raises(SchemaError):
            build_design(ds, ["grp"], reference_levels={"grp": "zed"})

    def test_reference_on_numeric_rejected(self, ds):
        with pytest.raises(SchemaError):
            build_design(ds, ["age"], reference_levels={"age": "1.5"})

    def test_numeric_passthrough(self, ds):
        design = build_design(ds, ["age"])
        assert design.labels == ["(intercept)", "age"]
        np.testing.assert_allclose(design.values[:, 1], [1.5, 2.0, 0.25, 1.0])

    def test_mixed_order_follows_declaration(self, ds):
        design = build_design(ds, ["age", "grp"])
        assert design.labels == ["(intercept)", "age", "grp=b", "grp=c"]
        assert design.n_cols == 4

    def test_values_are_column_major(self, ds):
        for covariates in ([], ["grp"], ["age", "grp"]):
            values = build_design(ds, covariates).values
            assert values.dtype == np.float64
            assert values.flags.f_contiguous and values.flags.owndata is False
            assert values.base.flags.c_contiguous  # one (d, n) array, no second copy

    def test_single_level_categorical_rejected(self, tmp_path):
        path = _write(tmp_path, "y,grp,age\n0,a,1.5\n1,a,2.0\n")
        ds = load_csv(path, SCHEMA)
        with pytest.raises(DegenerateCovariateError):
            build_design(ds, ["grp"])

    def test_count_covariate_passthrough(self, tmp_path):
        schema = {"y": "count", "n_prior": "count"}
        path = _write(tmp_path, "y,n_prior\n0,2\n1,5\n", name="c.csv")
        ds = load_csv(path, schema)
        design = build_design(ds, ["n_prior"])
        assert design.labels == ["(intercept)", "n_prior"]
        np.testing.assert_allclose(design.values[:, 1], [2.0, 5.0])


INT64_MAX = 2**63 - 1


def _row_loop_load_csv(path, schema):
    """Reference loader: a dict of parsed cells per row, one Python call per
    cell, raising on the first bad cell in row order; a count must fit in
    int64.  `load_csv` converts column by column and must agree with it
    exactly."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = [h.strip() for h in next(reader)]
        positions = {name: header.index(name) for name in schema}
        raw = {name: [] for name in schema}
        level_sets = {name: set() for name, kind in schema.items() if kind == "categorical"}
        keep = []
        for row_idx, row in enumerate(reader, start=1):
            parsed = {}
            complete = True
            for name, kind in schema.items():
                pos = positions[name]
                cell = row[pos].strip() if pos < len(row) else ""
                if cell in MISSING_TOKENS:
                    complete = False
                    continue
                if kind == "categorical":
                    parsed[name] = cell
                    level_sets[name].add(cell)
                    continue
                try:
                    value = int(cell) if kind == "count" else float(cell)
                except ValueError:
                    raise RowParseError(row_idx, name, cell) from None
                ok = 0 <= value <= INT64_MAX if kind == "count" else math.isfinite(value)
                if not ok:
                    raise RowParseError(row_idx, name, cell)
                parsed[name] = value
            keep.append(complete)
            if complete:
                for name in schema:
                    raw[name].append(parsed[name])
    n_rows = keep.count(True)
    columns = {}
    for name, kind in schema.items():
        if kind == "count":
            columns[name] = Column(name, kind, np.asarray(raw[name], dtype=np.int64))
        elif kind == "numeric":
            columns[name] = Column(name, kind, np.asarray(raw[name], dtype=np.float64))
        else:
            levels = tuple(sorted(level_sets[name]))
            index = {lvl: i for i, lvl in enumerate(levels)}
            codes = np.asarray([index[cell] for cell in raw[name]], dtype=np.int64)
            columns[name] = Column(name, kind, codes, levels)
    return Dataset(columns, n_rows, dropped_rows=keep.count(False))


# raw CSV fields, some quoted with a comma inside
GOOD_CELLS = {
    "count": ["0", "3", "12", " 7 ", "+4", "1_000", "007", '"5"', "9223372036854775807"],
    "numeric": ["1.5", " -0.25 ", "1e3", "+4", "1_000.5", "-0", ".5", '"2.75"', "7"],
    "categorical": ["a", "b", " c ", '"x,y"', '" q "', "B", "1"],
}
BAD_CELLS = {
    "count": ["2.5", "-1", "1e3", "x", "99999999999999999999", "1__0", '"3,4"', "nan"],
    "numeric": ["oops", "nan", "inf", "-inf", "1e400", '"1,5"', "1.2.3", "0x1p3"],
}
MISSING_CELLS = ["", "NA", " NA ", "  ", '""']
UNDECLARED_CELLS = ["junk", '"u,v,w"', "", "NA", "-1", "oops"]
KINDS = {
    "y": "count", "k": "count", "g": "categorical", "h": "categorical", "x": "numeric",
    "z": "numeric",
}


def _random_csv(rng, path, quoted=True):
    """Write a random CSV; return a schema over some of its columns and the
    planted row, if any: ("two bad", row) holds bad cells in two declared
    columns, ("bad in dropped", row) a bad cell and a missing one.

    Each file draws its own rates of missing, bad and short cells.  With
    ``quoted`` false no cell is quoted, so a file without short rows is one
    that `load_csv` splits without `csv.reader`.
    """

    def pick(cells):
        return str(rng.choice(cells if quoted else [c for c in cells if '"' not in c]))

    declared = list(rng.permutation(list(KINDS))[: rng.integers(1, len(KINDS) + 1)])
    header = declared + [f"extra{i}" for i in range(rng.integers(0, 3))]
    header = [str(h) for h in rng.permutation(header)]
    schema = {str(name): KINDS[name] for name in rng.permutation(declared)}
    p_missing = rng.choice([0.0, 0.05, 0.2])
    p_bad = rng.choice([0.0, 0.0, 0.0, 0.005, 0.03])
    # a short row sends a quote-free file to `csv.reader`: half of those
    # files may hold one, so that both of the loader's sources serve many
    p_short = rng.choice([0.0, 0.0, 0.05] if quoted else [0.0, 0.05])
    n = int(rng.integers(0, 60))
    checkable = [h for h in header if KINDS.get(h) in BAD_CELLS]

    def cell(name, bad=False, missing=False):
        if missing:
            return pick(MISSING_CELLS)
        if name not in KINDS:
            return pick(UNDECLARED_CELLS)
        kind = KINDS[name]
        if bad or (kind in BAD_CELLS and rng.random() < p_bad):
            return pick(BAD_CELLS[kind])
        if rng.random() < p_missing:
            return pick(MISSING_CELLS)
        return pick(GOOD_CELLS[kind])

    planted, bad, dropper = None, set(), None
    if n and checkable and rng.random() < 0.5:
        at = int(rng.integers(0, n))
        if len(checkable) >= 2 and rng.random() < 0.5:
            bad = set(rng.choice(checkable, size=2, replace=False).tolist())
            planted = ("two bad", at + 1)
        else:
            bad = {str(rng.choice(checkable))}
            others = [h for h in header if h in KINDS and h not in bad]
            if others:
                dropper = str(rng.choice(others))
                planted = ("bad in dropped", at + 1)
    lines = [",".join(f" {h} " if rng.random() < 0.2 else h for h in header)]
    for i in range(n):
        if planted and i + 1 == planted[1]:
            fields = [cell(h, bad=h in bad, missing=h == dropper) for h in header]
        else:
            fields = [cell(h) for h in header]
            if rng.random() < p_short:
                fields = fields[: rng.integers(0, len(fields))]
        lines.append(",".join(fields))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return schema, planted


def _outcome(loader, path, schema):
    try:
        return loader(path, schema)
    except RowParseError as exc:
        return (exc.row, exc.column, exc.value)


def _assert_same_dataset(got, want):
    assert (got.n_rows, got.dropped_rows) == (want.n_rows, want.dropped_rows)
    assert list(got.columns) == list(want.columns)
    for name, col in want.columns.items():
        other = got.columns[name]
        assert (other.kind, other.levels) == (col.kind, col.levels)
        assert other.values.dtype == col.values.dtype
        assert other.values.shape == col.values.shape
        assert other.values.tobytes() == col.values.tobytes()


class TestLoaderOracle:
    """The block-wise loader against the row loop on seeded random CSVs:
    the same Dataset bit for bit, or the same RowParseError."""

    @pytest.mark.parametrize("block_rows", [data.BLOCK_ROWS, 3])
    @pytest.mark.parametrize("quoted", [True, False], ids=["quoted", "quote-free"])
    def test_random_files_agree_with_the_row_loop(
        self, tmp_path, monkeypatch, quoted, block_rows
    ):
        monkeypatch.setattr(data, "BLOCK_ROWS", block_rows)
        served = {"_split_source": 0, "_csv_source": 0}
        for name, source in [(name, getattr(data, name)) for name in served]:
            def counted(*args, name=name, source=source):
                served[name] += 1
                return source(*args)
            monkeypatch.setattr(data, name, counted)
        rng = np.random.default_rng(20241)
        path = tmp_path / "random.csv"
        seen = dict.fromkeys(
            ["loaded", "with dropped rows", "error", "two bad", "bad in dropped"], 0
        )
        for trial in range(400):
            schema, planted = _random_csv(rng, path, quoted)
            want = _outcome(_row_loop_load_csv, path, schema)
            got = _outcome(load_csv, path, schema)
            if isinstance(want, tuple):
                assert got == want, f"trial {trial}"
                seen["error"] += 1
                if planted and planted[1] == want[0]:
                    seen[planted[0]] += 1
            else:
                assert not isinstance(got, tuple), f"trial {trial}: {got}"
                _assert_same_dataset(got, want)
                seen["loaded"] += 1
                seen["with dropped rows"] += want.dropped_rows > 0
        # each case the oracle is meant to cover came up, and each source
        # served a share of the files (quoted cells leave few to the split)
        assert min(seen.values()) >= 10, seen
        assert served["_csv_source"] >= 100 and (quoted or served["_split_source"] >= 100), served


# characters that a CSV writer must quote (comma, quote, CR, LF) or must not
# (space, tab, "=", letters, digits, a non-ASCII letter)
ALPHABET = 'ab ,"\r\n\t=x1é'


def _writer_reference(header, rows):
    """CSV through `csv.writer`, one row at a time.  The writer quotes a
    field holding a character of its line terminator, so that terminator is
    "\\r\\n", and each row's "\\r\\n" then becomes "\\n"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    lines = []
    for row in [header.split(","), *rows]:
        buf.seek(0)
        buf.truncate()
        writer.writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


def _random_value(rng):
    draw = rng.randrange(5)
    if draw == 0:
        return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(6)))  # "" too
    if draw == 1:
        return rng.choice([math.nan, math.inf, -math.inf, -0.0, 0.0])
    if draw == 2:
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.choice([-30, 0, 30])
    if draw == 3:
        return rng.randrange(-(10**12), 10**12 + 1)
    return rng.choice(["", "***", "count", "zero", "g=a,b"])


class TestCsvWriter:
    """`report._csv`, through the one field rule in `data`, against
    `csv.writer` on seeded random rows."""

    def test_random_rows_match_csv_writer(self):
        rng = random.Random(16)
        names = ALPHABET.replace(",", "")  # a report header is split on its commas
        for trial in range(5000):
            # reports have 2 to 8 columns; on one column csv.writer quotes a
            # lone empty field, which `load_csv` reads as a blank line does
            width = rng.randrange(2, 9)
            header = ",".join(
                "".join(rng.choice(names) for _ in range(rng.randrange(1, 5)))
                for _ in range(width)
            )
            rows = [
                [_random_value(rng) for _ in range(width)] for _ in range(rng.randrange(4))
            ]
            assert _csv(header, rows) == _writer_reference(header, rows), f"trial {trial}"
