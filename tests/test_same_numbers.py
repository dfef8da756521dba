"""The record classes of `tools/same_numbers.py`, on hand-made records."""

import numpy as np

from countreg import Column, Dataset, load_csv

from _tools import same_numbers


def test_simulate_records_classify_by_their_column_hashes():
    tool = same_numbers()
    ds = Dataset(
        {
            "g": Column("g", "categorical", np.array([0, 1, 1]), ("a", "b")),
            "y": Column("y", "count", np.array([3, 0, 2])),
        },
        3,
    )
    a = tool.record_simulated("grouped/1", ds)
    assert a["case"] == "simulate/grouped/1" and set(a["columns"]) == {"g", "y"}
    assert tool.classify(a, tool.record_simulated("grouped/1", ds)) == ("bit-identical", "")
    moved = dict(ds.columns, y=Column("y", "count", np.array([3, 1, 2])))
    b = tool.record_simulated("grouped/1", Dataset(moved, 3))
    assert b["columns"]["g"] == a["columns"]["g"]
    assert tool.classify(a, b) == ("changed", "drawn columns ['y']")


def test_a_csv_case_classifies_by_its_bytes_and_what_reads_back(tmp_path):
    tool = same_numbers()
    schema = {"g": "categorical", "y": "count"}
    path = tmp_path / "data.csv"
    path.write_text("g,y\na,3\nb,0\n", encoding="utf-8")
    ds = load_csv(path, schema)
    a = tool.record_simulated("cli-csv", ds, path, ds)
    assert set(a["loaded"]) == {"g", "g levels", "y"}
    assert tool.classify(a, tool.record_simulated("cli-csv", ds, path, ds)) == (
        "bit-identical", ""
    )
    # the same rows in other bytes, then other levels read back
    path.write_text("g,y\na,03\nb,0\n", encoding="utf-8")
    assert tool.classify(a, tool.record_simulated("cli-csv", ds, path, ds)) == (
        "changed", "CSV bytes"
    )
    path.write_text("g,y\na,3\nc,0\n", encoding="utf-8")
    b = tool.record_simulated("cli-csv", ds, path, load_csv(path, schema))
    assert tool.classify(a, b) == ("changed", "CSV bytes; loaded columns ['g levels']")


def test_the_hand_made_csvs_serve_both_sources_and_classify_by_what_reads_back(tmp_path):
    from countreg import data

    tool = same_numbers()
    schema = {"g": "categorical", "y": "count", "x": "numeric", "h": "categorical"}
    for source, quoted in (("csv-reader", True), ("split", False)):
        path = tmp_path / f"{source}.csv"
        path.write_text(tool._hand_made_csv(quoted), encoding="utf-8")
        # only the quoted file, with its short rows, goes to `csv.reader`
        assert (data._line_stops(path.read_bytes()) is None) == quoted
        ds = load_csv(path, schema)
        assert ds.column("g").levels == ("a", "b", "c", "d", *(["x,y"] if quoted else []))
        assert len(ds.column("h").levels) > data.BLOCK_ROWS and ds.dropped_rows > 0
        a = tool.record_loaded(source, path, ds)
        assert a["case"] == f"load/{source}"
        assert set(a["loaded"]) == {"g", "g levels", "y", "x", "h", "h levels"}
        assert tool.classify(a, tool.record_loaded(source, path, ds)) == ("bit-identical", "")
        # the same bytes with one more row dropped, then other levels
        fewer = Dataset(ds.columns, ds.n_rows, ds.dropped_rows + 1)
        assert tool.classify(a, tool.record_loaded(source, path, fewer)) == (
            "changed", "dropped rows"
        )
        g = ds.column("g")
        other = dict(ds.columns, g=Column("g", g.kind, g.values, (*g.levels[:-1], "z")))
        b = tool.record_loaded(source, path, Dataset(other, ds.n_rows, ds.dropped_rows))
        assert tool.classify(a, b) == ("changed", "loaded columns ['g levels']")
