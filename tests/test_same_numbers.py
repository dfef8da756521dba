"""The record classes of `tools/same_numbers.py`, on hand-made records."""

import importlib.util
from pathlib import Path

import numpy as np

from countreg import Column, Dataset, load_csv


def _tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "same_numbers.py"
    spec = importlib.util.spec_from_file_location("same_numbers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_simulate_records_classify_by_their_column_hashes():
    tool = _tool()
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
    tool = _tool()
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
