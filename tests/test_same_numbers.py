"""The record classes of `tools/same_numbers.py`, on hand-made records."""

import importlib.util
from pathlib import Path

import numpy as np

from countreg import Column, Dataset


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
