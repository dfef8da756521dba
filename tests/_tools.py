"""The repository's tools as modules, for the tests."""

import importlib.util
from pathlib import Path


def same_numbers():
    """`tools/same_numbers.py`, for its recipes and record classes."""
    path = Path(__file__).resolve().parent.parent / "tools" / "same_numbers.py"
    spec = importlib.util.spec_from_file_location("same_numbers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
