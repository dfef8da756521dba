"""A seeded sweep of small CSV files and argument lists through `cli.main`.

Every run must end in exit 0, 1, 2 or 3 (argparse's usage exit counts) with
no other exception, an exit 1 must leave stdout empty and print one
``error:`` line, and a second run of the same case must print the same
bytes.  The cases cover each column kind, missing and quoted cells, zero
rows and an all-zero response, constant, collinear and many-level
covariates, huge counts, huge finite covariates (whose start point cannot
be evaluated), and every subcommand and format, with and without --out,
an unwritable --out included.
"""

import numpy as np

from countreg.cli import main
from countreg.data import csv_field

N_CASES = 300
LABELS = ("a", "b", "c", "d", "a,b", 'q"x', " e ")
RECIPES = (
    "numeric", "numeric", "numeric", "count", "count", "categorical", "categorical",
    "categorical", "constant", "collinear", "collinear", "huge", "many-levels", "single-level",
)


def _response(rng, n) -> list[str]:
    draw = rng.random()
    if draw < 0.1:
        return ["0"] * n
    if draw < 0.15:  # counts far past the kernels' table, up to 2**62
        return [str(int(v)) for v in rng.integers(0, 2**62, n)]
    return [str(int(v)) for v in rng.poisson(rng.uniform(0.2, 4.0), n)]


def _covariate(rng, n, recipe, numeric_columns) -> tuple[str, list[str]]:
    """A covariate's declared kind and cells."""
    if recipe == "collinear" and numeric_columns:
        source = numeric_columns[int(rng.integers(len(numeric_columns)))]
        return "numeric", [repr(2.0 * float(v) - 1.0) for v in source]
    if recipe == "constant":
        return "numeric", ["1.5"] * n
    if recipe == "huge":
        return "numeric", [repr(float(v)) for v in rng.uniform(-3e200, 3e200, n)]
    if recipe == "count":
        return "count", [str(int(v)) for v in rng.integers(0, 5, n)]
    if recipe == "categorical":
        k = int(rng.integers(2, 5))
        return "categorical", [LABELS[int(i)] for i in rng.integers(0, k, n)]
    if recipe == "many-levels":
        return "categorical", [f"L{int(i)}" for i in rng.integers(0, max(n // 3, 2), n)]
    if recipe == "single-level":
        return "categorical", ["only"] * n
    return "numeric", [repr(round(float(v), 6)) for v in rng.normal(0.0, 1.0, n)]


def _csv_case(rng, path) -> tuple[str, list[str]]:
    """Write a random CSV to ``path``; return its schema and covariate names."""
    n = int(rng.choice([0, 1, 3, 8, 20, 40, 60], p=[0.04, 0.04, 0.08, 0.2, 0.2, 0.2, 0.24]))
    columns = {"y": ("count", _response(rng, n))}
    numeric = []
    for j in range(int(rng.integers(1, 4))):
        kind, cells = _covariate(rng, n, RECIPES[int(rng.integers(len(RECIPES)))], numeric)
        if kind == "numeric":
            numeric.append(cells)
        columns[f"c{j}"] = (kind, cells)
    names = list(columns)
    rows = [[columns[name][1][i] for name in names] for i in range(n)]
    if rng.random() < 0.3:  # missing cells
        for row in rows:
            for j in range(len(row)):
                if rng.random() < 0.05:
                    row[j] = str(rng.choice(["", "NA"]))
    quote_all = rng.random() < 0.3
    field = (lambda s: '"' + s.replace('"', '""') + '"') if quote_all else csv_field
    lines = [",".join(map(field, names)), *(",".join(map(field, row)) for row in rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    schema = ",".join(f"{name}={kind}" for name, (kind, _) in columns.items())
    return schema, names[1:]


def _subset(rng, names) -> str:
    return ",".join(name for name in names if rng.random() < 0.6)


def _case(rng, tmp_path, i) -> list[str]:
    """One argument list; the CSV it reads, if any, is written first."""
    draw = rng.random()
    if draw < 0.02:
        argv = ["simulate", "--preset", "paper-like", "--seed", str(i)]
    elif draw < 0.05:
        argv = ["fit", "--preset", "paper-like", "--seed", str(i), "--family", "nb"]
    else:
        path = tmp_path / f"case{i}.csv"
        schema, covariates = _csv_case(rng, path)
        command = str(rng.choice(["fit", "fit", "screen", "diagnose", "compare"]))
        argv = [command, "--input", str(path), "--schema", schema, "--response", "y"]
        family = str(rng.choice(["poisson", "nb", "zinb"]))
        if command == "fit" or (command == "diagnose" and rng.random() < 0.6):
            argv += ["--family", family]
        else:
            family = "zinb" if command == "compare" else None
        if command != "screen" and family is not None:
            argv += ["--covariates", _subset(rng, covariates)]
            if family == "zinb" and rng.random() < 0.5:
                argv += ["--zero-covariates", _subset(rng, covariates)]
        elif command == "screen" and rng.random() < 0.5:
            argv += ["--covariates", _subset(rng, covariates)]
        if rng.random() < 0.05:  # --seed without --preset: a usage error
            argv += ["--seed", "1"]
    if argv[0] != "simulate":
        argv += ["--format", str(rng.choice(["text", "json", "csv"]))]
    out = rng.random()
    if out < 0.1:
        argv += ["--out", str(tmp_path / "missing" / f"out{i}")]
    elif out < 0.35:
        argv += ["--out", str(tmp_path / f"out{i}")]
    return argv


def _run(capsys, argv) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        raise AssertionError(f"{argv} raised {exc!r}") from exc
    out, err = capsys.readouterr()
    return code, out, err


def test_seeded_cli_sweep(tmp_path, capsys):
    codes = []
    for i in range(N_CASES):
        argv = _case(np.random.default_rng(7000 + i), tmp_path, i)
        code, out, err = _run(capsys, argv)
        assert code in (0, 1, 2, 3), (argv, code, err)
        if code == 1:
            errors = [line for line in err.splitlines() if line.startswith("error: ")]
            assert out == "" and len(errors) == 1, (argv, out, err)
            assert err.splitlines()[-1] == errors[0], (argv, err)
        assert _run(capsys, argv)[:2] == (code, out), argv
        codes.append(code)
    # the sweep reaches each outcome
    assert set(codes) == {0, 1, 2, 3}, np.bincount(codes)
