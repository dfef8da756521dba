"""Record a fixed grid of simulated datasets, fits and CLI runs, and compare
two such records.

    python3 tools/same_numbers.py record OUT.jsonl [--src DIR]
    python3 tools/same_numbers.py compare BEFORE.jsonl AFTER.jsonl

``record`` imports countreg from ``--src`` (default: this checkout's
``src/``), runs every case and writes one JSON line per case.  A simulate
case, ``simulate/<recipe>``, records a hash of each drawn column's bytes for
every recipe the grid draws (and the ``cli-csv`` benchmark config).  The
``cli-csv`` case also writes its CSV and records the hash of its bytes and
the hashes of the columns and levels that ``load_csv`` reads back from it,
so that the CSV writer and loader are checked on the benchmark's data.  A
load case, ``load/<source>``, writes a fixed hand-made CSV (`_hand_made_csv`)
and records the same of it, with its dropped-row count: ``load/csv-reader``
is read by ``csv.reader``, ``load/split`` by the loader's own split, so that
the level tables of both loader sources are checked.  A fit case
records converged, iterations, message, logL, gradient norm,
``expected_zero_fraction``, the estimates and standard errors, and hashes of
the estimate and covariance bytes.  A CLI case runs ``countreg.cli.main``
in-process, in a scratch directory with relative paths, and records its exit
code and hashes of stdout, stderr and the ``--out`` file, with the numbers of
each JSON report.

``compare`` puts each case in one class and exits 1 if any is "changed":

* bit-identical: every recorded hash and value is equal;
* within tolerance: the same converged flag, covariance availability and
  iteration count, logL within 1e-10 relative, estimates and standard errors
  within 1e-7 relative.  A CLI case keeps its exit code and stderr, and its
  stdout and ``--out`` differ only in the numbers of a JSON report, each
  within 1e-7 relative (1e-10 for logL and AIC; p-values and IRRs on the log
  scale, the scale of the estimates they come from; the gradient norm, which
  is rounding noise at convergence, is not compared).  The ridge fits in raw
  units may move their iteration count;
* changed: anything else, such as a simulate or load case with a differing
  hash (of a drawn column, its CSV or a column read back) or dropped-row
  count.

The last bits of a fit depend on the machine's numpy SIMD and libm, so the
two records must come from one machine, and none is committed.  The grid's
recipes come from `fitbench/workloads.py` where the benchmark has them.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LL_RTOL, VALUE_RTOL = 1e-10, 1e-7


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()[:16]


def _finite(values):
    return [v if math.isfinite(v) else None for v in map(float, values)]


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "fitbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# the recipes


def _grouped(cr, seed, n=20_000):
    """ZINB counts on two factors g (3 levels) and h (2)."""
    return cr.SimConfig(
        n_rows=n,
        family="zinb",
        covariates=[
            cr.CovariateSpec("g", "categorical", levels=("a", "b", "c"),
                             probabilities=(0.5, 0.3, 0.2)),
            cr.CovariateSpec("h", "categorical", levels=("p", "q"), probabilities=(0.6, 0.4)),
        ],
        true_beta={"(intercept)": 0.4, "g=b": 0.3, "g=c": -0.2, "h=q": 0.25},
        true_gamma={"(intercept)": -1.0, "g=b": 0.5, "g=c": -0.5},
        zero_covariates=["g"],
        true_tau=1.5,
        seed=seed,
    )


def _paper_shaped(cr):
    """NB counts on 21,000 rows: a 64-level district, a 5-level w and a
    numeric x, so the count design has 69 columns and no row repeats."""
    districts = tuple(f"d{i:02d}" for i in range(64))
    weights = 1.0 + np.arange(64) % 7
    beta = {"(intercept)": -0.3, "x": 0.4}
    beta |= {f"district={d}": 0.5 * math.sin(i) for i, d in enumerate(districts) if i}
    beta |= {f"w={w}": 0.15 * i for i, w in enumerate("abcde") if i}
    return cr.SimConfig(
        n_rows=21_000,
        family="nb",
        covariates=[
            cr.CovariateSpec("district", "categorical", levels=districts,
                             probabilities=tuple(weights / weights.sum())),
            cr.CovariateSpec("w", "categorical", levels=tuple("abcde"),
                             probabilities=(0.3, 0.25, 0.2, 0.15, 0.1)),
            cr.CovariateSpec("x", "numeric", low=-1.0, high=1.0),
        ],
        true_beta=beta,
        true_tau=1.2,
        seed=2024,
    )


def _ridge(cr, seed):
    """NB data whose ZINB zero part on g has nothing to find."""
    return cr.SimConfig(
        n_rows=2000,
        family="nb",
        covariates=[
            cr.CovariateSpec("g", "categorical", levels=("a", "b", "c", "d"),
                             probabilities=(0.4, 0.3, 0.2, 0.1)),
            cr.CovariateSpec("x", "numeric", low=-1.0, high=1.0),
        ],
        true_beta={"(intercept)": 0.5, "g=b": -0.4, "g=c": 0.3, "g=d": 0.6, "x": 0.5},
        true_tau=1.5,
        seed=seed,
    )


def _heavy_tail(cr, seed):
    """Counts near 2000 with tau = 0.5: rows far past the count table."""
    return cr.SimConfig(
        n_rows=500,
        family="nb",
        covariates=[cr.CovariateSpec("x", "numeric", low=-1.0, high=1.0)],
        true_beta={"(intercept)": math.log(2000.0), "x": 0.5},
        true_tau=0.5,
        seed=seed,
    )


def _cli_input(cr):
    """A small ZINB dataset with one factor and one numeric covariate."""
    return cr.SimConfig(
        n_rows=400,
        family="zinb",
        covariates=[
            cr.CovariateSpec("grp", "categorical", levels=("a", "b", "c"),
                             probabilities=(0.5, 0.3, 0.2)),
            cr.CovariateSpec("x", "numeric", low=-1.0, high=1.0),
        ],
        true_beta={"(intercept)": 0.4, "grp=b": -0.3, "grp=c": 0.5, "x": 0.4},
        true_gamma={"(intercept)": -0.9},
        true_tau=1.4,
        seed=301,
    )


def _hand_made_csv(quoted: bool) -> str:
    """A fixed CSV of 9,000 rows, three of the loader's 4096-row blocks.
    Column g holds padded levels, and from row 5000 on "", "NA", " NA " and
    blank cells too; y and x hold padded counts and numbers, "NA" and "";
    h holds 5,000 levels, some padded.  With ``quoted``, g also holds a
    quoted level with a comma and every 997th row is cut short, so that
    `csv.reader` reads the file; without, the loader splits it."""
    levels = ["a", " a", "b ", "  c  ", "d", *(['"x,y"'] if quoted else [])]
    cells = levels + ["", "NA", " NA ", "  "]
    lines = ["g,y,x,h"]
    for i in range(9000):
        g = cells[i % len(cells)] if i >= 5000 else levels[i % len(levels)]
        h = f"L{i * 7 % 5000}" + " " * (i % 11 == 0)
        row = [g, ["0", "3", " 7", "12", "NA"][i % 5], ["1.5", " -0.25", "2", ""][i % 4], h]
        lines.append(",".join(row[:2] if quoted and i % 997 == 0 else row))
    return "\n".join(lines) + "\n"


def fit_cases(cr, draw):
    """(name, spec, dataset) of every fit case, the datasets made lazily by
    ``draw(recipe, config)``."""
    w = _workloads()
    grouped = {
        "poisson": cr.ModelSpec("poisson", "y", ["g", "h"]),
        "nb": cr.ModelSpec("nb", "y", ["g", "h"]),
        "zinb": cr.ModelSpec("zinb", "y", ["g", "h"], ["g"]),
    }
    for seed in range(1, 13):
        ds = draw(f"grouped/{seed}", _grouped(cr, seed))
        for family, spec in grouped.items():
            yield f"grouped/{seed}/{family}", spec, ds
    for seed in range(300, 306):
        spec = cr.ModelSpec("zinb", "y", ["x", "g"], ["x"])
        yield f"zinb-rows/{seed}", spec, draw(f"zinb-rows/{seed}", w._zinb_config(cr, 20_000, seed))
    preset = draw("paper-like", cr.demo_preset())
    for family in ("nb", "zinb"):
        yield f"paper-like/{family}", cr.ModelSpec(family, "y"), preset
    paper = draw("paper-shaped", _paper_shaped(cr))
    for family in ("nb", "zinb"):
        yield f"paper-shaped/{family}", cr.ModelSpec(family, "y", ["district", "w", "x"]), paper
    for seed in range(81, 91):
        ds = draw(f"ridge/{seed}", _ridge(cr, seed))
        spec = cr.ModelSpec("zinb", "y", ["g", "x"], ["g"])
        yield f"ridge/{seed}/unit", spec, ds
        raw = cr.Dataset(dict(ds.columns), ds.n_rows)
        x = ds.columns["x"]
        raw.columns["x"] = cr.Column("x", x.kind, x.values * 1e4 + 5e4)
        yield f"ridge/{seed}/raw", spec, raw
    for seed in range(1, 9):
        spec = cr.ModelSpec("nb", "y", ["x"])
        yield f"heavy-tail/{seed}", spec, draw(f"heavy-tail/{seed}", _heavy_tail(cr, seed))


def cli_cases():
    """(name, argv, --out file or None) of every CLI case: 114 runs."""
    csv = ["--input", "input.csv", "--schema", "y=count,grp=categorical,x=numeric",
           "--response", "y"]
    inputs = {"csv": (csv, ["--covariates", "grp,x"]), "preset": (["--preset", "paper-like"], [])}
    for source, (io_args, model) in inputs.items():
        for fmt in ("text", "json", "csv"):
            for out in (None, "report.out"):
                tail = ["--format", fmt, *(["--out", out] if out else [])]
                tag = f"{source}/{fmt}/{bool(out)}"
                for family in ("poisson", "nb", "zinb"):
                    zero = ["--zero-covariates", "x"] if family == "zinb" and model else []
                    argv = ["fit", *io_args, "--family", family, *model, *zero, *tail]
                    yield f"fit/{family}/{tag}", argv, out
                yield f"screen/{tag}", ["screen", *io_args, *tail], out
                yield f"diagnose/{tag}", ["diagnose", *io_args, *tail], out
                argv = ["diagnose", *io_args, "--family", "nb", *model, *tail]
                yield f"diagnose-nb/{tag}", argv, out
                yield f"compare/{tag}", ["compare", *io_args, *model, *tail], out
        if source == "csv":
            for fmt in ("text", "json", "csv"):
                for family in ("poisson", "nb", "zinb"):
                    argv = ["fit", *io_args, "--family", family, *model, "--ref", "grp=b",
                            "--format", fmt]
                    yield f"fit-ref/{family}/{fmt}", argv, None
                for family in ("poisson", "zinb"):
                    argv = ["diagnose", *io_args, "--family", family, *model, "--format", fmt]
                    yield f"diagnose-{family}/csv/{fmt}", argv, None
    for seed in (1, 2, 3):
        yield f"simulate/{seed}", ["simulate", "--preset", "paper-like", "--seed", str(seed)], None
        argv = ["simulate", "--preset", "paper-like", "--seed", str(seed), "--out", "sim.csv"]
        yield f"simulate-out/{seed}", argv, "sim.csv"
        for family in ("nb", "zinb"):
            argv = ["fit", "--preset", "paper-like", "--seed", str(seed), "--family", family,
                    "--format", "json"]
            yield f"fit-seed/{seed}/{family}", argv, None
    yield "error/no-column", ["fit", *csv, "--family", "nb", "--covariates", "nosuch"], None
    yield "error/bad-ref", ["fit", *csv, "--family", "nb", "--covariates", "grp",
                            "--ref", "grp=zed"], None
    yield "error/usage", ["fit", *csv, "--family", "nb", "--zero-covariates", "x"], None


# ---------------------------------------------------------------------------
# record


def _column_shas(ds, levels=False) -> dict:
    """A hash of each column's values, and with ``levels`` of each
    categorical column's levels too."""
    shas = {name: _sha(np.ascontiguousarray(col.values).tobytes())
            for name, col in ds.columns.items()}
    if levels:
        shas |= {f"{name} levels": _sha(json.dumps(col.levels))
                 for name, col in ds.columns.items() if col.levels is not None}
    return shas


def record_simulated(recipe, ds, path=None, loaded=None) -> dict:
    """A simulate case: the drawn columns' hashes and, where ``path`` is the
    dataset's CSV, the hash of its bytes and those of the columns and levels
    of ``loaded``, the Dataset that `load_csv` reads back from it."""
    rec = {"case": f"simulate/{recipe}", "kind": "simulate", "columns": _column_shas(ds)}
    if path is not None:
        rec["csv_sha"] = _sha(Path(path).read_bytes())
        rec["loaded"] = _column_shas(loaded, levels=True)
    return rec


def record_loaded(source, path, loaded) -> dict:
    """A load case: the hash of a CSV's bytes, and those of the columns and
    levels of ``loaded``, the Dataset that `load_csv` reads back from it,
    with its dropped-row count."""
    return {"case": f"load/{source}", "kind": "load", "csv_sha": _sha(Path(path).read_bytes()),
            "loaded": _column_shas(loaded, levels=True), "dropped_rows": loaded.dropped_rows}


def record_fit(cr, name, spec, ds) -> dict:
    rec = {"case": name, "kind": "fit"}
    try:
        res = cr.fit(spec, ds)
    except cr.CountregError as exc:
        return rec | {"error": f"{type(exc).__name__}: {exc}"}
    est = res.estimates
    theta = np.concatenate([est.beta, est.gamma, [] if est.log_tau is None else [est.log_tau]])
    cov = res.covariance
    return rec | {
        "converged": res.converged,
        "iterations": res.n_iterations,
        "message": res.message,
        "log_likelihood": res.log_likelihood,
        "gradient_norm": res.gradient_norm,
        "expected_zero_fraction": res.expected_zero_fraction,
        "covariance": cov is not None,
        "estimates_sha": _sha(theta.tobytes()),
        "covariance_sha": _sha(cov.tobytes()) if cov is not None else None,
        "estimates": _finite(theta),
        "std_errors": _finite(res.std_error(label) for label in res.free_labels),
    }


NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")
KEY = re.compile(r"([A-Za-z_]+)\W*$")


def _numbers(text):
    """A report's skeleton (its text with every number taken out) and its
    numbers, each with its key: the field name in a JSON report, else the
    last word before it on its line."""
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    numbers = []
    if isinstance(doc, (dict, list)):
        def walk(node, key):
            if isinstance(node, dict):
                return {k: walk(v, k) for k, v in node.items()}
            if isinstance(node, list):
                return [walk(v, key) for v in node]
            if isinstance(node, (int, float)) and not isinstance(node, bool):
                numbers.append((key, node))
                return None
            return node

        skeleton = json.dumps(walk(doc, ""), sort_keys=True)
    else:
        for match in NUMBER.finditer(text):
            line = text[text.rfind("\n", 0, match.start()) + 1 : match.start()]
            key = KEY.search(line)
            numbers.append((key.group(1) if key else "", float(match.group())))
        skeleton = NUMBER.sub("#", text)
    return {"skeleton": _sha(skeleton), "numbers": numbers}


def record_cli(cr, name, argv, out) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cr.cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    rec = {"case": name, "kind": "cli", "exit": code, "stderr_sha": _sha(stderr.getvalue())}
    streams = {"stdout": stdout.getvalue()}
    # the --out file, and a simulated CSV's truth sidecar beside it
    files = [Path(out), Path(out).with_name(Path(out).stem + ".truth.json")] if out else []
    written = [path for path in files if path.exists()]
    if written:
        streams["out"] = "".join(path.read_text(encoding="utf-8") for path in written)
    for path in written:
        path.unlink()
    for stream, text in streams.items():
        rec[f"{stream}_sha"] = _sha(text)
        rec[f"{stream}_numbers"] = _numbers(text)
    return rec


def record(args):
    sys.path.insert(0, str(Path(args.src).resolve()))
    import countreg as cr
    import countreg.cli  # noqa: F401  (cr.cli)

    with open(args.path, "w", encoding="utf-8") as sink:
        def put(rec):
            sink.write(json.dumps(rec, sort_keys=True) + "\n")

        def draw(recipe, config, path=None, schema=None):
            ds = cr.simulate(config, path)
            read = (path, cr.load_csv(path, cr.parse_schema(schema))) if schema else ()
            put(record_simulated(recipe, ds, *read))
            return ds

        for name, spec, ds in fit_cases(cr, draw):
            put(record_fit(cr, name, spec, ds))
        w = _workloads()
        here = os.getcwd()
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                draw("cli-csv", w._csv_config(cr, 200_000, 300), "cli-csv.csv", w.SCHEMA)
                draw("cli-input", _cli_input(cr), "input.csv")
                schema = cr.parse_schema("g=categorical,y=count,x=numeric,h=categorical")
                for source, quoted in (("csv-reader", True), ("split", False)):
                    path = Path(f"{source}.csv")
                    path.write_text(_hand_made_csv(quoted), encoding="utf-8")
                    put(record_loaded(source, path, cr.load_csv(path, schema)))
                for name, argv, out in cli_cases():
                    put(record_cli(cr, name, argv, out))
            finally:
                os.chdir(here)
    print(f"recorded {sum(1 for _ in open(args.path))} cases from {cr.__file__}")


# ---------------------------------------------------------------------------
# compare


def _close(a, b, rtol) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _report_numbers_close(a, b) -> str | None:
    """Why two reports differ beyond their numbers' tolerance, or None."""
    if a is None or b is None:
        return "written at one revision only"
    if a["skeleton"] != b["skeleton"] or len(a["numbers"]) != len(b["numbers"]):
        return "the report differs beyond its numbers"
    for (key, x), (_, y) in zip(a["numbers"], b["numbers"]):
        if key == "gradient_norm":
            continue
        if key in ("p", "irr") and x > 0 and y > 0:
            x, y = math.log(x), math.log(y)
        rtol = LL_RTOL if key in ("log_likelihood", "aic") else VALUE_RTOL
        if not (x == y or _close(x, y, rtol)):
            return f"{key}: {x!r} against {y!r}"
    return None


def _moved(a: dict, b: dict) -> list[str]:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def classify(a: dict, b: dict) -> tuple[str, str]:
    """The class of one case recorded as ``a`` and then as ``b``, and why."""
    if a == b:
        return "bit-identical", ""
    if a["kind"] in ("simulate", "load"):
        drawn_a, drawn_b = a.get("columns", {}), b.get("columns", {})
        loaded_a, loaded_b = a.get("loaded", {}), b.get("loaded", {})
        whys = {
            f"drawn columns {_moved(drawn_a, drawn_b)}": drawn_a != drawn_b,
            "CSV bytes": a.get("csv_sha") != b.get("csv_sha"),
            f"loaded columns {_moved(loaded_a, loaded_b)}": loaded_a != loaded_b,
            "dropped rows": a.get("dropped_rows") != b.get("dropped_rows"),
        }
        return "changed", "; ".join(why for why, differs in whys.items() if differs)
    if a["kind"] == "cli":
        if a["exit"] != b["exit"] or a["stderr_sha"] != b["stderr_sha"]:
            return "changed", "exit code or stderr"
        for stream in ("stdout", "out"):
            if a.get(f"{stream}_sha") != b.get(f"{stream}_sha"):
                key = f"{stream}_numbers"
                why = _report_numbers_close(a.get(key), b.get(key))
                if why:
                    return "changed", f"{stream}: {why}"
        return "within tolerance", ""
    if "error" in a or "error" in b:
        return "changed", f"{a.get('error')} / {b.get('error')}"
    for key in ("converged", "covariance"):
        if a[key] != b[key]:
            return "changed", key
    if a["iterations"] != b["iterations"] and not a["case"].endswith("/raw"):
        return "changed", f"iterations {a['iterations']} -> {b['iterations']}"
    if not _close(a["log_likelihood"], b["log_likelihood"], LL_RTOL):
        return "changed", "log_likelihood"
    for key in ("estimates", "std_errors"):
        if len(a[key]) != len(b[key]) or not all(
            _close(x, y, VALUE_RTOL) for x, y in zip(a[key], b[key])
        ):
            return "changed", key
    return "within tolerance", ""


def compare(args):
    def load(path):
        with open(path, encoding="utf-8") as f:
            return {rec["case"]: rec for rec in map(json.loads, f)}

    before, after = load(args.before), load(args.after)
    counts = {"bit-identical": 0, "within tolerance": 0, "changed": 0}
    for name in sorted(before.keys() | after.keys()):
        if name not in before or name not in after:
            cls, why = "changed", "recorded at one revision only"
        else:
            cls, why = classify(before[name], after[name])
        counts[cls] += 1
        if cls != "bit-identical":
            a, b = before.get(name, {}), after.get(name, {})
            moved = f" (iterations {a['iterations']} -> {b['iterations']})" if (
                a.get("kind") == "fit" and a.get("iterations") != b.get("iterations")) else ""
            print(f"{cls}: {name}{moved}{': ' + why if why else ''}")
    print(", ".join(f"{cls} {n}" for cls, n in counts.items()))
    return 1 if counts["changed"] else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record", help="run the grid and write one JSON line per case")
    rec.add_argument("path", help="the record file to write")
    rec.add_argument("--src", default=str(ROOT / "src"), help="directory holding countreg")
    cmp = sub.add_parser("compare", help="classify each case of two records")
    cmp.add_argument("before")
    cmp.add_argument("after")
    args = parser.parse_args(argv)
    if args.mode == "record":
        record(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    raise SystemExit(main())
