"""Command-line interface: exit codes, stream separation, output formats."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from countreg import CovariateSpec, SimConfig, simulate
from countreg.cli import EXIT_NO_CONVERGENCE, EXIT_OK, main


def run_cli(*argv, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "countreg", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    """Small ZINB dataset on disk: one categorical, one numeric covariate."""
    path = tmp_path_factory.mktemp("cli") / "counts.csv"
    config = SimConfig(
        n_rows=400,
        family="zinb",
        covariates=[
            CovariateSpec(
                "grp", "categorical", levels=("a", "b", "c"), probabilities=(0.5, 0.3, 0.2)
            ),
            CovariateSpec("x", "numeric", low=-1.0, high=1.0),
        ],
        true_beta={"(intercept)": 0.4, "grp=b": -0.3, "grp=c": 0.5, "x": 0.4},
        true_gamma={"(intercept)": -0.9},
        true_tau=1.4,
        seed=301,
    )
    simulate(config, out_path=path)
    return path


SCHEMA = "y=count,grp=categorical,x=numeric"


def _fit_under_blas_threads(threads, *argv):
    """`countreg fit ... --format json` stdout with OPENBLAS_NUM_THREADS set to
    ``threads``, or unset for None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads:
        env["OPENBLAS_NUM_THREADS"] = threads
    res = run_cli("fit", "--format", "json", *argv, env=env)
    assert res.returncode == EXIT_OK, res.stderr
    return res.stdout


class TestFit:
    def test_text_output(self, data_csv):
        res = run_cli(
            "fit",
            "--input", str(data_csv),
            "--schema", SCHEMA,
            "--response", "y",
            "--covariates", "grp,x",
            "--family", "nb",
        )
        assert res.returncode == EXIT_OK
        assert "family: nb" in res.stdout
        assert "IRR (count part)" in res.stdout
        assert "grp=b" in res.stdout
        assert "tau:" in res.stdout
        assert res.stderr.startswith("config: fit ")

    def test_json_output_contract_fields(self, data_csv):
        res = run_cli(
            "fit",
            "--input", str(data_csv),
            "--schema", SCHEMA,
            "--response", "y",
            "--covariates", "grp,x",
            "--zero-covariates", "x",
            "--family", "zinb",
            "--format", "json",
        )
        assert res.returncode == EXIT_OK
        payload = json.loads(res.stdout)
        assert set(payload) == {
            "family",
            "n_obs",
            "dropped_rows",
            "coefficients",
            "tau",
            "log_likelihood",
            "aic",
            "converged",
            "iterations",
            "gradient_norm",
        }
        assert payload["family"] == "zinb"
        assert payload["n_obs"] == 400
        assert payload["dropped_rows"] == 0
        assert payload["converged"] is True
        labels = [(c["part"], c["label"]) for c in payload["coefficients"]]
        assert ("count", "(intercept)") in labels
        assert ("zero", "(intercept)") in labels
        assert ("zero", "x") in labels
        cell = payload["coefficients"][0]
        assert set(cell) == {"label", "part", "estimate", "irr", "se", "z", "p", "stars"}

    def test_zinb_defaults_to_intercept_only_zero_part(self, data_csv):
        res = run_cli(
            "fit",
            "--input", str(data_csv),
            "--schema", SCHEMA,
            "--response", "y",
            "--covariates", "x",
            "--family", "zinb",
            "--format", "json",
        )
        assert res.returncode == EXIT_OK
        payload = json.loads(res.stdout)
        zero_labels = [c["label"] for c in payload["coefficients"] if c["part"] == "zero"]
        assert zero_labels == ["(intercept)"]

    def test_out_file_holds_json_regardless_of_format(self, data_csv, tmp_path):
        out = tmp_path / "fit.json"
        res = run_cli(
            "fit",
            "--input", str(data_csv),
            "--schema", SCHEMA,
            "--response", "y",
            "--covariates", "x",
            "--family", "nb",
            "--out", str(out),
        )
        assert res.returncode == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["family"] == "nb"
        # every rounded text value must trace back to a full-precision field
        assert "IRR (count part)" in res.stdout

    def test_byte_identical_json_across_runs(self, data_csv, tmp_path):
        args = (
            "fit",
            "--input", str(data_csv),
            "--schema", SCHEMA,
            "--response", "y",
            "--covariates", "grp,x",
            "--family", "zinb",
            "--format", "json",
        )
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == EXIT_OK
        assert a.stdout == b.stdout
        assert a.stdout.endswith("\n")

    def test_ref_override_relabels_dummies(self, data_csv):
        res = run_cli(
            "fit",
            "--input", str(data_csv),
            "--schema", SCHEMA,
            "--response", "y",
            "--covariates", "grp",
            "--family", "poisson",
            "--ref", "grp=b",
            "--format", "json",
        )
        assert res.returncode == EXIT_OK
        payload = json.loads(res.stdout)
        labels = {c["label"] for c in payload["coefficients"] if c["part"] == "count"}
        assert labels == {"(intercept)", "grp=a", "grp=c"}

    def test_csv_format(self, data_csv):
        res = run_cli(
            "fit",
            "--input", str(data_csv),
            "--schema", SCHEMA,
            "--response", "y",
            "--covariates", "x",
            "--family", "poisson",
            "--format", "csv",
        )
        assert res.returncode == EXIT_OK
        lines = res.stdout.splitlines()
        assert lines[0] == "label,part,estimate,irr,se,z,p,stars"
        assert lines[1].startswith("x,count,")

    @staticmethod
    def _csv_report_rows(tmp_path, level):
        """`fit --format csv` rows, parsed back, for a categorical whose
        levels are ``level`` (written quoted), "b" and the reference "c"."""
        rng = np.random.default_rng(7)
        levels = rng.choice([f'"{level}"', "b", "c"], 300)
        y = rng.poisson(np.where(levels == "b", 2.0, 1.2))
        path = tmp_path / "quoted.csv"
        path.write_text("y,g\n" + "".join(f"{v},{g}\n" for v, g in zip(y, levels)))
        # bytes, since text mode would read a "\r" in stdout as a newline
        res = subprocess.run(
            [sys.executable, "-m", "countreg", "fit",
             "--input", str(path),
             "--schema", "y=count,g=categorical",
             "--response", "y",
             "--covariates", "g",
             "--ref", "g=c",
             "--family", "poisson",
             "--format", "csv"],
            capture_output=True,
        )
        assert res.returncode == EXIT_OK, res.stderr
        return list(csv.reader(io.StringIO(res.stdout.decode(), newline="")))

    def test_csv_quotes_a_label_holding_a_comma(self, tmp_path):
        # the level "a,b" is quoted in the input and must be in the report
        rows = self._csv_report_rows(tmp_path, "a,b")
        assert [len(row) for row in rows] == [8, 8, 8]
        assert [row[0] for row in rows[1:]] == ["g=a,b", "g=b"]

    def test_csv_quotes_a_label_holding_a_carriage_return(self, tmp_path):
        # a bare "\r" would end the row for a reader
        rows = self._csv_report_rows(tmp_path, "a\rb")
        assert [len(row) for row in rows] == [8, 8, 8]
        assert [row[0] for row in rows[1:]] == ["g=a\rb", "g=b"]

    def test_irr_past_float_range(self, tmp_path):
        # exp(beta) of a slope near 5000 on a covariate in small units
        # overflows: the IRR prints as inf in text and as null in JSON
        rng = np.random.default_rng(97)
        x = rng.uniform(0.0, 1e-4, 2000)
        y = rng.poisson(np.exp(0.2 + 5000.0 * x))
        path = tmp_path / "small_units.csv"
        path.write_text("y,x\n" + "".join(f"{a},{b!r}\n" for a, b in zip(y, x.tolist())))
        argv = ("fit", "--input", str(path), "--schema", "y=count,x=numeric",
                "--response", "y", "--covariates", "x", "--family", "poisson")
        text = run_cli(*argv)
        assert text.returncode == EXIT_OK, text.stderr
        label, cell = text.stdout.splitlines()[-1].split()
        assert label == "x" and cell.startswith("inf***(")
        payload = run_cli(*argv, "--format", "json")
        assert payload.returncode == EXIT_OK, payload.stderr
        row = json.loads(payload.stdout)["coefficients"][1]
        assert row["label"] == "x" and row["irr"] is None and row["se"] > 0

    def test_collinear_covariates_have_null_standard_errors(self, tmp_path, capsys):
        # x2 repeats x, so the covariance is unavailable: the SEs, z and p
        # are NaN, which JSON writes as null and CSV as nan
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, 300)
        y = rng.poisson(np.exp(0.3 + 0.5 * x))
        path = tmp_path / "collinear.csv"
        path.write_text("y,x,x2\n" + "".join(f"{a},{b!r},{b!r}\n" for a, b in zip(y, x.tolist())))
        argv = ["fit", "--input", str(path), "--schema", "y=count,x=numeric,x2=numeric",
                "--response", "y", "--covariates", "x,x2", "--family", "poisson"]
        assert main([*argv, "--format", "json"]) == EXIT_OK
        coefficients = json.loads(capsys.readouterr().out)["coefficients"]
        assert [row["label"] for row in coefficients] == ["(intercept)", "x", "x2"]
        for row in coefficients:
            assert row["se"] is None and row["z"] is None and row["p"] is None
            assert math.isfinite(row["estimate"]) and math.isfinite(row["irr"])
        assert main([*argv, "--format", "csv"]) == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [row[0] for row in rows[1:]] == ["x", "x2"]
        assert all(row[4:7] == ["nan", "nan", "nan"] for row in rows[1:])

    def test_preset_fit(self):
        res = run_cli(
            "fit", "--preset", "paper-like", "--seed", "7", "--family", "nb",
            "--format", "json",
        )
        assert res.returncode == EXIT_OK
        payload = json.loads(res.stdout)
        assert payload["n_obs"] == 100_000
        assert payload["converged"] is True
        assert payload["tau"] > 0

    def test_preset_nb_fit_does_not_depend_on_blas_threads(self, tmp_path):
        def fit_under(threads, *argv):
            return _fit_under_blas_threads(threads, "--family", "nb", *argv)

        # a likelihood that cancels at large tau let a single-threaded fit
        # stop there, far from the MLE
        logls = [
            json.loads(fit_under(threads, "--preset", "paper-like"))["log_likelihood"]
            for threads in ("1", None)
        ]
        assert logls[0] == pytest.approx(logls[1], rel=1e-10)

        # every row distinct, so every sum runs over all 2e5 rows
        path = tmp_path / "distinct.csv"
        config = SimConfig(
            n_rows=200_000,
            family="nb",
            covariates=[
                CovariateSpec(
                    "g", "categorical", levels=("a", "b", "c"), probabilities=(0.5, 0.3, 0.2)
                ),
                CovariateSpec("h", "categorical", levels=("p", "q"), probabilities=(0.6, 0.4)),
                CovariateSpec("x", "numeric", low=-1.0, high=1.0),
            ],
            true_beta={"(intercept)": 0.4, "g=b": 0.3, "g=c": -0.2, "h=q": 0.25, "x": -0.5},
            true_tau=1.5,
            seed=702,
        )
        simulate(config, out_path=path)
        argv = (
            "--input", str(path),
            "--schema", "y=count,g=categorical,h=categorical,x=numeric",
            "--response", "y",
            "--covariates", "g,h,x",
        )
        assert fit_under("1", *argv) == fit_under("2", *argv)

    def test_zinb_fit_on_distinct_rows_does_not_depend_on_blas_threads(self, tmp_path):
        # 2e4 distinct rows: the gradient and Hessian contract over every row
        path = tmp_path / "zinb.csv"
        config = SimConfig(
            n_rows=20_000,
            family="zinb",
            covariates=[
                CovariateSpec("x", "numeric", low=-1.0, high=1.0),
                CovariateSpec(
                    "g", "categorical", levels=("a", "b", "c"), probabilities=(0.5, 0.3, 0.2)
                ),
            ],
            true_beta={"(intercept)": 0.5, "x": -0.4, "g=b": 0.3, "g=c": -0.2},
            true_gamma={"(intercept)": -1.0, "x": 0.6},
            zero_covariates=["x"],
            true_tau=1.5,
            seed=703,
        )
        simulate(config, out_path=path)
        argv = (
            "--family", "zinb",
            "--input", str(path),
            "--schema", "y=count,x=numeric,g=categorical",
            "--response", "y",
            "--covariates", "x,g",
            "--zero-covariates", "x",
        )
        one = _fit_under_blas_threads("1", *argv)
        assert json.loads(one)["converged"] is True
        assert one == _fit_under_blas_threads("2", *argv)


class TestScreen:
    def test_csv_format(self, data_csv):
        res = run_cli(
            "screen",
            "--input", str(data_csv),
            "--schema", SCHEMA,
            "--response", "y",
            "--format", "csv",
        )
        assert res.returncode == EXIT_OK
        lines = res.stdout.splitlines()
        assert lines[0] == "covariate,chi2,df,p,stars,min_expected"
        assert len(lines) == 2
        name, chi2, df, p, _, _ = lines[1].split(",")
        assert name == "grp"
        assert float(chi2) >= 0.0 and int(df) >= 1 and 0.0 <= float(p) <= 1.0

    def test_text(self, data_csv):
        res = run_cli(
            "screen",
            "--input", str(data_csv),
            "--schema", SCHEMA,
            "--response", "y",
            "--covariates", "grp",
        )
        assert res.returncode == EXIT_OK
        assert "chi-square screening" in res.stdout
        assert "grp" in res.stdout

    def test_default_covariates_skip_numeric(self, data_csv):
        res = run_cli(
            "screen",
            "--input", str(data_csv),
            "--schema", SCHEMA,
            "--response", "y",
            "--format", "json",
        )
        assert res.returncode == EXIT_OK
        payload = json.loads(res.stdout)
        assert [r["covariate"] for r in payload["results"]] == ["grp"]
        assert payload["continuity_correction"] == "none"
        row = payload["results"][0]
        assert row["df"] >= 1
        assert 0.0 <= row["p"] <= 1.0
        assert row["observed"]

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_nothing_to_tabulate_is_an_error(self, fmt, tmp_path):
        path = tmp_path / "numeric.csv"
        path.write_text("y,x\n0,0.5\n2,-1.25\n1,3.0\n", encoding="utf-8")
        res = run_cli(
            "screen",
            "--input", str(path),
            "--schema", "y=count,x=numeric",
            "--response", "y",
            "--format", fmt,
        )
        assert res.returncode == 1
        assert res.stdout == ""
        errors = [line for line in res.stderr.splitlines() if line.startswith("error: ")]
        assert errors == [
            "error: no covariate to screen: no column but the response 'y' "
            "is categorical or count"
        ]

    @pytest.mark.parametrize(
        "covariates,message",
        [
            ("grp,grp", "covariate 'grp' is listed twice in the screen"),
            ("grp,y", "the response 'y' cannot be a covariate of the screen"),
        ],
    )
    def test_covariate_list_is_checked(self, data_csv, capsys, covariates, message):
        argv = ["screen", "--input", str(data_csv), "--schema", SCHEMA, "--response", "y",
                "--covariates", covariates]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == f"error: {message}"


class TestDiagnose:
    def test_json_with_fitted_family(self, data_csv):
        res = run_cli(
            "diagnose",
            "--input", str(data_csv),
            "--schema", SCHEMA,
            "--response", "y",
            "--covariates", "x",
            "--family", "nb",
            "--format", "json",
        )
        assert res.returncode == EXIT_OK
        payload = json.loads(res.stdout)
        assert payload["dispersion"]["verdict"] in (
            "overdispersed", "underdispersed", "equidispersed"
        )
        assert payload["zeros"]["expected_zero_fraction"] is not None
        assert sum(c for _, c in payload["zeros"]["histogram"]) == 400

    def test_without_family_no_expected_zeros(self, data_csv):
        res = run_cli(
            "diagnose",
            "--input", str(data_csv),
            "--schema", SCHEMA,
            "--response", "y",
            "--format", "json",
        )
        assert res.returncode == EXIT_OK
        payload = json.loads(res.stdout)
        assert payload["zeros"]["expected_zero_fraction"] is None

    def test_csv_histogram(self, data_csv):
        res = run_cli(
            "diagnose",
            "--input", str(data_csv),
            "--schema", SCHEMA,
            "--response", "y",
            "--format", "csv",
        )
        assert res.returncode == EXIT_OK
        lines = res.stdout.splitlines()
        assert lines[0] == "value,count"
        assert all("," in line for line in lines[1:])


class TestSimulateCommand:
    def test_writes_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "sim.csv"
        res = run_cli("simulate", "--preset", "paper-like", "--seed", "3", "--out", str(out))
        assert res.returncode == EXIT_OK
        assert out.exists()
        truth = json.loads((tmp_path / "sim.truth.json").read_text())
        assert truth["seed"] == 3
        assert truth["family"] == "nb"
        assert res.stdout == ""

    def test_stdout_csv_without_out(self, tmp_path):
        argv = [sys.executable, "-m", "countreg", "simulate", "--preset", "paper-like"]
        res = subprocess.run([*argv, "--seed", "3"], capture_output=True)
        assert res.returncode == EXIT_OK
        lines = res.stdout.decode().splitlines()
        assert lines[0] == "y"
        assert len(lines) == 100_001
        out = tmp_path / "sim.csv"
        subprocess.run([*argv, "--seed", "3", "--out", str(out)], check=True)
        assert res.stdout == out.read_bytes()

    def test_format_is_not_an_option(self):
        res = run_cli("simulate", "--preset", "paper-like", "--format", "json")
        assert res.returncode == 2


class TestCompare:
    def test_ranking(self, data_csv):
        res = run_cli(
            "compare",
            "--input", str(data_csv),
            "--schema", SCHEMA,
            "--response", "y",
            "--covariates", "x",
            "--format", "json",
        )
        assert res.returncode == EXIT_OK
        payload = json.loads(res.stdout)
        families = [r["family"] for r in payload["ranking"]]
        assert sorted(families) == ["nb", "poisson", "zinb"]
        aics = [r["aic"] for r in payload["ranking"]]
        assert aics == sorted(aics)

    def test_csv_format(self, data_csv):
        res = run_cli(
            "compare",
            "--input", str(data_csv),
            "--schema", SCHEMA,
            "--response", "y",
            "--covariates", "x",
            "--format", "csv",
        )
        assert res.returncode == EXIT_OK
        lines = res.stdout.splitlines()
        assert lines[0] == "family,n_params,log_likelihood,aic"
        rows = [line.split(",") for line in lines[1:]]
        assert sorted(r[0] for r in rows) == ["nb", "poisson", "zinb"]
        aics = [float(r[3]) for r in rows]
        assert aics == sorted(aics)


class TestErrors:
    def test_missing_family_is_usage_error(self, data_csv):
        res = run_cli(
            "fit", "--input", str(data_csv), "--schema", SCHEMA, "--response", "y"
        )
        assert res.returncode == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli("frobnicate").returncode == 2

    def test_simulate_requires_preset(self):
        assert run_cli("simulate").returncode == 2

    def test_missing_input_file(self, tmp_path):
        res = run_cli(
            "fit",
            "--input", str(tmp_path / "nope.csv"),
            "--schema", SCHEMA,
            "--response", "y",
            "--family", "nb",
        )
        assert res.returncode == 1
        assert res.stderr.strip().endswith("]") or "error:" in res.stderr

    def test_input_without_schema(self, data_csv):
        res = run_cli(
            "fit", "--input", str(data_csv), "--response", "y", "--family", "nb"
        )
        assert res.returncode == 1
        assert "error:" in res.stderr

    def test_malformed_ref_pair(self, data_csv):
        res = run_cli(
            "fit",
            "--input", str(data_csv),
            "--schema", SCHEMA,
            "--response", "y",
            "--covariates", "grp",
            "--family", "nb",
            "--ref", "grp",
        )
        assert res.returncode == 1
        assert "COL=LEVEL" in res.stderr

    def test_ref_naming_a_column_twice(self, data_csv, capsys):
        argv = ["fit", "--input", str(data_csv), "--schema", SCHEMA, "--response", "y",
                "--covariates", "grp", "--family", "nb", "--ref", "grp=a", "--ref", "grp = b"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == "error: --ref names column 'grp' twice"

    @pytest.mark.parametrize("command", ["fit", "screen", "diagnose", "compare"])
    def test_missing_response(self, data_csv, capsys, command):
        family = ["--family", "nb"] if command == "fit" else []
        assert main([command, "--input", str(data_csv), "--schema", SCHEMA, *family]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {command} requires --response (or a --preset that names one)"
        )

    def test_covariate_listed_twice(self, data_csv):
        res = run_cli(
            "fit",
            "--input", str(data_csv),
            "--schema", SCHEMA,
            "--response", "y",
            "--covariates", "grp,grp",
            "--family", "poisson",
        )
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.splitlines()[-1] == (
            "error: covariate 'grp' is listed twice in the count part"
        )

    def test_column_name_holding_a_comma_cannot_be_named(self, tmp_path, capsys):
        # `load_csv` reads the quoted header "g,h", but --schema and
        # --covariates split on commas: the column is reachable only through
        # the Python API
        path = tmp_path / "gh.csv"
        path.write_text('"g,h",y\na,1\nb,0\na,2\n')
        argv = ["fit", "--input", str(path), "--schema", "y=count,g,h=categorical",
                "--response", "y", "--covariates", "g,h", "--family", "poisson"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == "error: schema entry 'g' is not of the form name=kind"

    def test_schema_entry_without_a_name(self, tmp_path, capsys):
        # a trailing comma in the header makes an empty cell, which no entry names
        path = tmp_path / "trailing.csv"
        path.write_text("y,\n1,0.5\n0,\n")
        argv = ["fit", "--input", str(path), "--schema", "y=count,=numeric",
                "--response", "y", "--family", "poisson"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: schema entry '=numeric' is not of the form name=kind"
        ]

    @pytest.mark.parametrize(
        "option, family", [("--covariates", "nb"), ("--zero-covariates", "zinb")]
    )
    def test_response_as_covariate(self, data_csv, capsys, option, family):
        argv = ["fit", "--input", str(data_csv), "--schema", SCHEMA, "--response", "y"]
        assert main([*argv, option, "y", "--family", family]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        part = "count" if option == "--covariates" else "zero"
        assert err.splitlines()[-1] == (
            f"error: the response 'y' cannot be a covariate of the {part} part"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--preset", "paper-like", "--seed", "-1", "--family", "nb"],
            ["simulate", "--preset", "paper-like", "--seed", "-5"],
        ],
        ids=["fit", "simulate"],
    )
    def test_negative_preset_seed(self, argv):
        res = run_cli(*argv)
        assert res.returncode == 1
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        assert [line for line in res.stderr.splitlines() if "error:" in line] == [
            f"error: seed must be a non-negative integer, got {argv[4]}"
        ]

    def test_unknown_covariate(self, data_csv):
        res = run_cli(
            "fit",
            "--input", str(data_csv),
            "--schema", SCHEMA,
            "--response", "y",
            "--covariates", "ghost",
            "--family", "nb",
        )
        assert res.returncode == 1


INPUT = ["--input", "counts.csv", "--schema", SCHEMA, "--response", "y"]
PRESET = ["--preset", "paper-like"]


class TestIgnoredOptions:
    """An option the run would ignore is a usage error, before any data is read."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", *PRESET, "--input", "absent.csv", "--family", "nb"],
            ["screen", *PRESET, "--schema", SCHEMA],
            ["fit", *PRESET, "--response", "nosuch", "--family", "poisson"],
            ["diagnose", *INPUT, "--seed", "3"],
            ["fit", *PRESET, "--family", "nb", "--zero-covariates", "x"],
            ["diagnose", *PRESET, "--family", "poisson", "--zero-covariates", "x"],
            ["diagnose", *INPUT, "--covariates", "grp"],
            ["diagnose", *INPUT, "--zero-covariates", "x"],
            ["diagnose", *INPUT, "--ref", "grp=b"],
        ],
        ids=[
            "preset-with-input",
            "preset-with-schema",
            "preset-with-response",
            "seed-without-preset",
            "fit-zero-covariates-without-zinb",
            "diagnose-zero-covariates-without-zinb",
            "diagnose-covariates-without-family",
            "diagnose-zero-covariates-without-family",
            "diagnose-ref-without-family",
        ],
    )
    def test_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error:" in err

    def test_compare_passes_zero_covariates_to_its_zinb_fit(self, data_csv, capsys):
        argv = ["compare", "--input", str(data_csv), "--schema", SCHEMA, "--response", "y"]
        argv += ["--covariates", "grp", "--zero-covariates", "x", "--format", "csv"]
        assert main(argv) == EXIT_OK
        zinb = [line for line in capsys.readouterr().out.splitlines() if line.startswith("zinb,")]
        assert zinb[0].split(",")[1] == "6"  # 3 count, 2 zero coefficients and log_tau


class TestUnfittableInput:
    """Input that cannot be fitted ends as `error: ...` with exit 1."""

    @staticmethod
    def _fit(path, *extra):
        return run_cli(
            "fit",
            "--input", str(path),
            "--schema", "y=count,x=numeric",
            "--response", "y",
            "--covariates", "x",
            "--family", "nb",
            *extra,
        )

    @pytest.mark.parametrize("cell", ["nan", "-inf"])
    def test_non_finite_numeric_cell(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"y,x\n1,0.5\n2,{cell}\n0,0.1\n3,0.2\n")
        res = self._fit(path)
        assert res.returncode == 1
        assert "error: row 2, column 'x'" in res.stderr
        assert "Traceback" not in res.stderr

    def test_count_past_int64(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("y,x\n1,0.5\n99999999999999999999,0.3\n0,0.1\n3,0.2\n")
        res = self._fit(path)
        assert res.returncode == 1
        assert "error: row 2, column 'y'" in res.stderr
        assert "Traceback" not in res.stderr

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"y,x\n1,0.5\n2,\xff\xfe\n0,0.1\n3,0.2\n")
        res = self._fit(path)
        assert res.returncode == 1
        assert f"error: {path}, line 3: not UTF-8" in res.stderr
        assert "Traceback" not in res.stderr

    def test_field_past_the_csv_size_limit(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("y,x\n1,0.5\n2," + "1" * 200_000 + "\n0,0.1\n3,0.2\n")
        res = self._fit(path)
        assert res.returncode == 1
        assert f"error: {path}, line 3: field larger than field limit" in res.stderr
        assert "Traceback" not in res.stderr

    def test_start_point_failure_is_an_evaluation_error(
        self, data_csv, capsys, monkeypatch
    ):
        # a Dataset built in code can still hold a non-finite covariate
        import countreg.cli as cli_mod

        load_csv = cli_mod.load_csv

        def with_nan(path, schema):
            ds = load_csv(path, schema)
            ds.columns["x"].values[3] = math.nan
            return ds

        monkeypatch.setattr(cli_mod, "load_csv", with_nan)
        code = main(
            [
                "fit",
                "--input", str(data_csv),
                "--schema", SCHEMA,
                "--response", "y",
                "--covariates", "x",
                "--family", "nb",
            ]
        )
        assert code == 1
        assert "(row 3)" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["poisson", "nb"])
    def test_huge_finite_covariate(self, tmp_path, family):
        # the log-likelihood is finite at the start, its Hessian is not
        path = tmp_path / "huge.csv"
        path.write_text("y,x\n1,1e200\n2,-3e200\n0,2e200\n3,-1e200\n4,5e199\n")
        res = self._fit(path, "--family", family)
        assert res.returncode == 1
        assert res.stderr.splitlines()[-1] == (
            "error: score or Hessian is not finite at the starting point (parameter 'x')"
        )
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    def test_level_seen_only_in_a_dropped_row(self, tmp_path):
        # level c stays in the vocabulary, so its dummy column is all zero
        path = tmp_path / "dead.csv"
        path.write_text("y,g\n1,a\n2,b\n0,a\nNA,c\n3,b\n1,a\n4,b\n")
        res = run_cli(
            "fit",
            "--input", str(path),
            "--schema", "y=count,g=categorical",
            "--response", "y",
            "--covariates", "g",
            "--family", "nb",
        )
        assert res.returncode == 1
        assert res.stderr.splitlines()[-1].startswith("error: ")
        assert "g=c" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize(
        "text,schema,column",
        [
            ("y,g\n1,a\n2,b\n0,a\nNA,c\n3,b\n1,a\n4,b\n", "y=count,g=categorical", "g=c"),
            ("y,x\n1,0\n2,0.0\n0,-0\n3,0\n1,0\n", "y=count,x=numeric", "x"),
        ],
        ids=["level-only-in-a-dropped-row", "all-zero-numeric"],
    )
    def test_design_column_zero_in_every_row(self, tmp_path, capsys, text, schema, column):
        path = tmp_path / "dead.csv"
        path.write_text(text)
        argv = ["fit", "--input", str(path), "--schema", schema, "--response", "y",
                "--covariates", column.split("=")[0], "--family", "nb"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == f"error: design column(s) {column} are zero in every row"

    @pytest.fixture
    def all_zero_csv(self, tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text("y,x\n0,0.1\n0,0.2\n0,-0.3\n0,0.4\n0,0.5\n")
        return path

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_header_without_rows(self, tmp_path, capsys, command):
        path = tmp_path / "header.csv"
        path.write_text("y,x\n")
        argv = [command, "--input", str(path), "--schema", "y=count,x=numeric"]
        argv += ["--response", "y", "--covariates", "x"]
        assert main(argv + (["--family", "nb"] if command == "fit" else [])) == 1
        out, err = capsys.readouterr()
        assert out == ""
        # compare fits Poisson first, with 2 free parameters; NB has 3
        n_free = 3 if command == "fit" else 2
        assert err.splitlines()[-1] == (
            f"error: 0 observations cannot support {n_free} free parameters"
        )

    def test_all_zero_response(self, all_zero_csv):
        res = self._fit(all_zero_csv)
        assert res.returncode == 1
        assert "error: response 'y' has no positive counts" in res.stderr
        assert res.stdout == ""

    def test_diagnose_without_family_summarises_all_zero_response(self, all_zero_csv):
        res = run_cli(
            "diagnose",
            "--input", str(all_zero_csv),
            "--schema", "y=count,x=numeric",
            "--response", "y",
            "--format", "json",
        )
        assert res.returncode == EXIT_OK
        zeros = json.loads(res.stdout)["zeros"]
        assert zeros["observed_zero_fraction"] == 1.0
        assert zeros["histogram"] == [[0, 5]]

    def test_diagnose_json_writes_the_undefined_ratio_as_null(self, all_zero_csv, capsys):
        # variance / mean is 0 / 0 on an all-zero response
        argv = ["diagnose", "--input", str(all_zero_csv), "--schema", "y=count,x=numeric",
                "--response", "y", "--format", "json"]
        assert main(argv) == EXIT_OK
        dispersion = json.loads(capsys.readouterr().out)["dispersion"]
        assert dispersion["mean"] == 0.0 and dispersion["variance"] == 0.0
        assert dispersion["ratio"] is None


class TestNonConvergenceExit:
    """Exit code 3 still ships the report; verified by stubbing convergence."""

    @pytest.fixture
    def unconverged_fit(self, monkeypatch):
        import countreg.cli as cli_mod
        from countreg.fitting import fit as real_fit

        def forced(spec, ds, options=None):
            return dataclasses.replace(real_fit(spec, ds, options), converged=False)

        monkeypatch.setattr(cli_mod, "fit", forced)

    def test_fit_returns_3_with_report(self, data_csv, tmp_path, capsys, unconverged_fit):
        out = tmp_path / "fit.json"
        code = main(
            [
                "fit",
                "--input", str(data_csv),
                "--schema", SCHEMA,
                "--response", "y",
                "--covariates", "x",
                "--family", "poisson",
                "--format", "json",
                "--out", str(out),
            ]
        )
        assert code == EXIT_NO_CONVERGENCE
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["converged"] is False
        assert json.loads(out.read_text())["converged"] is False

    def test_iteration_cap_returns_3_with_report(self, data_csv, capsys, monkeypatch):
        from countreg import optimize

        monkeypatch.setattr(optimize, "MAX_ITER", 2)
        code = main(
            [
                "fit",
                "--input", str(data_csv),
                "--schema", SCHEMA,
                "--response", "y",
                "--covariates", "grp,x",
                "--family", "nb",
                "--format", "json",
            ]
        )
        assert code == EXIT_NO_CONVERGENCE
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is False
        assert payload["iterations"] == 2

    def test_compare_returns_3(self, data_csv, capsys, unconverged_fit):
        code = main(
            [
                "compare",
                "--input", str(data_csv),
                "--schema", SCHEMA,
                "--response", "y",
                "--covariates", "x",
            ]
        )
        assert code == EXIT_NO_CONVERGENCE
        assert "model comparison" in capsys.readouterr().out

    def test_diagnose_returns_3(self, data_csv, capsys, unconverged_fit):
        code = main(
            [
                "diagnose",
                "--input", str(data_csv),
                "--schema", SCHEMA,
                "--response", "y",
                "--covariates", "x",
                "--family", "nb",
            ]
        )
        assert code == EXIT_NO_CONVERGENCE
        assert "verdict" in capsys.readouterr().out


class TestStreamDiscipline:
    def test_stderr_carries_config_stdout_carries_payload(self, data_csv):
        res = run_cli(
            "screen",
            "--input", str(data_csv),
            "--schema", SCHEMA,
            "--response", "y",
            "--format", "json",
        )
        assert res.returncode == EXIT_OK
        json.loads(res.stdout)  # stdout is pure JSON
        assert res.stderr.startswith("config: screen ")
        assert "config:" not in res.stdout


class TestOutFile:
    """`--out` holds the printed bytes, but diagnose's holds its histogram CSV
    (fit's JSON report is covered in TestFit)."""

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("command", ["screen", "compare", "diagnose"])
    def test_out_file(self, data_csv, tmp_path, capsys, command, fmt):
        def printed(fmt, *extra):
            argv = [command, "--input", str(data_csv), "--schema", SCHEMA, "--response", "y"]
            assert main([*argv, "--format", fmt, *extra]) == EXIT_OK
            return capsys.readouterr().out

        out = tmp_path / "report.out"
        text = printed(fmt, "--out", str(out))
        assert out.read_text() == (printed("csv") if command == "diagnose" else text)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--family", "nb"],
            ["screen"],
            ["diagnose"],
            ["diagnose", "--family", "zinb"],
            ["compare"],
            ["simulate"],
        ],
        ids=lambda argv: "-".join(argv),
    )
    def test_a_failed_write_prints_nothing(self, tmp_path, capsys, argv, fmt):
        out = tmp_path / "missing" / "report.out"
        options = ["--out", str(out)] + (["--format", fmt] if argv[0] != "simulate" else [])
        assert main([*argv, "--preset", "paper-like", *options]) == 1
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert [line for line in stderr.splitlines() if line.startswith("error: ")] == [
            stderr.splitlines()[-1]
        ]
        assert not out.parent.exists()


class TestUtf8Files:
    """Files are UTF-8 whatever the locale, and a report that stdout cannot
    encode ends as one error line with nothing printed."""

    CONFIG = (
        'SimConfig(n_rows=60, family="poisson", covariates=[CovariateSpec("g", "categorical",'
        ' levels=("\\u00e9t\\u00e9", "hiver"), probabilities=(0.5, 0.5))],'
        ' true_beta={"(intercept)": 0.3, "g=hiver": 0.2}, seed=5)'
    )
    # an ASCII locale, which Python neither coerces nor overrides with UTF-8 mode
    ENV = {**os.environ, "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C"}

    def _simulate(self, path):
        script = (
            "import codecs, locale, sys\n"
            "from countreg import CovariateSpec, SimConfig, simulate\n"
            "assert codecs.lookup(locale.getpreferredencoding(False)).name == 'ascii'\n"
            "assert codecs.lookup(sys.stdout.encoding).name == 'ascii'\n"
            f"simulate({self.CONFIG}, {str(path)!r})\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", script], env=self.ENV, capture_output=True, text=True
        )
        assert res.returncode == 0, res.stderr

    def test_simulated_csv_is_utf8_under_an_ascii_locale(self, tmp_path):
        from countreg import load_csv

        path = tmp_path / "ete.csv"
        self._simulate(path)
        assert "été".encode("utf-8") in path.read_bytes()
        loaded = load_csv(path, {"g": "categorical", "y": "count"})
        assert loaded.column("g").levels == ("hiver", "été")
        assert json.loads((tmp_path / "ete.truth.json").read_text(encoding="utf-8"))["seed"] == 5

    def test_a_report_stdout_cannot_encode_is_one_error_line(self, tmp_path):
        path, out = tmp_path / "ete.csv", tmp_path / "report.csv"
        self._simulate(path)
        argv = [
            "fit", "--input", str(path), "--schema", "g=categorical,y=count",
            "--response", "y", "--family", "poisson", "--covariates", "g",
        ]
        res = run_cli(*argv, "--format", "csv", env=self.ENV)
        assert res.returncode == 1
        assert res.stdout == ""
        config, error = res.stderr.splitlines()
        assert config.startswith("config: fit ")
        assert error.startswith("error: standard output (ascii) cannot encode the report: '\\xe9'")
        # --out is UTF-8: the same report there, with stdout still refused
        res = run_cli(*argv, "--format", "json", "--out", str(out), env=self.ENV)
        assert res.returncode == 0 and res.stdout.isascii()
        assert json.loads(out.read_text(encoding="utf-8")) == json.loads(res.stdout)
