"""Command-line interface: exit codes, stream separation, output formats."""

import dataclasses
import json
import math
import os
import subprocess
import sys

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

    def test_preset_nb_fit_does_not_depend_on_blas_threads(self):
        # a likelihood that cancels at large tau let a single-threaded fit
        # stop there, far from the MLE
        logls = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            res = run_cli(
                "fit", "--preset", "paper-like", "--family", "nb", "--format", "json",
                env=env,
            )
            assert res.returncode == EXIT_OK, res.stderr
            logls.append(json.loads(res.stdout)["log_likelihood"])
        assert logls[0] == pytest.approx(logls[1], rel=1e-10)


class TestScreen:
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

    @pytest.fixture
    def all_zero_csv(self, tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text("y,x\n0,0.1\n0,0.2\n0,-0.3\n0,0.4\n0,0.5\n")
        return path

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
