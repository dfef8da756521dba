"""Synthetic data generation: determinism, moments, truth sidecar, round-trip."""

import importlib.util
import io
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from countreg import (
    Column,
    ConfigurationError,
    CovariateSpec,
    Dataset,
    NbParams,
    SimConfig,
    ZinbParams,
    demo_preset,
    dispersion_summary,
    load_csv,
    nb_log_pmf,
    simulate,
    zinb_moments,
)
from countreg import data
from countreg.cli import main
from countreg.data import csv_field
from countreg.simulate import _write_csv, write_csv


def _numeric(name="x", low=-1.0, high=1.0):
    return CovariateSpec(name, "numeric", low=low, high=high)


def _categorical(name="grp", levels=("a", "b"), probabilities=(0.6, 0.4)):
    return CovariateSpec(name, "categorical", levels=levels, probabilities=probabilities)


class TestSimulate:
    def test_poisson_intercept_only_mean(self):
        config = SimConfig(
            n_rows=50_000,
            family="poisson",
            covariates=[],
            true_beta={"(intercept)": math.log(2.0)},
            seed=201,
        )
        y = simulate(config).response_vector("y")
        se = math.sqrt(2.0 / y.size)
        assert abs(float(y.mean()) - 2.0) < 4 * se

    def test_same_seed_identical(self):
        config = SimConfig(
            n_rows=500,
            family="nb",
            covariates=[_numeric(), _categorical()],
            true_beta={"(intercept)": 0.2, "x": 0.3, "grp=b": -0.4},
            true_tau=1.1,
            seed=202,
        )
        a = simulate(config)
        b = simulate(config)
        np.testing.assert_array_equal(
            a.response_vector("y"), b.response_vector("y")
        )
        np.testing.assert_array_equal(a.column("grp").values, b.column("grp").values)
        np.testing.assert_array_equal(a.column("x").values, b.column("x").values)

    def test_different_seed_differs(self):
        base = dict(
            n_rows=500,
            family="poisson",
            covariates=[],
            true_beta={"(intercept)": 0.5},
        )
        a = simulate(SimConfig(seed=1, **base)).response_vector("y")
        b = simulate(SimConfig(seed=2, **base)).response_vector("y")
        assert not np.array_equal(a, b)

    def test_zinb_zero_fraction(self):
        p, lam, tau = 0.35, 2.0, 1.5
        config = SimConfig(
            n_rows=40_000,
            family="zinb",
            covariates=[],
            true_beta={"(intercept)": math.log(lam)},
            true_gamma={"(intercept)": math.log(p / (1 - p))},
            true_tau=tau,
            seed=203,
        )
        y = simulate(config).response_vector("y")
        expected = p + (1 - p) * math.exp(nb_log_pmf(0, NbParams(lam, tau)))
        assert float((y == 0).mean()) == pytest.approx(expected, abs=0.01)

    def test_zinb_moments_track_theory(self):
        p, lam, tau = 0.3, 2.0, 2.0
        config = SimConfig(
            n_rows=60_000,
            family="zinb",
            covariates=[],
            true_beta={"(intercept)": math.log(lam)},
            true_gamma={"(intercept)": math.log(p / (1 - p))},
            true_tau=tau,
            seed=204,
        )
        y = simulate(config).response_vector("y")
        mean, var = zinb_moments(ZinbParams(NbParams(lam, tau), p))
        assert float(y.mean()) == pytest.approx(mean, abs=5 * math.sqrt(var / y.size))

    def test_many_level_factor_draws_without_a_dense_design(self):
        """The predictor gathers a factor's level values by its codes, so a
        64-level factor costs no dummy column: the draw peaks at a few rows
        of float64, where the dense design alone would be 65."""
        n, levels = 200_000, tuple(f"d{i:02d}" for i in range(64))
        beta = {"(intercept)": 0.1, "x": 0.3}
        beta |= {f"district={lv}": 0.01 * i for i, lv in enumerate(levels) if i}
        config = SimConfig(
            n_rows=n,
            family="nb",
            covariates=[
                _categorical("district", levels, (1 / 64,) * 64),
                _numeric(),
            ],
            true_beta=beta,
            true_tau=1.5,
            seed=216,
        )
        tracemalloc.start()
        try:
            simulate(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 8 * n, f"peak {peak / 1e6:.1f} MB"

    def test_response_column_is_count_kind(self):
        config = SimConfig(
            n_rows=50,
            family="poisson",
            covariates=[_numeric()],
            true_beta={"(intercept)": 0.1, "x": 0.2},
            seed=205,
            response_name="events",
        )
        ds = simulate(config)
        col = ds.column("events")
        assert col.kind == "count"
        assert col.values.dtype == np.int64
        assert set(ds.columns) == {"x", "events"}


class TestValidation:
    def test_runaway_predictor_rejected(self):
        config = SimConfig(
            n_rows=100,
            family="poisson",
            covariates=[_numeric(low=60.0, high=61.0)],
            true_beta={"(intercept)": 0.0, "x": 1.0},
            seed=206,
        )
        with pytest.raises(ConfigurationError):
            simulate(config)

    def test_beta_keys_must_match_design(self):
        config = SimConfig(
            n_rows=100,
            family="poisson",
            covariates=[_numeric()],
            true_beta={"(intercept)": 0.0},  # missing "x"
            seed=207,
        )
        with pytest.raises(ConfigurationError):
            simulate(config)
        config = SimConfig(
            n_rows=100,
            family="poisson",
            covariates=[_numeric()],
            true_beta={"(intercept)": 0.0, "x": 0.1, "stray": 0.5},
            seed=207,
        )
        with pytest.raises(ConfigurationError):
            simulate(config)

    def test_categorical_keys_are_per_level(self):
        config = SimConfig(
            n_rows=100,
            family="poisson",
            covariates=[_categorical(levels=("a", "b", "c"), probabilities=(0.5, 0.3, 0.2))],
            true_beta={"(intercept)": 0.0, "grp=b": 0.1},  # missing grp=c
            seed=208,
        )
        with pytest.raises(ConfigurationError):
            simulate(config)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            simulate(
                SimConfig(
                    n_rows=100,
                    family="poisson",
                    covariates=[_categorical(probabilities=(0.6, 0.5))],
                    true_beta={"(intercept)": 0.0, "grp=b": 0.1},
                    seed=209,
                )
            )

    def test_nb_requires_tau(self):
        with pytest.raises(ConfigurationError):
            simulate(
                SimConfig(
                    n_rows=100,
                    family="nb",
                    covariates=[],
                    true_beta={"(intercept)": 0.0},
                    seed=210,
                )
            )

    def test_zero_part_only_for_zinb(self):
        with pytest.raises(ConfigurationError):
            simulate(
                SimConfig(
                    n_rows=100,
                    family="nb",
                    covariates=[],
                    true_beta={"(intercept)": 0.0},
                    true_gamma={"(intercept)": -0.5},
                    true_tau=1.0,
                    seed=211,
                )
            )

    def test_duplicate_covariate_names(self):
        with pytest.raises(ConfigurationError):
            simulate(
                SimConfig(
                    n_rows=100,
                    family="poisson",
                    covariates=[_numeric("x"), _numeric("x")],
                    true_beta={"(intercept)": 0.0, "x": 0.1},
                    seed=212,
                )
            )

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": -1},
            {"probabilities": (math.nan, 1.0)},
            {"low": -math.inf},
            {"coefficient": math.nan},
            {"true_tau": math.inf},
            # a coefficient on a level that no row draws touches no row's predictor
            {"probabilities": (1.0, 0.0), "coefficient": math.nan},
            {"probabilities": (1.0, 0.0), "coefficient": -math.inf},
            {"n_rows": 10.5},
            {"n_rows": 10.0},
            {"n_rows": "100"},
            {"n_rows": True},  # a bool is a numbers.Integral
            {"n_rows": 0, "message": "n_rows must be positive"},
            {"family": "gamma", "message": "unknown family 'gamma'"},
            {"levels": (), "message": "'grp' declares no levels"},
            {"levels": ("a", "b", "c"), "message": "'grp' probabilities do not match levels"},
            {"kind": "ordinal", "message": "'x' has unknown kind 'ordinal'"},
        ],
        ids=[
            "negative-seed",
            "nan-probability",
            "infinite-low",
            "nan-coefficient",
            "infinite-tau",
            "nan-coefficient-on-undrawn-level",
            "infinite-coefficient-on-undrawn-level",
            "fractional-n-rows",
            "float-n-rows",
            "string-n-rows",
            "bool-n-rows",
            "zero-n-rows",
            "unknown-family",
            "no-levels",
            "probabilities-not-matching-levels",
            "unknown-kind",
        ],
    )
    def test_values_numpy_cannot_draw_from(self, change):
        config = SimConfig(
            n_rows=change.get("n_rows", 100),
            family=change.get("family", "nb"),
            covariates=[
                _categorical(
                    levels=change.get("levels", ("a", "b")),
                    probabilities=change.get("probabilities", (0.6, 0.4)),
                ),
                CovariateSpec("x", change.get("kind", "numeric"), low=change.get("low", -1.0)),
            ],
            true_beta={"(intercept)": 0.0, "grp=b": change.get("coefficient", 0.1), "x": 0.2},
            true_tau=change.get("true_tau", 1.0),
            seed=change.get("seed", 215),
        )
        with pytest.raises(ConfigurationError) as err:
            simulate(config)
        assert str(err.value) == change.get("message", str(err.value))

    @staticmethod
    def _zinb_config(**change):
        """A zinb config with a level, a number and both parts; ``change``
        replaces a field of the config or of ``x``'s spec (``low``, ``high``)
        or ``grp``'s (``probabilities``)."""
        config = SimConfig(
            n_rows=50,
            family="zinb",
            covariates=[
                _categorical(probabilities=change.pop("probabilities", (0.6, 0.4))),
                CovariateSpec(
                    "x", "numeric", low=change.pop("low", 0.0), high=change.pop("high", 1.0)
                ),
            ],
            true_beta={"(intercept)": 0.5, "grp=b": -0.25, "x": 1},
            true_gamma={"(intercept)": -1, "x": 0.5},
            true_tau=2,
            seed=7,
            zero_covariates=["x"],
        )
        for name, value in change.items():
            setattr(config, name, value)
        return config

    def test_ints_are_numbers(self, tmp_path):
        # an int coefficient, shape or bound is a number; only a bool is not
        config = self._zinb_config(low=0, high=1)
        simulate(config, tmp_path / "sim.csv")
        truth = json.loads((tmp_path / "sim.truth.json").read_text(encoding="utf-8"))
        assert (truth["seed"], truth["true_tau"], truth["true_beta"]["x"]) == (7, 2, 1)

    @pytest.mark.parametrize("flag", [True, False, np.True_], ids=["True", "False", "np.True_"])
    @pytest.mark.parametrize(
        "field, change",
        [
            ("seed", lambda flag: {"seed": flag}),
            ("true_tau", lambda flag: {"true_tau": flag}),
            ("true_beta['(intercept)']",
             lambda flag: {"true_beta": {"(intercept)": flag, "grp=b": -0.25, "x": 1}}),
            ("true_beta['grp=b']",
             lambda flag: {"true_beta": {"(intercept)": 0.5, "grp=b": flag, "x": 1}}),
            ("true_gamma['x']", lambda flag: {"true_gamma": {"(intercept)": -1, "x": flag}}),
            ("'x' low", lambda flag: {"low": flag, "high": 2.0}),
            ("'x' high", lambda flag: {"low": -1.0, "high": flag}),
            ("'grp' level probability", lambda flag: {"probabilities": (flag, 1 - flag)}),
        ],
    )
    def test_a_bool_is_not_a_number(self, tmp_path, field, change, flag):
        # each of these simulated before, and the sidecar recorded the bool
        config = self._zinb_config(**change(flag))
        with pytest.raises(ConfigurationError, match="^" + re.escape(field)) as err:
            simulate(config, tmp_path / "sim.csv")
        if field == "seed":
            assert str(err.value) == f"seed must be a non-negative integer, got {flag!r}"
        else:
            assert str(err.value) == f"{field} must be a number, got {flag!r}"
        assert not (tmp_path / "sim.csv").exists()

    def test_zero_covariates_must_be_declared(self):
        with pytest.raises(ConfigurationError):
            simulate(
                SimConfig(
                    n_rows=100,
                    family="zinb",
                    covariates=[_numeric("x")],
                    true_beta={"(intercept)": 0.0, "x": 0.1},
                    true_gamma={"(intercept)": -0.5, "w": 0.2},
                    true_tau=1.0,
                    seed=213,
                    zero_covariates=["w"],
                )
            )


class TestCsvOutput:
    @staticmethod
    def _config(seed=214, levels=("a", "b", "c"), name="grp"):
        return SimConfig(
            n_rows=400,
            family="zinb",
            covariates=[
                _categorical(name, levels=levels, probabilities=(0.5, 0.3, 0.2)),
                _numeric(),
            ],
            true_beta={
                "(intercept)": 0.3, f"{name}={levels[1]}": -0.2, f"{name}={levels[2]}": 0.4,
                "x": 0.5,
            },
            true_gamma={"(intercept)": -0.8, "x": 0.3},
            true_tau=1.2,
            seed=seed,
            zero_covariates=["x"],
        )

    def test_truth_sidecar_written(self, tmp_path):
        out = tmp_path / "sim.csv"
        simulate(self._config(), out_path=out)
        sidecar = tmp_path / "sim.truth.json"
        assert out.exists() and sidecar.exists()
        truth = json.loads(sidecar.read_text())
        assert truth["family"] == "zinb"
        assert truth["seed"] == 214
        assert truth["true_beta"]["grp=c"] == 0.4
        assert truth["true_gamma"]["x"] == 0.3
        assert truth["true_tau"] == 1.2
        assert truth["zero_covariates"] == ["x"]
        assert truth["response"] == "y"
        assert truth["n_rows"] == 400

    def _assert_round_trip(self, config, tmp_path):
        """The CSV that `simulate` writes loads back as the simulated data."""
        out = tmp_path / "sim.csv"
        ds = simulate(config, out_path=out)
        name = config.covariates[0].name
        loaded = load_csv(out, {"y": "count", name: "categorical", "x": "numeric"})
        assert loaded.n_rows == ds.n_rows
        assert loaded.dropped_rows == 0
        np.testing.assert_array_equal(loaded.response_vector("y"), ds.response_vector("y"))
        # the loader sorts vocabularies; the declared levels here are sorted
        # already, so codes must agree exactly
        levels = tuple(config.covariates[0].levels)
        assert loaded.column(name).levels == ds.column(name).levels == levels
        np.testing.assert_array_equal(loaded.column(name).values, ds.column(name).values)
        # repr round-trips floats exactly
        np.testing.assert_array_equal(loaded.column("x").values, ds.column("x").values)

    def test_round_trip_through_loader(self, tmp_path):
        # the second level set holds a comma, a quote, a carriage return and
        # a newline, and the second name a comma and a quote, which must come
        # back whole, so the writer quotes them
        for levels, name in ((("a", "b", "c"), "grp"), (("a,b", 'c"d', "e\rf\ng"), 'g,"r"')):
            self._assert_round_trip(self._config(levels=levels, name=name), tmp_path)

    @pytest.mark.parametrize(
        "levels, name",
        [
            (("", "b", "c"), "grp"),
            (("NA", "b", "c"), "grp"),
            ((" a", "b", "c"), "grp"),
            (("a", "b", "c "), "grp"),
            (("a", "a", "b"), "grp"),
            (("a", "b", "c"), " g"),
            (("a", "b", "c"), ""),
            (("a", "b", "c"), "y"),
            (("a", "b", "c"), "g,h"),
            (("a", "b", "c"), "NA"),
        ],
        ids=[
            "empty-level", "NA-level", "leading-space-level", "trailing-space-level",
            "duplicate-level", "spaced-name", "empty-name", "response-name", "comma-name",
            "NA-name",
        ],
    )
    def test_writes_only_what_the_loader_reads_back(self, tmp_path, levels, name):
        # a config whose CSV would load back otherwise than simulated is
        # rejected; a name holding a comma is quoted and comes back whole,
        # and a name that is a missing token is only a header cell
        config = self._config(levels=levels, name=name)
        if name in ("g,h", "NA"):
            self._assert_round_trip(config, tmp_path)
        else:
            reason = "would not load back|lists a level twice|named like the response"
            with pytest.raises(ConfigurationError, match=reason):
                simulate(config, out_path=tmp_path / "sim.csv")


def _csv_reference(ds, config):
    """A simulated dataset's CSV as one string, every cell formatted at
    once: levels by `csv_field`, numbers by `repr` and counts by `str`."""
    names = [c.name for c in config.covariates] + [config.response_name]
    cols = []
    for name in names:
        col = ds.column(name)
        if col.kind == "categorical":
            cols.append([csv_field(col.levels[code]) for code in col.values.tolist()])
        else:
            cols.append(list(map(repr if col.kind == "numeric" else str, col.values.tolist())))
    return data.csv_text(names, zip(*cols))


def _workloads():
    """The benchmark's workload module, whose configs are the recipes here."""
    path = Path(__file__).resolve().parent.parent / "fitbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("fitbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _CountedWrites(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestStreamedCsv:
    """The CSV goes out `data.BLOCK_ROWS` rows per write, with the bytes of
    the whole text formatted at once."""

    @staticmethod
    def _edge_dataset(n):
        levels = ("a,b", 'say "hi"', "plain")
        rng = np.random.default_rng(n)
        x = np.resize([-0.0, 1e16, 5e-324, 0.1, -2.5e-7, 3.0], n)
        columns = {
            "g,r": Column("g,r", "categorical", rng.integers(0, 3, n), levels),
            "x": Column("x", "numeric", x),
            "y": Column("y", "count", rng.integers(0, 40, n)),
        }
        config = SimConfig(
            n_rows=n,
            family="poisson",
            covariates=[_categorical("g,r", levels, (0.2, 0.3, 0.5)), _numeric()],
            true_beta={},
        )
        return Dataset(columns, n), config

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7])
    def test_blocks_write_the_whole_text(self, n, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "BLOCK_ROWS", 3)
        ds, config = self._edge_dataset(n)
        want = _csv_reference(ds, config)
        stream = _CountedWrites()
        write_csv(ds, config, stream)
        assert stream.getvalue() == want
        assert stream.writes == 1 + -(-n // 3)  # the header, then one write per block
        path = tmp_path / "edge.csv"
        _write_csv(ds, config, path)
        assert path.read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize(
        "y",
        [
            [9, 40, 9, 7, 123, 40, 7],  # counts at or above n: the np.unique path
            [2**63 - 1, 0, 2**63 - 2, 2**63 - 1, 1],  # counts near int64's maximum
            [],  # no row
        ],
        ids=["at-or-above-n", "near-int64-max", "empty"],
    )
    def test_count_texts_are_formatted_once_per_value(self, y, monkeypatch):
        # each distinct count's text, gathered by its code, in blocks that
        # split the repeats
        monkeypatch.setattr(data, "BLOCK_ROWS", 3)
        n = len(y)
        ds, config = self._edge_dataset(n)
        ds.columns["y"] = Column("y", "count", np.array(y, np.int64))
        stream = io.StringIO()
        write_csv(ds, config, stream)
        assert stream.getvalue() == _csv_reference(ds, config)
        assert stream.getvalue().count("\n") == n + 1

    def test_stdout_writes_the_whole_text(self, monkeypatch, capsys):
        monkeypatch.setattr(data, "BLOCK_ROWS", 3)
        config = demo_preset()
        config.seed = 3
        want = _csv_reference(simulate(config), config)
        capsys.readouterr()
        assert main(["simulate", "--preset", "paper-like", "--seed", "3"]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("recipe", ["paper-like", "cli-csv", "zinb-rows"])
    def test_recipes_write_the_whole_text(self, recipe, tmp_path):
        import countreg

        workloads = _workloads()
        config = {
            "paper-like": demo_preset,
            "cli-csv": lambda: workloads._csv_config(countreg, 200_000, 300),
            "zinb-rows": lambda: workloads._zinb_config(countreg, 20_000, 300),
        }[recipe]()
        path = tmp_path / "recipe.csv"
        ds = simulate(config, path)
        assert path.read_bytes() == _csv_reference(ds, config).encode("utf-8")


class TestDemoPreset:
    def test_shape_solves_variance_identity(self):
        config = demo_preset()
        lam = math.exp(config.true_beta["(intercept)"])
        assert lam == pytest.approx(0.701)
        assert lam + lam * lam / config.true_tau == pytest.approx(1.003, abs=1e-12)

    def test_moments_at_scale(self):
        config = demo_preset()
        y = simulate(config).response_vector("y")
        res = dispersion_summary(y)
        assert res.mean == pytest.approx(0.701, abs=0.01)
        assert res.variance == pytest.approx(1.003, abs=0.02)
        assert res.verdict == "overdispersed"

    def test_deterministic(self):
        a = simulate(demo_preset()).response_vector("y")
        b = simulate(demo_preset()).response_vector("y")
        np.testing.assert_array_equal(a, b)
