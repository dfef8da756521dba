"""Chi-square screening, the survival function, dispersion and zero summaries."""

import math

import numpy as np
import pytest

from countreg import (
    Column,
    Dataset,
    DegenerateTableError,
    InsufficientDataError,
    ModelSpec,
    SchemaError,
    chi_square_independence,
    chi_square_sf,
    dispersion_summary,
    fit,
    sample_nb,
    NbParams,
    screen,
    zero_summary,
)

from countreg.diagnostics import _category_codes

import _oracles


def _table_dataset(counts):
    """Dataset realizing a given covariate-by-response contingency table.

    counts[i][j] rows with covariate level i and response value j.
    """
    grp, y = [], []
    levels = tuple(chr(ord("a") + i) for i in range(len(counts)))
    for i, row in enumerate(counts):
        for j, c in enumerate(row):
            grp.extend([i] * c)
            y.extend([j] * c)
    n = len(y)
    return Dataset(
        {
            "grp": Column("grp", "categorical", np.asarray(grp), levels=levels),
            "y": Column("y", "count", np.asarray(y, dtype=np.int64)),
        },
        n_rows=n,
    )


class TestChiSquareSf:
    def test_df2_is_exponential(self):
        for x in (0.0, 0.5, 2.0, 10.0, 40.0):
            assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)

    def test_against_quadrature_oracle(self):
        assert chi_square_sf(20.0 / 3.0, 1) == pytest.approx(
            _oracles.CHI2_SF_20_3RDS_1, abs=1e-12
        )
        for x, df in ((0.3, 1), (3.7, 4), (12.0, 7), (25.0, 3)):
            assert chi_square_sf(x, df) == pytest.approx(
                _oracles.chi2_sf_quad(x, df), abs=1e-11
            )

    def test_monotone_decreasing_in_x(self):
        xs = np.linspace(0.0, 30.0, 61)
        vals = [chi_square_sf(float(x), 3) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_at_zero_is_one(self):
        assert chi_square_sf(0.0, 5) == pytest.approx(1.0, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi_square_sf(-0.1, 1)
        with pytest.raises(ValueError):
            chi_square_sf(1.0, 0)


class TestChiSquareIndependence:
    def test_uniform_table_is_exactly_independent(self):
        ds = _table_dataset([[10, 10], [10, 10]])
        res = chi_square_independence(ds, "grp", "y")
        assert res.chi2 == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0, abs=1e-12)
        assert res.df == 1
        assert res.stars == ""

    def test_known_two_by_two(self):
        ds = _table_dataset([[20, 10], [10, 20]])
        res = chi_square_independence(ds, "grp", "y")
        assert res.chi2 == pytest.approx(20.0 / 3.0, abs=1e-9)
        assert res.df == 1
        assert res.p_value == pytest.approx(_oracles.CHI2_SF_20_3RDS_1, abs=1e-9)
        assert res.stars == "***"
        assert res.min_expected == pytest.approx(15.0)
        assert not res.low_expected_warning

    def test_margins_preserved(self):
        ds = _table_dataset([[5, 9, 2], [7, 1, 6]])
        res = chi_square_independence(ds, "grp", "y")
        np.testing.assert_allclose(
            res.expected.sum(axis=1), res.observed.sum(axis=1)
        )
        np.testing.assert_allclose(
            res.expected.sum(axis=0), res.observed.sum(axis=0)
        )

    def test_row_permutation_invariance(self):
        a = chi_square_independence(_table_dataset([[20, 10], [10, 20]]), "grp", "y")
        b = chi_square_independence(_table_dataset([[10, 20], [20, 10]]), "grp", "y")
        assert a.chi2 == pytest.approx(b.chi2, abs=1e-12)
        assert a.p_value == pytest.approx(b.p_value, abs=1e-12)

    def test_replication_scales_statistic(self):
        base = [[20, 10], [10, 20]]
        tripled = [[3 * c for c in row] for row in base]
        a = chi_square_independence(_table_dataset(base), "grp", "y")
        b = chi_square_independence(_table_dataset(tripled), "grp", "y")
        assert b.chi2 == pytest.approx(3.0 * a.chi2, rel=1e-12)

    def test_df_general_shape(self):
        ds = _table_dataset([[5, 6, 7], [8, 9, 10], [11, 12, 13], [14, 15, 16]])
        res = chi_square_independence(ds, "grp", "y")
        assert res.df == (4 - 1) * (3 - 1)
        assert res.row_labels == ["a", "b", "c", "d"]
        assert res.col_labels == ["0", "1", "2"]

    def test_low_expected_warning(self):
        ds = _table_dataset([[1, 9], [8, 3]])
        res = chi_square_independence(ds, "grp", "y")
        assert res.min_expected < 5.0
        assert res.low_expected_warning

    def test_single_level_degenerate(self):
        ds = _table_dataset([[12, 8]])
        with pytest.raises(DegenerateTableError):
            chi_square_independence(ds, "grp", "y")

    def test_constant_response_degenerate(self):
        ds = _table_dataset([[12], [8]])
        with pytest.raises(DegenerateTableError):
            chi_square_independence(ds, "grp", "y")

    def test_empty_margin_degenerate(self):
        # level "c" exists in the vocabulary but never in the data
        ds = _table_dataset([[5, 5], [5, 5]])
        grp = ds.column("grp")
        ds.columns["grp"] = Column(
            "grp", "categorical", grp.values, levels=("a", "b", "c")
        )
        with pytest.raises(DegenerateTableError):
            chi_square_independence(ds, "grp", "y")

    def test_numeric_covariate_rejected(self):
        ds = Dataset(
            {
                "y": Column("y", "count", np.array([0, 1, 2, 1])),
                "x": Column("x", "numeric", np.array([0.1, 0.5, 0.9, 0.2])),
            },
            n_rows=4,
        )
        with pytest.raises(SchemaError):
            chi_square_independence(ds, "x", "y")

    def test_count_covariate_uses_observed_values(self):
        ds = Dataset(
            {
                "y": Column("y", "count", np.array([0, 1, 0, 1, 0, 1])),
                "k": Column("k", "count", np.array([2, 2, 7, 7, 2, 7])),
            },
            n_rows=6,
        )
        res = chi_square_independence(ds, "k", "y")
        assert res.row_labels == ["2", "7"]

    def test_screen_keys_results_by_covariate(self):
        ds = _table_dataset([[20, 10], [10, 20]])
        out = screen(ds, ["grp"], "y")
        assert set(out) == {"grp"}
        assert out["grp"].chi2 == pytest.approx(20.0 / 3.0, abs=1e-9)

    @pytest.mark.parametrize(
        "covariates,message",
        [
            (["grp", "grp"], "covariate 'grp' is listed twice in the screen"),
            (["y"], "the response 'y' cannot be a covariate of the screen"),
            # a bare string is not read as its characters
            ("gh", "the covariates of the screen must be a list of names, not 'gh'"),
            (None, "the covariates of the screen must be a list of names, not None"),
        ],
    )
    def test_screen_checks_its_covariate_list(self, covariates, message):
        ds = _table_dataset([[20, 10], [10, 20]])
        with pytest.raises(SchemaError) as err:
            screen(ds, covariates, "y")
        assert str(err.value) == message


class TestDispersionSummary:
    def test_repeating_triple(self):
        y = np.tile([0, 1, 2], 30)
        res = dispersion_summary(y)
        n = y.size
        assert res.mean == pytest.approx(1.0)
        assert res.variance == pytest.approx((2.0 / 3.0) * n / (n - 1))
        assert res.verdict == "underdispersed"

    def test_all_equal_is_underdispersed(self):
        res = dispersion_summary(np.full(50, 3))
        assert res.variance == 0.0
        assert res.verdict == "underdispersed"

    def test_all_zero_has_nan_ratio(self):
        res = dispersion_summary(np.zeros(10, dtype=int))
        assert math.isnan(res.ratio)
        # variance equals mean (both zero), so the degenerate sample reads equi
        assert res.verdict == "equidispersed"

    def test_nb_sample_ratio_tracks_theory(self):
        draws = sample_nb(NbParams(2.0, 1.0), 200_000, seed=91)
        res = dispersion_summary(draws)
        assert res.verdict == "overdispersed"
        assert res.ratio == pytest.approx(1.0 + 2.0 / 1.0, rel=0.05)

    def test_too_few_observations(self):
        with pytest.raises(InsufficientDataError):
            dispersion_summary(np.array([3]))


def _tables_reference(y):
    """Row codes, labels and histogram of a count array by np.unique."""
    distinct, codes, counts = np.unique(y, return_inverse=True, return_counts=True)
    labels = [str(int(v)) for v in distinct]
    return codes, labels, [(int(v), int(c)) for v, c in zip(distinct, counts)]


class TestCountTables:
    """Count columns are tabulated at their distinct values, as np.unique
    finds them, whether or not the values index a table of their own."""

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: rng.choice([0, 1, 4, 9, 10], 500),  # gaps
            lambda rng: np.full(50, 3),  # a single value
            lambda rng: rng.choice([0, 2, 700], 300),  # max >= n
            lambda rng: rng.permutation(40),  # max = n - 1
            lambda rng: np.array([6]),  # one row, max >= n
        ],
        ids=["gaps", "single value", "max above n", "max n-1", "one row"],
    )
    def test_codes_and_histogram_match_np_unique(self, draw):
        y = draw(np.random.default_rng(121)).astype(np.int64)
        want_codes, want_labels, want_histogram = _tables_reference(y)
        codes, labels = _category_codes(Column("y", "count", y))
        np.testing.assert_array_equal(codes, want_codes)
        assert codes.dtype == want_codes.dtype
        assert labels == want_labels
        summary = zero_summary(y)
        assert summary.observed_zero_fraction == float(np.mean(y == 0))
        histogram = summary.histogram
        assert histogram == want_histogram
        assert all(type(v) is int and type(c) is int for v, c in histogram)


class TestZeroSummary:
    def test_histogram_covers_all_rows(self):
        y = np.array([0, 0, 1, 3, 3, 3, 7])
        res = zero_summary(y)
        assert res.observed_zero_fraction == pytest.approx(2.0 / 7.0)
        assert res.histogram == [(0, 2), (1, 1), (3, 3), (7, 1)]
        assert sum(c for _, c in res.histogram) == y.size
        assert res.expected_zero_fraction is None

    def test_poisson_fit_expected_zeros(self):
        rng = np.random.default_rng(92)
        y = rng.poisson(1.0, size=5000).astype(np.int64)
        ds = Dataset({"y": Column("y", "count", y)}, n_rows=y.size)
        res = fit(ModelSpec("poisson", "y"), ds)
        summary = zero_summary(y, res)
        # intercept-only Poisson: fitted P(0) = exp(-mean(y))
        assert summary.expected_zero_fraction == pytest.approx(
            math.exp(-float(y.mean())), abs=1e-9
        )
        assert summary.expected_zero_fraction == pytest.approx(
            math.exp(-1.0), abs=0.05
        )

    @pytest.mark.parametrize("family", ["nb", "zinb"])
    def test_fitted_zero_fraction_tracks_observed(self, family):
        from countreg import CovariateSpec, SimConfig, simulate

        config = SimConfig(
            n_rows=20_000,
            family="zinb",
            covariates=[CovariateSpec("x", "numeric", low=-1.0, high=1.0)],
            true_beta={"(intercept)": 0.4, "x": 0.5},
            true_gamma={"(intercept)": -0.9},
            true_tau=1.3,
            seed=93,
        )
        ds = simulate(config)
        res = fit(ModelSpec(family, "y", ["x"]), ds)
        y = ds.response_vector("y")
        summary = zero_summary(y, res)
        assert summary.expected_zero_fraction == pytest.approx(
            summary.observed_zero_fraction, abs=0.02
        )
