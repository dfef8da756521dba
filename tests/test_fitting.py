"""Likelihoods, analytic gradients, BFGS fits, IRR tables, model comparison."""

import math

import numpy as np
import pytest

from countreg import (
    Column,
    ComparisonError,
    CovariateSpec,
    Dataset,
    EvaluationError,
    FitOptions,
    InsufficientDataError,
    ModelSpec,
    ParamVector,
    SimConfig,
    build_design,
    compare_models,
    fit,
    gradient,
    irr_table,
    log_likelihood,
    simulate,
)
from countreg import _kernels
from countreg.fitting import _Problem

import _oracles


def _ll6_dataset():
    y = np.asarray(_oracles.LL6_Y, dtype=np.int64)
    x = np.asarray(_oracles.LL6_X, dtype=np.float64)
    return Dataset(
        {
            "y": Column("y", "count", y),
            "x": Column("x", "numeric", x),
        },
        n_rows=y.size,
    )


def _ll6_pieces():
    ds = _ll6_dataset()
    X = build_design(ds, ["x"])
    Z = build_design(ds, [])
    y = ds.response_vector("y")
    return X, Z, y


class TestLogLikelihood:
    def test_poisson_matches_oracle(self):
        X, _, y = _ll6_pieces()
        params = ParamVector(np.asarray(_oracles.LL6_BETA), np.empty(0), None)
        ll = log_likelihood(ModelSpec("poisson", "y", ["x"]), X, None, y, params)
        assert ll == pytest.approx(_oracles.LL6_POISSON, abs=1e-10)

    def test_nb_matches_oracle(self):
        X, _, y = _ll6_pieces()
        params = ParamVector(
            np.asarray(_oracles.LL6_BETA), np.empty(0), math.log(_oracles.LL6_TAU)
        )
        ll = log_likelihood(ModelSpec("nb", "y", ["x"]), X, None, y, params)
        assert ll == pytest.approx(_oracles.LL6_NB, abs=1e-10)

    def test_zinb_matches_oracle(self):
        X, Z, y = _ll6_pieces()
        params = ParamVector(
            np.asarray(_oracles.LL6_BETA),
            np.asarray([_oracles.LL6_GAMMA0]),
            math.log(_oracles.LL6_TAU),
        )
        ll = log_likelihood(ModelSpec("zinb", "y", ["x"]), X, Z, y, params)
        assert ll == pytest.approx(_oracles.LL6_ZINB, abs=1e-10)

    def test_overflowing_predictor_names_offending_row(self):
        X, _, y = _ll6_pieces()
        params = ParamVector(np.asarray([0.0, 500.0]), np.empty(0), None)
        with pytest.raises(EvaluationError) as err:
            log_likelihood(ModelSpec("poisson", "y", ["x"]), X, None, y, params)
        # row 5 holds the largest covariate value, 1.9
        assert err.value.row == 5


def _fd_dataset(seed, n=40):
    rng = np.random.default_rng(seed)
    y = rng.poisson(2.0, size=n).astype(np.int64)
    x1 = rng.normal(0.0, 1.0, size=n)
    x2 = rng.uniform(-1.0, 1.0, size=n)
    return Dataset(
        {
            "y": Column("y", "count", y),
            "x1": Column("x1", "numeric", x1),
            "x2": Column("x2", "numeric", x2),
        },
        n_rows=n,
    )


class TestGradientAgainstFiniteDifferences:
    """Central differences of the likelihood, step 1e-6, relative 1e-4."""

    STEP = 1e-6
    RTOL = 1e-4
    N_POINTS = 20

    @staticmethod
    def _pack(spec, params):
        pieces = [params.beta]
        if spec.family == "zinb":
            pieces.append(params.gamma)
        if spec.family != "poisson":
            pieces.append(np.asarray([params.log_tau]))
        return np.concatenate(pieces)

    @staticmethod
    def _unpack(spec, theta, d, q):
        beta = theta[:d]
        if spec.family == "zinb":
            gamma = theta[d : d + q]
            return ParamVector(beta, gamma, float(theta[-1]))
        if spec.family == "nb":
            return ParamVector(beta, np.empty(0), float(theta[-1]))
        return ParamVector(beta, np.empty(0), None)

    def _random_params(self, rng, spec, d, q):
        beta = rng.uniform(-0.8, 0.8, size=d)
        gamma = rng.uniform(-1.2, 1.2, size=q) if spec.family == "zinb" else np.empty(0)
        log_tau = float(rng.uniform(-0.7, 1.5)) if spec.family != "poisson" else None
        return ParamVector(beta, gamma, log_tau)

    @pytest.mark.parametrize("family", ["poisson", "nb", "zinb"])
    def test_matches_central_differences(self, family):
        ds = _fd_dataset(321)
        spec = ModelSpec(
            family,
            "y",
            ["x1", "x2"],
            ["x1"] if family == "zinb" else [],
        )
        X = build_design(ds, spec.count_covariates)
        Z = build_design(ds, spec.zero_covariates) if family == "zinb" else None
        y = ds.response_vector("y")
        d, q = X.n_cols, (Z.n_cols if Z is not None else 0)
        rng = np.random.default_rng(777)
        for _ in range(self.N_POINTS):
            params = self._random_params(rng, spec, d, q)
            analytic = gradient(spec, X, Z, y, params)
            theta = self._pack(spec, params)
            fd = np.empty_like(theta)
            for j in range(theta.size):
                hi = theta.copy()
                lo = theta.copy()
                hi[j] += self.STEP
                lo[j] -= self.STEP
                f_hi = log_likelihood(spec, X, Z, y, self._unpack(spec, hi, d, q))
                f_lo = log_likelihood(spec, X, Z, y, self._unpack(spec, lo, d, q))
                fd[j] = (f_hi - f_lo) / (2 * self.STEP)
            err = np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))
            assert float(err.max()) < self.RTOL


class TestPoissonClosedForm:
    def test_gradient_zero_at_mean_rate(self):
        ds = _fd_dataset(11)
        X = build_design(ds, [])
        y = ds.response_vector("y")
        params = ParamVector(np.asarray([math.log(float(y.mean()))]), np.empty(0), None)
        g = gradient(ModelSpec("poisson", "y"), X, None, y, params)
        assert abs(float(g[0])) < 1e-9 * y.size

    def test_intercept_only_fit_hits_log_mean(self):
        ds = _fd_dataset(12)
        res = fit(ModelSpec("poisson", "y"), ds)
        assert res.converged
        ybar = float(ds.response_vector("y").mean())
        assert res.estimates.beta[0] == pytest.approx(math.log(ybar), abs=1e-8)
        assert res.gradient_norm < 1e-5


class TestFusedObjective:
    @pytest.mark.parametrize(
        "family,oracle", [("nb", _oracles.LL6_NB), ("zinb", _oracles.LL6_ZINB)]
    )
    def test_objective_runs_the_family_kernel_once(self, family, oracle, monkeypatch):
        name = f"{family}_loglik_score"
        kernel = getattr(_kernels, name)
        calls = []

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(_kernels, name, counted)
        X, Z, y = _ll6_pieces()
        zinb = family == "zinb"
        problem = _Problem(
            ModelSpec(family, "y", ["x"]), X, Z if zinb else None, y, FitOptions()
        )
        theta = [*_oracles.LL6_BETA, *([_oracles.LL6_GAMMA0] if zinb else [])]
        theta.append(math.log(_oracles.LL6_TAU))
        ll, grad = problem.objective(np.asarray(theta))
        assert len(calls) == 1
        assert ll == pytest.approx(oracle, abs=1e-10)
        assert grad.shape == (len(theta),)


def _nb_sim(n=4000, seed=21):
    config = SimConfig(
        n_rows=n,
        family="nb",
        covariates=[CovariateSpec("x", "numeric", low=-1.0, high=1.0)],
        true_beta={"(intercept)": 0.4, "x": -0.6},
        true_tau=1.2,
        seed=seed,
    )
    return simulate(config)


def _zinb_sim(n=8000, seed=22):
    config = SimConfig(
        n_rows=n,
        family="zinb",
        covariates=[CovariateSpec("x", "numeric", low=-1.0, high=1.0)],
        true_beta={"(intercept)": 0.5, "x": -0.4},
        true_gamma={"(intercept)": -0.7},
        true_tau=1.5,
        seed=seed,
    )
    return simulate(config)


class TestFits:
    def test_nb_recovery(self):
        ds = _nb_sim()
        res = fit(ModelSpec("nb", "y", ["x"]), ds)
        assert res.converged
        assert res.gradient_norm < 1e-5
        assert res.estimates.beta[0] == pytest.approx(0.4, abs=0.1)
        assert res.estimates.beta[1] == pytest.approx(-0.6, abs=0.1)
        assert res.estimates.tau == pytest.approx(1.2, rel=0.25)
        assert res.covariance_error is None
        assert res.covariance.shape == (3, 3)

    def test_zinb_recovery(self):
        ds = _zinb_sim()
        res = fit(ModelSpec("zinb", "y", ["x"]), ds)
        assert res.converged
        assert res.gradient_norm < 1e-5
        assert res.estimates.beta[0] == pytest.approx(0.5, abs=0.12)
        assert res.estimates.beta[1] == pytest.approx(-0.4, abs=0.12)
        assert res.estimates.gamma[0] == pytest.approx(-0.7, abs=0.2)
        assert res.estimates.tau == pytest.approx(1.5, rel=0.3)
        assert res.free_labels == ["(intercept)", "x", "zero:(intercept)", "log_tau"]

    def test_ll_path_is_monotone(self):
        ds = _zinb_sim(n=2000, seed=23)
        for family, cov in (("poisson", ["x"]), ("nb", ["x"]), ("zinb", ["x"])):
            res = fit(ModelSpec(family, "y", cov), ds)
            path = np.asarray(res.ll_path)
            assert path.size >= 1
            assert np.all(np.diff(path) >= 0.0)
            assert path[-1] == pytest.approx(res.log_likelihood, abs=1e-9)

    def test_aic_identity(self):
        ds = _nb_sim(n=800, seed=25)
        res = fit(ModelSpec("nb", "y", ["x"]), ds)
        assert res.aic == pytest.approx(2 * res.n_free - 2 * res.log_likelihood)
        assert res.n_free == 3

    def test_zero_probabilities_returned(self):
        ds = _zinb_sim(n=2000, seed=26)
        res = fit(ModelSpec("zinb", "y", ["x"]), ds)
        assert res.zero_probabilities.shape == (2000,)
        assert float(res.zero_probabilities.mean()) == pytest.approx(
            float((ds.response_vector("y") == 0).mean()), abs=0.03
        )

    def test_insufficient_rows_rejected(self):
        ds = Dataset(
            {
                "y": Column("y", "count", np.array([1, 2, 0])),
                "x": Column("x", "numeric", np.array([0.1, -0.2, 0.5])),
            },
            n_rows=3,
        )
        with pytest.raises(InsufficientDataError):
            fit(ModelSpec("nb", "y", ["x"]), ds)  # 3 free params, 3 rows


class TestReferenceLevelInvariance:
    """Recoding the dummy reference must not change the fitted model."""

    @staticmethod
    def _cat_dataset(n=1500, seed=31):
        config = SimConfig(
            n_rows=n,
            family="nb",
            covariates=[
                CovariateSpec(
                    "grp",
                    "categorical",
                    levels=("a", "b", "c"),
                    probabilities=(0.5, 0.3, 0.2),
                )
            ],
            true_beta={"(intercept)": 0.3, "grp=b": -0.5, "grp=c": 0.7},
            true_tau=1.4,
            seed=seed,
        )
        return simulate(config)

    def test_ll_fitted_values_and_relative_irr_invariant(self):
        ds = self._cat_dataset()
        spec_a = ModelSpec("nb", "y", ["grp"])
        spec_b = ModelSpec("nb", "y", ["grp"], reference_levels={"grp": "b"})
        res_a = fit(spec_a, ds)
        res_b = fit(spec_b, ds)
        assert res_a.converged and res_b.converged
        assert res_a.log_likelihood == pytest.approx(res_b.log_likelihood, abs=1e-6)

        X_a = build_design(ds, ["grp"])
        X_b = build_design(ds, ["grp"], reference_levels={"grp": "b"})
        lam_a = np.exp(X_a.values @ res_a.estimates.beta)
        lam_b = np.exp(X_b.values @ res_b.estimates.beta)
        np.testing.assert_allclose(lam_a, lam_b, rtol=1e-6, atol=1e-6)

        # the c-vs-b rate ratio must agree across parameterizations
        beta_a = dict(zip(res_a.count_labels, res_a.estimates.beta))
        beta_b = dict(zip(res_b.count_labels, res_b.estimates.beta))
        ratio_a = math.exp(beta_a["grp=c"] - beta_a["grp=b"])
        ratio_b = math.exp(beta_b["grp=c"])
        assert ratio_a == pytest.approx(ratio_b, rel=1e-6)


class TestNesting:
    def test_nb_with_huge_fixed_tau_matches_poisson(self):
        ds = _nb_sim(n=600, seed=41)
        pois = fit(ModelSpec("poisson", "y", ["x"]), ds)
        nb = fit(
            ModelSpec("nb", "y", ["x"]),
            ds,
            FitOptions(fix_log_tau=math.log(1e8)),
        )
        assert pois.converged and nb.converged
        np.testing.assert_allclose(nb.estimates.beta, pois.estimates.beta, atol=1e-4)
        assert nb.free_labels == ["(intercept)", "x"]

    def test_zinb_with_pinned_zero_part_matches_nb(self):
        ds = _nb_sim(n=600, seed=42)
        nb = fit(ModelSpec("nb", "y", ["x"]), ds)
        zinb = fit(
            ModelSpec("zinb", "y", ["x"]),
            ds,
            FitOptions(fix_gamma=np.asarray([-30.0])),  # p = expit(-30) ~ 1e-13
        )
        assert nb.converged and zinb.converged
        np.testing.assert_allclose(zinb.estimates.beta, nb.estimates.beta, atol=1e-3)
        assert zinb.estimates.tau == pytest.approx(nb.estimates.tau, rel=1e-3)
        assert zinb.free_labels == ["(intercept)", "x", "log_tau"]

    def test_fix_gamma_shape_checked(self):
        ds = _nb_sim(n=200, seed=43)
        from countreg import SchemaError

        with pytest.raises(SchemaError):
            fit(
                ModelSpec("zinb", "y", ["x"]),
                ds,
                FitOptions(fix_gamma=np.asarray([0.0, 0.0])),
            )


class TestCovarianceFailure:
    def test_collinear_design_flags_covariance(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=80)
        y = rng.poisson(np.exp(0.3 + 0.5 * x)).astype(np.int64)
        ds = Dataset(
            {
                "y": Column("y", "count", y),
                "x": Column("x", "numeric", x),
                "x_dup": Column("x_dup", "numeric", x.copy()),
            },
            n_rows=80,
        )
        res = fit(ModelSpec("poisson", "y", ["x", "x_dup"]), ds)
        assert res.covariance is None
        assert res.covariance_error is not None
        assert np.all(np.isfinite(res.estimates.beta))
        assert math.isnan(res.std_error("x"))
        rows = irr_table(res)
        assert all(math.isnan(r.std_error) for r in rows)
        assert all(r.stars == "" for r in rows)


@pytest.fixture(scope="module")
def zinb_fit():
    return fit(ModelSpec("zinb", "y", ["x"]), _zinb_sim(n=3000, seed=61))


class TestIrrTable:
    def test_default_skips_count_intercept(self, zinb_fit):
        rows = irr_table(zinb_fit)
        assert [(r.label, r.part) for r in rows] == [
            ("x", "count"),
            ("(intercept)", "zero"),
        ]

    def test_include_intercepts_adds_count_intercept(self, zinb_fit):
        rows = irr_table(zinb_fit, include_intercepts=True)
        assert [(r.label, r.part) for r in rows] == [
            ("(intercept)", "count"),
            ("x", "count"),
            ("(intercept)", "zero"),
        ]

    def test_row_contents(self, zinb_fit):
        row = irr_table(zinb_fit)[0]
        assert row.irr == pytest.approx(math.exp(row.coefficient))
        assert row.z_value == pytest.approx(row.coefficient / row.std_error)
        assert row.p_value == pytest.approx(
            math.erfc(abs(row.z_value) / math.sqrt(2.0))
        )
        assert row.std_error == pytest.approx(zinb_fit.std_error("x"))

    def test_star_thresholds(self, zinb_fit):
        # strong simulated effect: p well under 0.01
        row = irr_table(zinb_fit)[0]
        assert row.p_value < 0.01
        assert row.stars == "***"

    def test_std_error_unknown_label_is_nan(self, zinb_fit):
        assert math.isnan(zinb_fit.std_error("no-such-label"))


class TestCompareModels:
    def test_ranking_prefers_nb_on_overdispersed_data(self):
        ds = _nb_sim(n=2500, seed=71)
        fits = [
            fit(ModelSpec("poisson", "y", ["x"]), ds),
            fit(ModelSpec("nb", "y", ["x"]), ds),
        ]
        rows = compare_models(fits)
        assert [r.family for r in rows][0] == "nb"
        assert rows[0].aic <= rows[1].aic
        assert rows[0].n_params == 3
        assert rows[1].n_params == 2

    def test_sorted_ascending(self):
        ds = _zinb_sim(n=2500, seed=72)
        fits = [
            fit(ModelSpec(f, "y", ["x"]), ds) for f in ("poisson", "nb", "zinb")
        ]
        rows = compare_models(fits)
        aics = [r.aic for r in rows]
        assert aics == sorted(aics)

    def test_empty_rejected(self):
        with pytest.raises(ComparisonError):
            compare_models([])

    def test_mismatched_rows_rejected(self):
        a = fit(ModelSpec("poisson", "y", ["x"]), _nb_sim(n=300, seed=73))
        b = fit(ModelSpec("poisson", "y", ["x"]), _nb_sim(n=301, seed=74))
        with pytest.raises(ComparisonError):
            compare_models([a, b])
