"""Likelihoods, analytic gradients and Hessians, fits, IRR tables, model comparison."""

import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from countreg import (
    Column,
    ComparisonError,
    CovariateSpec,
    Dataset,
    DesignMatrix,
    EvaluationError,
    FitOptions,
    InsufficientDataError,
    ModelSpec,
    ParameterDomainError,
    ParamVector,
    SchemaError,
    SimConfig,
    build_design,
    compare_models,
    demo_preset,
    fit,
    gradient,
    irr_table,
    log_likelihood,
    poisson_log_pmf,
    simulate,
)
from countreg import _kernels
from countreg import fitting, optimize
from countreg.data import design_terms
from countreg.fitting import _Problem
from countreg.optimize import MAX_HALVINGS

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

    def test_poisson_likelihood_and_pmf_share_log_factorial(self):
        # at beta = 0, lam = e^0 = 1 exactly: both are -1 - log(y!), to the bit
        spec, params = ModelSpec("poisson", "y", []), ParamVector(np.zeros(1), np.empty(0), None)
        X = DesignMatrix(np.ones((1, 1)), ["(intercept)"])
        for y in [*range(301), 10**6]:
            ll = log_likelihood(spec, X, None, np.array([y]), params)
            assert ll == poisson_log_pmf(y, 1.0), y

    def test_overflowing_predictor_names_offending_row(self):
        X, _, y = _ll6_pieces()
        params = ParamVector(np.asarray([0.0, 500.0]), np.empty(0), None)
        with pytest.raises(EvaluationError) as err:
            log_likelihood(ModelSpec("poisson", "y", ["x"]), X, None, y, params)
        # row 5 holds the largest covariate value, 1.9
        assert err.value.row == 5

    @pytest.mark.parametrize("evaluate", [log_likelihood, gradient])
    @pytest.mark.parametrize(
        "case,error,message",
        [
            ("nan beta", ParameterDomainError, "non-finite count-part coefficient"),
            ("nan gamma", ParameterDomainError, "non-finite zero-part coefficient"),
            ("nan log_tau", ParameterDomainError, "non-finite log_tau"),
            (
                "tau at its floor",
                ParameterDomainError,
                f"shape exp({math.log(1e-10)}) outside (1e-10, inf)",
            ),
            (
                "nan zero-design cell",
                EvaluationError,
                "zero-part linear predictor is not finite (row 4)",
            ),
            (
                "eta above its limit",
                EvaluationError,
                "count-part linear predictor is not finite or above 700 (row 5)",
            ),
        ],
    )
    def test_unevaluable_point_raises_its_message(self, evaluate, case, error, message):
        X, Z, y = _ll6_pieces()
        params = ParamVector(
            np.asarray(_oracles.LL6_BETA),
            np.asarray([_oracles.LL6_GAMMA0]),
            math.log(_oracles.LL6_TAU),
        )
        if case == "nan beta":
            params.beta[1] = math.nan
        elif case == "nan gamma":
            params.gamma[0] = math.nan
        elif case == "nan log_tau":
            params.log_tau = math.nan
        elif case == "tau at its floor":
            params.log_tau = math.log(1e-10)
        elif case == "nan zero-design cell":
            Z.values[4, 0] = math.nan
        else:
            params.beta[:] = [0.0, 500.0]  # eta = 950 in row 5 only
        with pytest.raises(error) as err:
            evaluate(ModelSpec("zinb", "y", ["x"]), X, Z, y, params)
        assert str(err.value) == message


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


class TestHessianAgainstFiniteDifferences:
    """The fitter's analytic Hessian against central differences of its
    analytic gradient, relative 1e-6, over free parameters only."""

    RTOL = 1e-6
    N_POINTS = 8

    @staticmethod
    def _problem(family, options):
        # two counts past the per-call table (y > 256) join the rows
        ds = _fd_dataset(321)
        y = np.append(ds.response_vector("y"), [5000, 9000])
        x1 = np.append(ds.columns["x1"].values, [0.3, -0.4])
        x2 = np.append(ds.columns["x2"].values, [0.9, 0.2])
        ds = Dataset(
            {
                "y": Column("y", "count", y),
                "x1": Column("x1", "numeric", x1),
                "x2": Column("x2", "numeric", x2),
            },
            n_rows=y.size,
        )
        spec = ModelSpec(family, "y", ["x1", "x2"], ["x1"] if family == "zinb" else [])
        return _Problem(spec, ds, options)

    @pytest.mark.parametrize(
        "family,options",
        [
            ("poisson", FitOptions()),
            ("nb", FitOptions()),
            ("zinb", FitOptions()),
            ("nb", FitOptions(fix_log_tau=0.4)),
            ("zinb", FitOptions(fix_log_tau=0.4)),
            ("zinb", FitOptions(fix_gamma=np.array([-0.5, 0.3]))),
        ],
    )
    def test_matches_central_differences(self, family, options):
        problem = self._problem(family, options)
        rng = np.random.default_rng(778)
        k = int(problem.mask.sum())
        # two large tau too, where the series past the table nears the Poisson limit
        for log_tau in (*rng.uniform(-0.7, 1.5, self.N_POINTS), math.log(2e3), math.log(1e6)):
            theta = rng.uniform(-0.8, 0.8, size=k)
            if problem.free_labels()[-1] == "log_tau":
                theta[-1] = log_tau
            ll, _, hess = problem.objective(theta)
            assert math.isfinite(ll)
            fd = _oracles.hessian_fd(lambda t: problem.objective(t)[1], theta)
            err = np.abs(hess - fd) / np.maximum(1.0, np.abs(hess))
            assert float(err.max()) < self.RTOL, (log_tau, float(err.max()))


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
        zinb = family == "zinb"
        problem = _Problem(ModelSpec(family, "y", ["x"]), _ll6_dataset(), FitOptions())
        theta = [*_oracles.LL6_BETA, *([_oracles.LL6_GAMMA0] if zinb else [])]
        theta.append(math.log(_oracles.LL6_TAU))
        ll, grad, hess = problem.objective(np.asarray(theta))
        assert len(calls) == 1
        assert ll == pytest.approx(oracle, abs=1e-10)
        assert grad.shape == (len(theta),)
        assert hess.shape == (len(theta), len(theta))

    @pytest.mark.parametrize("family", ["poisson", "nb", "zinb"])
    def test_fit_prepares_counts_once(self, family, monkeypatch):
        made = []

        class Counted(_kernels.Counts):
            def __init__(self, y):
                super().__init__(y)
                made.append(self.y)

        monkeypatch.setattr(_kernels, "Counts", Counted)
        ds = _zinb_sim() if family == "zinb" else _nb_sim()
        spec = ModelSpec(family, "y", ["x"])
        res = fit(spec, ds)
        assert res.converged and res.n_iterations > 1
        # every row distinct: nothing collapses; the zero probabilities take
        # a closed form and prepare no response of their own
        assert len(made) == 1 and made[0].size == ds.n_rows
        # the prepared counts give the logL the public function computes afresh
        X, y = build_design(ds, ["x"]), ds.response_vector("y")
        Z = build_design(ds, []) if family == "zinb" else None
        assert log_likelihood(spec, X, Z, y, res.estimates) == res.log_likelihood

    @staticmethod
    def _distinct_row_problem(family, n):
        ds = _zinb_sim(n=n, seed=23)
        spec = ModelSpec(family, "y", ["x"], ["x"] if family == "zinb" else [])
        problem = _Problem(spec, ds, FitOptions())
        assert problem.counts.y.size == n  # every row distinct: nothing collapses
        return problem

    @pytest.mark.parametrize("family", ["poisson", "nb", "zinb"])
    def test_an_evaluation_allocates_no_row(self, family):
        # every row-sized intermediate goes into the buffers the first
        # evaluation makes, the joint codes of two factors too; what a later
        # one allocates stays below one row
        n = 20_000
        ds = _factor_sim(n=n, seed=24)
        spec = ModelSpec(family, "y", ["g", "h", "x"], ["h", "x"] if family == "zinb" else [])
        for problem in (self._distinct_row_problem(family, n), _Problem(spec, ds, FitOptions())):
            assert problem.counts.y.size == n
            theta = problem.start()
            problem.objective(theta)
            tracemalloc.start()
            try:
                problem.objective(theta)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * n

    def test_an_evaluation_allocates_only_past_the_count_table(self):
        # the series past the count table take temporaries the size of the
        # rows they serve: 4000 counts past K, with ever more counts below it
        big = 4000
        peaks = []
        for small in (0, 4000, 36_000):
            rng = np.random.default_rng(27)
            y = np.concatenate([rng.integers(300, 5000, big), rng.poisson(2.0, small)])
            x = Column("x", "numeric", rng.uniform(-1.0, 1.0, y.size))
            ds = Dataset({"y": Column("y", "count", y), "x": x}, y.size)
            problem = _Problem(ModelSpec("nb", "y", ["x"]), ds, FitOptions())
            assert problem.counts.y.size == y.size and problem.counts.big.size == big
            theta = problem.start()
            problem.objective(theta)
            tracemalloc.start()
            try:
                problem.objective(theta)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 12 * 8 * big
        assert max(peaks) < 1.05 * min(peaks)  # the peak does not grow with n

    @pytest.mark.parametrize("dense", [False, True], ids=["terms", "design-matrix"])
    def test_a_column_is_weighted_only_where_a_pair_reads_it(self, monkeypatch, dense):
        # a ZINB count-zero block with an intercept-only zero part: x meets
        # the intercept alone, which reads its sum, not its weighted row; a
        # DesignMatrix's "(intercept)" column is that intercept too
        ds = _factor_sim(n=300, seed=28)
        if dense:
            X = fitting._as_terms(build_design(ds, ["x"]))
            Z = fitting._as_terms(build_design(ds, []))
        else:
            X, Z = design_terms(ds, ["x"]), design_terms(ds, [])
        counts = _kernels.Counts(ds.response_vector("y"))
        requested, buffer = [], counts.buffer
        monkeypatch.setattr(
            counts, "buffer", lambda name, *args: requested.append(name) or buffer(name, *args)
        )
        h = np.random.default_rng(29).uniform(0.5, 1.5, ds.n_rows)
        out = np.full((2, 1), np.nan)
        fitting._hessian_block(X, Z, h, out, counts, False)
        assert requested == []
        np.testing.assert_allclose(out[:, 0], [h.sum(), h @ ds.column("x").values])

    @pytest.mark.parametrize("family", ["poisson", "nb", "zinb"])
    def test_zero_probabilities_allocate_no_row(self, family):
        # the pass after the ascent writes P(y = 0) into the buffers the
        # evaluations made, the ZINB 1 - p too
        n = 20_000
        problem = self._distinct_row_problem(family, n)
        theta = problem.start()
        problem.objective(theta)
        params = problem.to_params(theta)
        tracemalloc.start()
        try:
            zeros = fitting._zero_probabilities(
                family, problem.X, problem.Z, problem.counts, params
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert zeros.shape == (n,) and peak < 8 * n

    @pytest.mark.parametrize("family", ["poisson", "nb", "zinb"])
    def test_evaluations_sharing_buffers_keep_no_state(self, family):
        problem = self._distinct_row_problem(family, 3000)
        theta = problem.start()
        first = problem.objective(theta)
        moved = problem.objective(theta + 0.05)
        again = problem.objective(theta)
        assert moved[0] != first[0]
        assert again[0] == first[0]
        for a, b in zip(again[1:], first[1:]):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("family", ["poisson", "nb", "zinb"])
    def test_row_major_designs_give_the_same_sums(self, family):
        # the fitter contracts along contiguous columns; a C-order design
        # takes the strided path and must agree with it
        ds = _grouped_sim(n=3000, seed=95)
        spec = ModelSpec(family, "y", ["g", "h"], ["g"] if family == "zinb" else [])
        X = build_design(ds, spec.count_covariates)
        Z = build_design(ds, spec.zero_covariates) if family == "zinb" else None
        counts = _kernels.Counts(ds.response_vector("y"))
        w = np.random.default_rng(96).integers(1, 5, ds.n_rows).astype(np.float64)
        params = ParamVector(
            np.array([0.3, 0.2, -0.1, 0.2]),
            np.array([-0.8, 0.4, -0.3]) if Z is not None else np.empty(0),
            None if family == "poisson" else math.log(1.3),
        )

        def c_order(D):
            return None if D is None else DesignMatrix(np.ascontiguousarray(D.values), D.labels)

        assert X.values.flags.f_contiguous and not c_order(X).values.flags.f_contiguous
        terms = fitting._as_terms
        want = fitting._loglik_score(spec, terms(X), terms(Z), counts, params, w)
        got = fitting._loglik_score(spec, terms(c_order(X)), terms(c_order(Z)), counts, params, w)
        assert got[0] == pytest.approx(want[0], rel=1e-13)
        for g, v in zip(got[1:], want[1:]):
            np.testing.assert_allclose(g, v, rtol=1e-13, atol=1e-13 * np.max(np.abs(v)))

    @pytest.mark.parametrize("collapses", [True, False])
    def test_problem_holds_no_row_by_column_array(self, collapses):
        # the designs are terms: no float array has a row per observation
        # and a column per design column, before or after an evaluation
        ds = _grouped_sim(n=2000, seed=97) if collapses else _zinb_sim(n=2000, seed=98)
        covariates = ["g", "h"] if collapses else ["x"]
        spec = ModelSpec("zinb", "y", covariates, covariates[:1])
        problem = _Problem(spec, ds, FitOptions())
        assert (problem.counts.y.size < ds.n_rows) == collapses
        problem.objective(problem.start())
        columns = {problem.d, problem.q}
        arrays = [
            *(a for a in vars(problem).values() if isinstance(a, np.ndarray)),
            *(term.values for term in (*problem.X, *problem.Z)),
            *problem.counts._buffers.values(),
        ]
        assert arrays and not any(
            a.ndim > 1 and a.dtype.kind == "f" and columns & set(a.shape) for a in arrays
        )

    def test_non_finite_gradient_is_inadmissible(self, monkeypatch):
        problem = _Problem(ModelSpec("nb", "y", ["x"]), _ll6_dataset(), FitOptions())
        monkeypatch.setattr(
            fitting,
            "_loglik_score",
            lambda *args, **kwargs: (-10.0, np.array([1.0, math.nan, 0.0]), np.eye(3)),
        )
        ll, grad, hess = problem.objective(np.zeros(3))
        assert ll == -math.inf
        np.testing.assert_array_equal(grad, np.zeros(3))
        np.testing.assert_array_equal(hess, np.zeros((3, 3)))


def _factor_sim(n=20_000, seed=24, g_levels=3):
    """NB counts on two factors, g (``g_levels`` levels) and h (two), and
    two numeric columns x and z, every row distinct; drawn with numpy
    rather than through a dense design.  A fourth factor u declares levels
    p to s, of which r never occurs."""
    rng = np.random.default_rng(seed)
    g, h = rng.integers(0, g_levels, n), rng.integers(0, 2, n)
    x, z = rng.uniform(-1.0, 1.0, (2, n))
    u = rng.choice([0, 1, 3], n)
    lam = np.exp(0.3 + 0.4 * np.sin(g) + 0.25 * h - 0.5 * x + 0.2 * z)
    y = rng.negative_binomial(1.5, 1.5 / (1.5 + lam))
    factors = {
        "g": (g, [f"g{i:02d}" for i in range(g_levels)]), "h": (h, ["h0", "h1"]),
        "u": (u, list("pqrs")),
    }
    columns = {k: Column(k, "categorical", v, tuple(lv)) for k, (v, lv) in factors.items()}
    columns |= {name: Column(name, "numeric", v) for name, v in (("x", x), ("z", z))}
    columns["y"] = Column("y", "count", y)
    return Dataset(columns, n)


def _dense_loglik_score(spec, X, Z, block, tau):
    """Score and Hessian of the row ``block`` contracted against the dense
    designs X and Z (and tau * 1) by ``np.einsum``, block by block."""
    rows, *terms = block
    designs = [X.values.T, *([Z.values.T] if Z is not None else [])]
    if tau is not None:
        designs.append(np.full((1, rows.size), tau))
    k = len(designs)
    grad = np.concatenate([np.einsum("in,n->i", D, t) for D, t in zip(designs, terms)])
    blocks = [[None] * k for _ in range(k)]
    upper = [(a, b) for a in range(k) for b in range(a, k)]
    for (a, b), h in zip(upper, terms[k:]):
        blocks[a][b] = np.einsum("in,jn->ij", designs[a] * h, designs[b])
        blocks[b][a] = blocks[a][b].T
    H = np.block(blocks)
    if tau is not None:
        H[-1, -1] += grad[-1]
    return grad, H


class TestTermContraction:
    """The term-wise score and Hessian meet a dense contraction."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize(
        "covariates,refs,zero",
        [
            (["g"], {}, None),  # a factor with itself
            (["g", "h"], {}, None),  # two factors
            (["g", "x"], {}, None),  # a factor and a column
            (["x", "z"], {}, None),  # two columns
            (["g", "h", "x"], {"g": "g02", "h": "h1"}, None),  # reference overrides
            (["u", "x"], {}, None),  # level r never occurs: its column is zero
            # the count-zero block meets only the zero part's intercept
            (["g", "h", "x"], {}, []),
        ],
        ids=[
            "factor", "two-factors", "factor-column", "two-columns", "ref", "unused-level",
            "intercept-only-zero",
        ],
    )
    @pytest.mark.parametrize("family", ["poisson", "nb", "zinb"])
    def test_matches_the_dense_contraction(self, family, covariates, refs, zero, weighted):
        ds = _factor_sim(n=600, seed=31, g_levels=4)
        # unless given, the zero part takes the count part's covariates in
        # reverse order, so a factor meets itself and the other factor
        # across the parts
        zero = (covariates[::-1] if zero is None else zero) if family == "zinb" else []
        spec = ModelSpec(family, "y", covariates, zero, refs)
        made = {}
        X = design_terms(ds, covariates, refs, made)
        Z = design_terms(ds, zero, refs, made) if family == "zinb" else None
        dense_X = build_design(ds, covariates, refs)
        dense_Z = build_design(ds, zero, refs) if family == "zinb" else None
        rng = np.random.default_rng(32)
        params = ParamVector(
            rng.normal(0.0, 0.3, dense_X.n_cols),
            rng.normal(0.0, 0.3, dense_Z.n_cols) if Z is not None else np.empty(0),
            None if family == "poisson" else math.log(1.3),
        )
        w = rng.integers(1, 5, ds.n_rows).astype(np.float64) if weighted else 1.0
        counts = _kernels.Counts(ds.response_vector("y"))
        block = fitting._row_terms(spec, X, Z, counts, params) * w
        want = _dense_loglik_score(spec, dense_X, dense_Z, block, params.tau)
        ll, *got = fitting._loglik_score(spec, X, Z, counts, params, w)
        assert ll == float(np.sum(block[0]))
        for g, v in zip(got, want):
            assert g.shape == v.shape
            assert np.max(np.abs(g - v)) <= 1e-12 * np.max(np.abs(v))
        # the DesignMatrix's terms agree too: its "(intercept)" column is the
        # intercept term, and its other columns contract as columns
        dense_X, dense_Z = fitting._as_terms(dense_X), fitting._as_terms(dense_Z)
        got = fitting._loglik_score(spec, dense_X, dense_Z, _kernels.Counts(counts.y), params, w)
        for g, v in zip(got[1:], want):
            assert np.max(np.abs(g - v)) <= 1e-12 * np.max(np.abs(v))

    def test_only_a_first_all_ones_intercept_column_is_the_intercept(self):
        design = build_design(_factor_sim(n=50, seed=34), ["x"])
        kinds = [term.kind for term in fitting._as_terms(design)]
        assert kinds == ["intercept", "column"]
        for other in (
            DesignMatrix(design.values * [2.0, 1.0], design.labels),  # not all ones
            DesignMatrix(design.values, ["one", "x"]),  # not labelled "(intercept)"
            DesignMatrix(design.values[:, ::-1], design.labels[::-1]),  # not first
        ):
            assert [term.kind for term in fitting._as_terms(other)] == ["column", "column"]

    def test_a_fit_peaks_below_one_dense_design(self):
        # 1e5 distinct rows and a 64-level factor: the dense design alone
        # would take n * d * 8 bytes
        n = 100_000
        ds = _factor_sim(n=n, seed=33, g_levels=64)
        spec = ModelSpec("nb", "y", ["g", "x"])
        d = 1 + 63 + 1
        fit(spec, _factor_sim(n=2000, seed=34, g_levels=64))  # imports and warm-ups
        tracemalloc.start()
        try:
            res = fit(spec, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged and len(res.count_labels) == d
        assert peak < n * d * 8


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
        # one entry for the start and one per accepted step; a step whose
        # predicted gain f cannot resolve may lower f within its band, as the
        # last step of the seed-25 NB fit does
        for seed, family in ((23, "poisson"), (23, "nb"), (23, "zinb"), (25, "nb")):
            res = fit(ModelSpec(family, "y", ["x"]), _zinb_sim(n=2000, seed=seed))
            path = res.ll_path
            assert len(path) == res.n_iterations + 1, (seed, family)
            assert path[-1] == res.log_likelihood
            for before, after in zip(path, path[1:]):
                assert after >= before - optimize.REL_TOL * max(1.0, abs(before))

    def test_aic_identity(self):
        ds = _nb_sim(n=800, seed=25)
        res = fit(ModelSpec("nb", "y", ["x"]), ds)
        assert res.aic == pytest.approx(2 * res.n_free - 2 * res.log_likelihood)
        assert res.n_free == 3

    def test_expected_zero_fraction_returned(self):
        ds = _zinb_sim(n=2000, seed=26)
        res = fit(ModelSpec("zinb", "y", ["x"]), ds)
        assert res.expected_zero_fraction == pytest.approx(
            float((ds.response_vector("y") == 0).mean()), abs=0.03
        )

    def test_zero_probabilities_are_the_kernels_y0_terms(self):
        # eta up to ETA_MAX, p from ~1e-304 to 1 - 2e-16
        eta = np.linspace(-30.0, fitting.ETA_MAX - 0.5, 61)
        s = np.linspace(-700.0, 36.0, 61)
        X = fitting._as_terms(
            DesignMatrix(np.column_stack([np.ones(61), eta]), ["(intercept)", "eta"])
        )
        Z = fitting._as_terms(DesignMatrix(np.column_stack([np.ones(61), s]), ["(intercept)", "s"]))
        lam, p, y0 = np.exp(eta), 1.0 / (1.0 + np.exp(-s)), np.zeros(61)
        assert p[0] < 1e-300 and 1.0 - p[-1] < 1e-15
        poisson = ParamVector(np.array([0.0, 1.0]), np.empty(0), None)
        counts = _kernels.Counts(y0)
        np.testing.assert_allclose(
            fitting._zero_probabilities("poisson", X, None, counts, poisson),
            np.exp(-lam),
            rtol=1e-13,
        )
        for tau in (0.5, 1.5, 1e6):
            with np.errstate(over="ignore", invalid="ignore"):  # scores at eta -> ETA_MAX
                nb = np.exp(_kernels.nb_logpmf(y0, lam, tau))
                zinb = np.exp(_kernels.zinb_logpmf(y0, lam, p, tau))
            params = ParamVector(np.array([0.0, 1.0]), np.array([0.0, 1.0]), math.log(tau))
            np.testing.assert_allclose(
                fitting._zero_probabilities("nb", X, None, counts, params), nb, rtol=1e-13, atol=0
            )
            np.testing.assert_allclose(
                fitting._zero_probabilities("zinb", X, Z, counts, params), zinb, rtol=1e-13, atol=0
            )

    def test_heavy_tail_recipe_converges(self):
        # counts near 2000 with tau = 0.5: lgamma terms near 3e5 put the
        # objective's rounding noise far above one ulp of logL
        start = time.perf_counter()
        for seed in range(1, 9):
            config = SimConfig(
                n_rows=500,
                family="nb",
                covariates=[CovariateSpec("x", "numeric", low=-1.0, high=1.0)],
                true_beta={"(intercept)": math.log(2000.0), "x": 0.5},
                true_tau=0.5,
                seed=seed,
            )
            res = fit(ModelSpec("nb", "y", ["x"]), simulate(config))
            assert res.converged, (seed, res.message, res.gradient_norm)
        assert time.perf_counter() - start < 10.0

    @pytest.mark.parametrize("family", ["poisson", "nb", "zinb"])
    def test_one_optimizer_run_per_fit(self, family, monkeypatch):
        real = fitting.maximize_newton
        runs = []

        def counted(*args):
            runs.append(args)
            return real(*args)

        monkeypatch.setattr(fitting, "maximize_newton", counted)
        res = fit(ModelSpec(family, "y", ["x"]), _zinb_sim(n=500, seed=27))
        assert res.converged
        assert len(runs) == 1

    @pytest.mark.parametrize("family", ["poisson", "nb", "zinb"])
    def test_the_start_point_is_evaluated_once(self, family, monkeypatch):
        spec, ds = ModelSpec(family, "y", ["x"]), _zinb_sim(n=500, seed=27)
        problem = _Problem(spec, ds, FitOptions())
        x0 = problem.to_params(problem.start())
        real = fitting._loglik_score
        points = []

        def recorded(spec, X, Z, counts, params, *args):
            points.append((params.beta.copy(), params.gamma.copy(), params.log_tau))
            return real(spec, X, Z, counts, params, *args)

        monkeypatch.setattr(fitting, "_loglik_score", recorded)
        assert fit(spec, ds).converged
        at_start = [
            np.array_equal(beta, x0.beta) and np.array_equal(gamma, x0.gamma)
            and log_tau == x0.log_tau
            for beta, gamma, log_tau in points
        ]
        assert at_start[0] and sum(at_start) == 1

    def test_raw_units_zinb_with_a_vanishing_zero_part_converges(self):
        # NB data, so the ZINB zero part on g runs off towards p = 0 along a
        # flat ridge; with x in raw units too the ascent must still meet the
        # gradient rule there
        config = SimConfig(
            n_rows=2000,
            family="nb",
            covariates=[
                CovariateSpec(
                    "g", "categorical", levels=("a", "b", "c", "d"),
                    probabilities=(0.4, 0.3, 0.2, 0.1),
                ),
                CovariateSpec("x", "numeric", low=-1.0, high=1.0),
            ],
            true_beta={"(intercept)": 0.5, "g=b": -0.4, "g=c": 0.3, "g=d": 0.6, "x": 0.5},
            true_tau=1.5,
            seed=83,
        )
        ds = simulate(config)
        spec = ModelSpec("zinb", "y", ["g", "x"], ["g"])
        unit = fit(spec, ds)
        ds.columns["x"].values[:] = ds.columns["x"].values * 1e4 + 5e4
        raw = fit(spec, ds)
        assert unit.converged and raw.converged, raw.message
        assert raw.gradient_norm < 1e-6
        assert raw.log_likelihood == pytest.approx(unit.log_likelihood, rel=1e-10)

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


class TestNewtonAscent:
    def test_halving_stops_once_the_step_no_longer_moves_x(self):
        # a flat objective whose gradient never vanishes: no step gains, and
        # from x = 1e12 a step of 1e-3 is lost to rounding within 6 halvings
        trials = []

        def objective(x):
            trials.append(float(x[0]))
            return 0.0, np.array([1e-3]), np.array([[-1.0]])

        x0 = np.array([1e12])
        res = fitting.maximize_newton(objective, x0, objective(x0))
        assert not res.converged
        assert res.message == "stopped at the objective's float resolution"
        assert 1 < len(trials) <= 7
        assert 1e12 not in trials[1:]

    def test_a_step_with_no_admissible_trial_says_so(self):
        # a near-zero curvature sends the step to -1e30: every halving lands
        # at |x| >= 1.7e12, outside the objective's domain |x| <= 1
        trials = []

        def objective(x):
            trials.append(float(x[0]))
            if abs(x[0]) > 1.0:
                return -math.inf, np.zeros(1), np.zeros((1, 1))
            return -x[0] ** 2, -2.0 * x, np.array([[-1e-30]])

        x0 = np.array([0.5])
        res = fitting.maximize_newton(objective, x0, objective(x0))
        assert not res.converged
        assert res.n_iter == 0 and res.x[0] == 0.5
        assert res.message == "no admissible point found along the step"
        assert len(trials) == 1 + MAX_HALVINGS
        assert min(abs(t) for t in trials[1:]) > 1e12

    def test_iteration_cap_ends_the_ascent_unconverged(self, monkeypatch):
        ds = _nb_sim(n=2000, seed=27)
        assert fit(ModelSpec("nb", "y", ["x"]), ds).n_iterations > 2
        monkeypatch.setattr(optimize, "MAX_ITER", 2)
        res = fit(ModelSpec("nb", "y", ["x"]), ds)
        assert not res.converged
        assert res.n_iterations == 2
        assert res.message == "iteration cap 2 reached"


class TestFarTrialPoints:
    def test_line_search_overflow_leaves_no_warnings(self):
        # ZINB with a zero part on NB data without zero inflation: the ascent
        # drives the zero intercept to about -37 and its line search tries
        # points whose lam * (y + tau) overflows
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
            seed=700,
        )
        ds = simulate(config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(ModelSpec("zinb", "y", ["g", "h"], ["g"]), ds)
        assert res.converged
        assert res.estimates.gamma[0] < -30


def _grouped_sim(n=20_000, seed=91):
    """ZINB counts on two categoricals: n rows, at most 6 * (max y + 1) patterns."""
    config = SimConfig(
        n_rows=n,
        family="zinb",
        covariates=[
            CovariateSpec(
                "g", "categorical", levels=("a", "b", "c"), probabilities=(0.5, 0.3, 0.2)
            ),
            CovariateSpec("h", "categorical", levels=("p", "q"), probabilities=(0.6, 0.4)),
        ],
        true_beta={"(intercept)": 0.4, "g=b": 0.3, "g=c": -0.2, "h=q": 0.25},
        true_gamma={"(intercept)": -1.0, "g=b": 0.5, "g=c": -0.5},
        zero_covariates=["g"],
        true_tau=1.5,
        seed=seed,
    )
    return simulate(config)


GROUPED_SPECS = {
    "nb": ModelSpec("nb", "y", ["g", "h"]),
    "zinb": ModelSpec("zinb", "y", ["g", "h"], ["g"]),
}


def _row_patterns_reference(columns):
    """The pattern scan with a return_inverse ``np.unique`` on every column."""
    n = columns[0].size
    key, size = np.zeros(n, dtype=np.int64), 1
    for column in columns:
        values, codes = np.unique(column, return_inverse=True)
        if values.size == n:
            return None
        if values.size == 1:
            continue
        key = key * values.size + codes
        size *= values.size
        if size > n:
            distinct, key = np.unique(key, return_inverse=True)
            size = distinct.size
            if size == n:
                return None
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    return None if first.size == n else (first, counts)


class TestRowPatterns:
    """Fits run once per distinct (y, x, z) row, weighted by its count."""

    def test_scan_matches_the_reference(self):
        rng = np.random.default_rng(99)
        factor_levels = tuple("abcdefg")
        kinds = {
            "count": lambda n: Column("c", "count", rng.integers(0, 6, n)),
            # max + 1 > n unless every draw is 0: the codes come from np.unique
            "spread count": lambda n: Column("c", "count", rng.integers(0, 3, n) * (n + 5)),
            "float count": lambda n: Column("c", "count", rng.integers(0, 6, n).astype(np.float64)),
            "distinct count": lambda n: Column("c", "count", rng.permutation(n)),
            "constant count": lambda n: Column("c", "count", np.full(n, 4)),
            # levels b, d and g never occur; int32 codes
            "factor": lambda n: Column(
                "f", "categorical", rng.choice([0, 2, 4, 5], n).astype(np.int32), factor_levels
            ),
            "dummy": lambda n: Column("x", "numeric", (rng.random(n) < 0.3).astype(np.float64)),
            "float": lambda n: Column(
                "x", "numeric", rng.choice(rng.normal(size=max(n // 3, 1)), n)
            ),
            "signed zero": lambda n: Column("x", "numeric", rng.choice([-0.0, 0.0, 1.0], n)),
            "constant": lambda n: Column("x", "numeric", np.ones(n)),
            "distinct": lambda n: Column("x", "numeric", rng.permutation(n).astype(np.float64)),
        }
        names = list(kinds)
        sizes = [1] * 20 + [int(n) for n in rng.integers(2, 300, 300)]
        for trial, n in enumerate(sizes):
            picked = rng.choice(names, int(rng.integers(1, 5)))
            columns = [kinds[name](n) for name in picked]
            want = _row_patterns_reference([np.asarray(c.values, np.float64) for c in columns])
            got = fitting._row_patterns(columns)
            assert (got is None) == (want is None), (trial, picked)
            if want is not None:
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)

    def test_paper_like_fit_sorts_nothing(self, monkeypatch):
        # the preset's key is y alone, whose counts index their own table
        ds = simulate(demo_preset())
        calls = []
        for name in ("unique", "searchsorted"):
            original = getattr(np, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        res = fit(ModelSpec("nb", "y"), ds)
        assert res.converged
        assert calls == []

    @pytest.mark.parametrize("family", ["poisson", "nb", "zinb"])
    def test_count_and_numeric_digits_give_the_same_fit(self, family):
        # a count covariate takes its digits from its own table; declared
        # numeric, the same values take them from a float sort
        ds = _grouped_sim(n=5000, seed=95)
        k = np.random.default_rng(96).poisson(1.0, ds.n_rows)
        base = GROUPED_SPECS.get(family, ModelSpec("poisson", "y", ["g", "h"]))
        spec = replace(base, count_covariates=[*base.count_covariates, "k"])
        datasets = [
            Dataset({**ds.columns, "k": column}, ds.n_rows)
            for column in (Column("k", "count", k), Column("k", "numeric", k.astype(np.float64)))
        ]
        assert _Problem(spec, datasets[0], FitOptions()).counts.y.size < 1000
        a, b = (fit(spec, d) for d in datasets)
        assert a.converged
        for got, want in (
            (b.estimates.beta, a.estimates.beta),
            (b.estimates.gamma, a.estimates.gamma),
            (b.covariance, a.covariance),
        ):
            assert got.tobytes() == want.tobytes()
        assert b.estimates.log_tau == a.estimates.log_tau
        assert b.log_likelihood == a.log_likelihood
        assert b.n_iterations == a.n_iterations
        assert b.expected_zero_fraction == a.expected_zero_fraction

    @staticmethod
    def _rows_per_call(monkeypatch, family):
        name = f"{family}_loglik_score"
        kernel = getattr(_kernels, name)
        sizes = []

        def counted(counts, *args):
            sizes.append(counts.y.size)
            return kernel(counts, *args)

        monkeypatch.setattr(_kernels, name, counted)
        return sizes

    def test_paper_like_fit_runs_on_patterns(self, monkeypatch):
        sizes = self._rows_per_call(monkeypatch, "nb")
        ds = simulate(demo_preset())
        res = fit(ModelSpec("nb", "y"), ds)
        assert res.converged
        assert res.n_obs == ds.n_rows == 100_000
        assert res.expected_zero_fraction == pytest.approx(
            float((ds.response_vector("y") == 0).mean()), abs=0.03
        )
        assert sizes and max(sizes) <= 12

    def test_distinct_rows_are_fitted_as_given(self, monkeypatch):
        sizes = self._rows_per_call(monkeypatch, "zinb")
        ds = _zinb_sim(n=2000, seed=92)
        assert fit(ModelSpec("zinb", "y", ["x"]), ds).converged
        assert sizes and set(sizes) == {2000}

    def test_start_point_error_names_the_row(self):
        # the failing pattern is not pattern 7; the error must name row 7
        y = np.tile([0, 1, 2, 3], 5).astype(np.int64)
        x = np.tile([0.0, 1.0], 10)
        x[7] = math.nan
        ds = Dataset(
            {"y": Column("y", "count", y), "x": Column("x", "numeric", x)}, n_rows=20
        )
        with pytest.raises(EvaluationError) as err:
            fit(ModelSpec("nb", "y", ["x"]), ds)
        assert err.value.row == 7

    @staticmethod
    def _record_term_rows(monkeypatch):
        """The row count of each dataset the fitter builds its terms on."""
        rows, terms = [], fitting.design_terms

        def recorded(ds, *args):
            rows.append(ds.n_rows)
            return terms(ds, *args)

        monkeypatch.setattr(fitting, "design_terms", recorded)
        return rows

    def test_designs_are_built_on_the_patterns(self, monkeypatch):
        rows = self._record_term_rows(monkeypatch)
        ds = _grouped_sim(n=5000, seed=93)
        res = fit(GROUPED_SPECS["zinb"], ds)
        assert res.converged and res.n_obs == 5000
        # one count-part and one zero-part design, each on the patterns
        assert len(rows) == 2 and rows[0] == rows[1] < 100

    @staticmethod
    def _nan_dataset(nan_rows):
        """The recipe of `test_start_point_error_names_the_row`, NaN at ``nan_rows``."""
        y = np.tile([0, 1, 2, 3], 5).astype(np.int64)
        x = np.tile([0.0, 1.0], 10)
        x[nan_rows] = math.nan
        return Dataset(
            {"y": Column("y", "count", y), "x": Column("x", "numeric", x)}, n_rows=20
        )

    @pytest.mark.parametrize("family", ["poisson", "nb", "zinb"])
    def test_start_point_error_names_the_least_failing_row(self, family):
        spec, ds = ModelSpec(family, "y", ["x"]), self._nan_dataset([3, 9])
        problem = _Problem(spec, ds, FitOptions())
        # in key order, pattern (NaN, y=1), first seen at row 9, comes before
        # pattern (NaN, y=3), first seen at row 3
        assert list(problem.first[np.isnan(problem.X[1].values)]) == [9, 3]
        with pytest.raises(EvaluationError) as err:
            fit(spec, ds)
        assert err.value.row == 3
        assert str(err.value) == "count-part linear predictor is not finite or above 700 (row 3)"

    @pytest.mark.parametrize("family", ["poisson", "nb", "zinb"])
    def test_an_unevaluable_start_builds_designs_on_the_patterns(self, family, monkeypatch):
        rows = self._record_term_rows(monkeypatch)
        with pytest.raises(EvaluationError) as err:
            fit(ModelSpec(family, "y", ["x"]), self._nan_dataset([7]))
        assert err.value.row == 7
        assert rows and max(rows) < 20

    def test_zero_part_start_error_names_the_row(self):
        ds = self._nan_dataset([])
        z = np.tile([0.0, 1.0, 2.0], 7)[:20]
        z[11] = math.inf
        ds.columns["z"] = Column("z", "numeric", z)
        with pytest.raises(EvaluationError) as err:
            fit(ModelSpec("zinb", "y", ["x"], ["z"]), ds)
        assert str(err.value) == "zero-part linear predictor is not finite (row 11)"

    def test_a_non_finite_start_log_likelihood_is_named(self, monkeypatch):
        monkeypatch.setattr(
            fitting, "_loglik_score", lambda *args: (math.nan, np.zeros(3), np.eye(3))
        )
        with pytest.raises(EvaluationError) as err:
            fit(ModelSpec("nb", "y", ["x"]), _ll6_dataset())
        assert str(err.value) == "log-likelihood is nan at the starting point"

    @pytest.mark.parametrize(
        "spec,message",
        [
            (
                ModelSpec("nb", "y", ["nosuch", "g"], reference_levels={"g": "zed"}),
                "reference level 'zed' not in vocabulary of 'g': ('a', 'b', 'c')",
            ),
            (
                ModelSpec("nb", "y", ["g"], reference_levels={"h": "zed", "nosuch": "a"}),
                "reference level 'zed' not in vocabulary of 'h': ('p', 'q')",
            ),
            (
                ModelSpec("nb", "y", ["g"], reference_levels={"nosuch": "a"}),
                "no column named 'nosuch'",
            ),
            (ModelSpec("nb", "g", ["nosuch"]), "response column 'g' must be of kind 'count'"),
            (ModelSpec("nb", "nosuch", ["g"]), "no column named 'nosuch'"),
            (ModelSpec("zinb", "y", ["h", "nosuch"], ["other"]), "no column named 'nosuch'"),
            (ModelSpec("zinb", "y", ["g", "h"], ["other"]), "no column named 'other'"),
        ],
    )
    def test_the_first_bad_name_wins_when_rows_repeat(self, spec, message):
        with pytest.raises(SchemaError) as err:
            fit(spec, _grouped_sim(n=500, seed=93))
        assert str(err.value) == message

    @pytest.mark.parametrize("family", ["nb", "zinb"])
    def test_full_rows_meet_the_criterion(self, family):
        ds = _grouped_sim()
        spec = GROUPED_SPECS[family]
        res = fit(spec, ds)
        X = build_design(ds, spec.count_covariates)
        Z = build_design(ds, spec.zero_covariates) if family == "zinb" else None
        y = ds.response_vector("y")
        assert _Problem(spec, ds, FitOptions()).counts.y.size < 100
        assert res.converged, res.message
        ll = log_likelihood(spec, X, Z, y, res.estimates)
        assert ll == pytest.approx(res.log_likelihood, rel=1e-12)
        g = gradient(spec, X, Z, y, res.estimates)
        assert float(np.max(np.abs(g))) < 1e-6

    @pytest.mark.parametrize("family", ["nb", "zinb"])
    def test_row_order_does_not_matter(self, family):
        ds = _grouped_sim(n=5000, seed=93)
        perm = np.random.default_rng(94).permutation(ds.n_rows)
        shuffled = Dataset(
            {
                name: Column(name, col.kind, col.values[perm], col.levels)
                for name, col in ds.columns.items()
            },
            n_rows=ds.n_rows,
        )
        a = fit(GROUPED_SPECS[family], ds)
        b = fit(GROUPED_SPECS[family], shuffled)
        assert a.converged and b.converged
        for got, want in (
            (b.estimates.beta, a.estimates.beta),
            (b.estimates.gamma, a.estimates.gamma),
            ([b.estimates.log_tau], [a.estimates.log_tau]),
        ):
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=0)
        assert b.expected_zero_fraction == pytest.approx(a.expected_zero_fraction, rel=1e-12)

    @pytest.mark.parametrize("family", ["poisson", "nb", "zinb"])
    def test_expected_zero_fraction_is_the_full_row_mean(self, family):
        ds = _grouped_sim()
        spec = GROUPED_SPECS.get(family, ModelSpec("poisson", "y", ["g", "h"]))
        res = fit(spec, ds)
        X = fitting._as_terms(build_design(ds, spec.count_covariates))
        Z = fitting._as_terms(build_design(ds, spec.zero_covariates)) if family == "zinb" else None
        counts = _kernels.Counts(ds.response_vector(spec.response))
        full = np.mean(fitting._zero_probabilities(family, X, Z, counts, res.estimates))
        assert res.expected_zero_fraction == pytest.approx(full, rel=1e-12)


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


class TestAffineRescaling:
    """A covariate in raw units (x * 1e4 + 5e4) spans the same model."""

    @pytest.fixture(scope="class", params=["poisson", "nb", "zinb"])
    def unit_and_raw_fits(self, request):
        """(seed, unit-scale fit, raw-units fit) for seeds 81-90."""
        spec = ModelSpec(request.param, "y", ["g", "x"])
        fits = []
        for seed in range(81, 91):
            config = SimConfig(
                n_rows=2000,
                family="zinb",
                covariates=[
                    CovariateSpec(
                        "g",
                        "categorical",
                        levels=("a", "b", "c", "d"),
                        probabilities=(0.4, 0.3, 0.2, 0.1),
                    ),
                    CovariateSpec("x", "numeric", low=-1.0, high=1.0),
                ],
                true_beta={
                    "(intercept)": 0.5, "g=b": -0.4, "g=c": 0.3, "g=d": 0.6, "x": 0.5
                },
                true_gamma={"(intercept)": -1.0},
                true_tau=1.5,
                seed=seed,
            )
            ds = simulate(config)
            unit = fit(spec, ds)
            ds.columns["x"].values[:] = ds.columns["x"].values * 1e4 + 5e4
            fits.append((seed, unit, fit(spec, ds)))
        return fits

    def test_raw_units_covariate_fits_the_same_model(self, unit_and_raw_fits):
        for seed, unit, raw in unit_and_raw_fits:
            assert unit.converged and raw.converged, (seed, raw.message)
            assert raw.log_likelihood == pytest.approx(unit.log_likelihood, rel=1e-10)
            assert raw.estimates.beta[-1] * 1e4 == pytest.approx(
                unit.estimates.beta[-1], rel=1e-6
            )
            assert raw.covariance_error is None

    def test_raw_units_covariate_has_the_same_standard_error(self, unit_and_raw_fits):
        # the covariance must not depend on the units of a design column
        for seed, unit, raw in unit_and_raw_fits:
            assert raw.std_error("x") * 1e4 == pytest.approx(
                unit.std_error("x"), rel=1e-3
            ), seed


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

    def test_nb_at_log_tau_240_is_poisson(self):
        # rows past the count table take a series in 1/(y + tau); at
        # tau ~ 1e104 no power of tau may overflow
        y = np.array([0, 3, 5000, 100_000], dtype=np.int64)
        x = np.log([0.5, 2.0, 4900.0, 1.01e5])
        ds = Dataset(
            {"y": Column("y", "count", y), "x": Column("x", "numeric", x)}, n_rows=4
        )
        X = build_design(ds, ["x"])
        beta = np.array([0.0, 1.0])
        yf, lam = y.astype(float), np.exp(x)
        rows = _kernels.nb_logpmf(yf, lam, math.exp(240.0))
        # the Poisson row summed in the kernel's order: log(y!) terms near 4e4
        # cancel to rows near -6, so another order differs by their rounding
        np.testing.assert_allclose(
            rows, -_kernels.Counts(yf).log_fact - lam + yf * x, rtol=1e-12, atol=0
        )
        nb = ParamVector(beta, np.empty(0), 240.0)
        pois = ParamVector(beta, np.empty(0), None)
        ll = log_likelihood(ModelSpec("nb", "y", ["x"]), X, None, y, nb)
        assert ll == pytest.approx(
            log_likelihood(ModelSpec("poisson", "y", ["x"]), X, None, y, pois), rel=1e-12
        )
        assert np.all(np.isfinite(gradient(ModelSpec("nb", "y", ["x"]), X, None, y, nb)))

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
    @pytest.mark.parametrize("seed", range(40, 60))
    @pytest.mark.parametrize("family", ["poisson", "nb", "zinb"])
    def test_collinear_design_flags_covariance(self, family, seed):
        # the negative Hessian of an exact duplicate is singular up to
        # rounding noise of either sign, so only an eigenvalue tolerance
        # flags them all
        rng = np.random.default_rng(seed)
        x = rng.normal(size=300)
        mu = np.exp(0.3 + 0.5 * x)
        y = rng.negative_binomial(1.5, 1.5 / (1.5 + mu)).astype(np.int64)
        ds = Dataset(
            {
                "y": Column("y", "count", y),
                "x": Column("x", "numeric", x),
                "x_dup": Column("x_dup", "numeric", x.copy()),
            },
            n_rows=300,
        )
        res = fit(ModelSpec(family, "y", ["x", "x_dup"]), ds)
        assert res.covariance is None
        assert "eigenvalues" in res.covariance_error
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
