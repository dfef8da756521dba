"""Maximum-likelihood fitting for Poisson, NB, and ZINB regression.

Mean model: log(lam_i) = x_i' beta.  Zero model (ZINB): logit(p_i) = z_i' gamma.
The shape parameter is optimized as log_tau so positivity needs no constraint.
NB and ZINB likelihood terms go through the same pmf kernels as the
distributions module, so likelihood and pmf cannot drift apart; the expected
zero fraction is the mean of the kernels' y = 0 terms, in closed form over
the row patterns.

A fit runs on the distinct (y, x, z) row patterns, each weighted by its
count: with categorical or count covariates the likelihood depends on the
rows only through those patterns, so the weighted sums are the full-data
likelihood and score, exact to rounding.  Where every row is distinct, the
patterns are the rows in their given order with unit weights.

Designs are column-major, as `build_design` returns them: the fitter takes
each design transposed, one contiguous row per column, and the per-row sums
of the gradient and Hessian are ``np.einsum`` contractions along those rows.
Their summation order, like that of the numpy reductions, does not depend
on the BLAS thread count, so repeated fits on identical input are
bit-identical.  A row-major design gives the same sums to rounding, only
more slowly.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import _kernels
from .data import Dataset, DesignMatrix, ModelSpec, build_design
from .distributions import TAU_MIN
from .errors import (
    ComparisonError,
    CountregError,
    DegenerateCovariateError,
    EvaluationError,
    InsufficientDataError,
    ParameterDomainError,
    SchemaError,
)
from .optimize import equilibrated_eigh, maximize_newton
from .report import stars_for_p

ETA_MAX = 700.0  # exp overflows just past 709; flag a little earlier

FAMILIES = ("poisson", "nb", "zinb")


@dataclass
class ParamVector:
    """Free parameters: count-part beta, zero-part gamma, and log(tau)."""

    beta: np.ndarray
    gamma: np.ndarray  # size 0 unless zinb
    log_tau: float | None  # None for poisson

    @property
    def tau(self) -> float | None:
        return None if self.log_tau is None else math.exp(self.log_tau)


@dataclass
class FitOptions:
    # pin parts of the parameter vector (profile fits, nesting checks)
    fix_log_tau: float | None = None
    fix_gamma: np.ndarray | None = None


@dataclass
class FitResult:
    family: str
    estimates: ParamVector
    count_labels: list[str]
    zero_labels: list[str]
    free_labels: list[str]
    covariance: np.ndarray | None
    covariance_error: str | None
    log_likelihood: float
    n_obs: int
    n_iterations: int
    converged: bool
    gradient_norm: float
    message: str
    ll_path: list = field(repr=False, default_factory=list)
    expected_zero_fraction: float | None = None  # mean fitted P(y = 0)

    @property
    def n_free(self) -> int:
        return len(self.free_labels)

    @property
    def aic(self) -> float:
        return 2.0 * self.n_free - 2.0 * self.log_likelihood

    def std_error(self, label: str) -> float:
        """SE of a free coefficient by its free-label ('zero:' prefix for gamma)."""
        if self.covariance is None or label not in self.free_labels:
            return math.nan
        i = self.free_labels.index(label)
        var = self.covariance[i, i]
        return math.sqrt(var) if var >= 0.0 else math.nan


def _check_finite_params(params: ParamVector):
    if not np.all(np.isfinite(params.beta)):
        raise ParameterDomainError("non-finite count-part coefficient")
    if params.gamma.size and not np.all(np.isfinite(params.gamma)):
        raise ParameterDomainError("non-finite zero-part coefficient")
    if params.log_tau is not None and not math.isfinite(params.log_tau):
        raise ParameterDomainError("non-finite log_tau")


LOG_TAU_MIN = math.log(TAU_MIN)
LOG_TAU_MAX = 700.0  # math.exp raises beyond ~709


def _tau_of(params: ParamVector) -> float:
    if not LOG_TAU_MIN < params.log_tau <= LOG_TAU_MAX:
        raise ParameterDomainError(f"shape exp({params.log_tau}) outside (1e-10, inf)")
    return math.exp(params.log_tau)


def _count_predictor(X: DesignMatrix, beta: np.ndarray) -> np.ndarray:
    eta = X.values @ beta
    bad = ~np.isfinite(eta) | (eta > ETA_MAX)
    if np.any(bad):
        raise EvaluationError(
            f"count-part linear predictor is not finite or above {ETA_MAX:g}",
            int(np.argmax(bad)),
        )
    return eta

def _zero_predictor(Z: DesignMatrix, gamma: np.ndarray) -> np.ndarray:
    s = Z.values @ gamma
    bad = ~np.isfinite(s)
    if np.any(bad):
        raise EvaluationError("zero-part linear predictor is not finite", int(np.argmax(bad)))
    return s


def _row_terms(spec, X, Z, counts, params, hessian=False) -> tuple:
    """Row log pmfs, the row derivatives in eta, logit(p) and tau (then,
    with ``hessian``, the upper triangle of their second derivatives), and
    the transposed designs [X', Z', tau * 1'] those derivatives meet, for
    the family of ``spec`` at ``params``."""
    _check_finite_params(params)
    y = counts.y
    eta = _count_predictor(X, params.beta)
    lam = np.exp(eta)
    designs = [X.values.T]
    if spec.family == "poisson":
        rows = y * eta - lam - counts.log_fact
        terms = [y - lam, -lam]
    else:
        tau = _tau_of(params)
        if spec.family == "nb":
            rows, *terms = _kernels.nb_loglik_score(counts, lam, tau, hessian)
        else:
            p = expit(_zero_predictor(Z, params.gamma))
            rows, *terms = _kernels.zinb_loglik_score(counts, lam, p, tau, hessian)
            designs.append(Z.values.T)
        designs.append(np.full((1, y.size), tau))
    return rows, terms, designs


def _loglik_score(
    spec: ModelSpec,
    X: DesignMatrix,
    Z: DesignMatrix | None,
    counts: _kernels.Counts,
    params: ParamVector,
    w: np.ndarray | float = 1.0,
    hessian: bool = False,
) -> tuple:
    """Log-likelihood and its analytic gradient, and with ``hessian`` its
    analytic Hessian, from one pass over the rows.

    Row ``i`` counts ``w[i]`` times: the number of observations that share
    its (y, x, z) pattern, or 1 for every row.  Gradient layout matches the
    family: [beta] for poisson, [beta, log_tau] for nb, [beta, gamma,
    log_tau] for zinb.  The row derivatives in eta, logit(p) and tau meet
    the designs [X, Z, tau * 1] block by block; the log-tau chain term,
    tau * dl/dtau, joins the last diagonal entry.
    """
    rows, terms, designs = _row_terms(spec, X, Z, counts, params, hessian)
    k = len(designs)
    ll = float(np.sum(w * rows))
    grad = np.concatenate([np.einsum("in,n->i", D, w * t) for D, t in zip(designs, terms)])
    if not hessian:
        return ll, grad
    blocks = [[None] * k for _ in range(k)]
    upper = [(a, b) for a in range(k) for b in range(a, k)]
    for (a, b), h in zip(upper, terms[k:]):
        blocks[a][b] = np.einsum("in,jn->ij", designs[a] * (w * h), designs[b])
        blocks[b][a] = blocks[a][b].T
    H = np.block(blocks)
    if spec.family != "poisson":
        H[-1, -1] += grad[-1]
    return ll, grad, H


def log_likelihood(spec, X, Z, y, params) -> float:
    """Sum of per-observation log pmfs under the family of ``spec``."""
    return float(np.sum(_row_terms(spec, X, Z, _kernels.Counts(y), params)[0]))


def gradient(spec, X, Z, y, params) -> np.ndarray:
    """Analytic gradient of the log-likelihood, laid out as in `_loglik_score`."""
    return _loglik_score(spec, X, Z, _kernels.Counts(y), params)[1]


def _zero_probabilities(family, X, Z, params) -> np.ndarray:
    """P(y = 0) per row of the designs at ``params``, in closed form:
    exp(-lam) for poisson, P_NB(0) = exp(-tau log1p(lam / tau)), the NB
    kernel's y = 0 row, for nb, and p + (1 - p) P_NB(0) for zinb."""
    lam = np.exp(np.clip(X.values @ params.beta, None, ETA_MAX))
    if family == "poisson":
        return np.exp(-lam)
    tau = params.tau
    p0 = np.exp(-tau * np.log1p(lam / tau))
    if family == "nb":
        return p0
    p = expit(Z.values @ params.gamma)
    return p + (1.0 - p) * p0


def _row_patterns(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct rows of equal-length ``columns``: the index of each
    pattern's first row and the pattern's count, or None if every row is
    distinct.

    A column's distinct values come from a plain 1-D ``np.unique``: a column
    with a distinct value per row ends the scan and a constant one is
    skipped.  Each other column adds its codes, the positions of its values
    among the distinct ones, to one mixed-radix int64 key, which is re-coded
    whenever its range passes the row count; a key with a distinct value per
    row ends the scan too.  One counting pass over the final key gives each
    pattern's count and first row.  Patterns come in key order, which does
    not depend on the row order.
    """
    n = columns[0].size
    key, size = np.zeros(n, dtype=np.int64), 1
    for column in columns:
        values = np.unique(column)
        if values.size == n:
            return None
        if values.size == 1:
            continue
        key = key * values.size + np.searchsorted(values, column)
        size *= values.size
        if size > n:
            distinct, key = np.unique(key, return_inverse=True)
            size = distinct.size
            if size == n:
                return None
    counts = np.bincount(key)
    first = np.full(counts.size, n)
    np.minimum.at(first, key, np.arange(n))
    first, counts = first[counts > 0], counts[counts > 0]
    return None if first.size == n else (first, counts)


class _Problem:
    """Maps the optimizer's free vector onto a full ParamVector and back.

    ``theta`` is the full vector [beta, gamma, log_tau] in the gradient's
    layout, holding the pinned entries of ``FitOptions``; ``mask`` marks
    the free ones.  The objective runs over the distinct (y, x, z) rows,
    each weighted by how often it occurs, which is the full-data likelihood
    exactly.  Where every row is distinct the rows are used as given, with
    unit weights.
    """

    def __init__(self, spec, X, Z, y, options):
        self.spec = spec
        y = np.asarray(y, dtype=np.float64)
        self.n_obs = y.size
        designs = [X, Z] if spec.family == "zinb" else [X]
        table = _row_patterns([*(c for D in designs for c in D.values.T), y])
        if table is None:
            self.w = np.ones(y.size)
        else:
            first, counts = table
            # taken along the transpose, so the pattern designs stay column-major
            X, y = DesignMatrix(X.values.T.take(first, axis=1).T, X.labels), y[first]
            if Z is not None:
                Z = DesignMatrix(Z.values.T.take(first, axis=1).T, Z.labels)
            self.w = counts.astype(np.float64)
        self.X, self.Z = X, Z
        # parameter-free, so prepared once rather than on every evaluation
        self.counts = _kernels.Counts(y)
        self.d = X.n_cols
        self.q = Z.n_cols if spec.family == "zinb" else 0
        self.labels = list(X.labels)
        if self.q:
            self.labels += [f"zero:{lab}" for lab in Z.labels]
        if spec.family != "poisson":
            self.labels.append("log_tau")
        self.theta = np.zeros(len(self.labels))
        self.mask = np.ones(self.theta.size, dtype=bool)
        if options.fix_gamma is not None:
            fixed = np.asarray(options.fix_gamma, dtype=np.float64)
            if fixed.shape != (self.q,):
                raise SchemaError(
                    f"fix_gamma has shape {fixed.shape}, zero design has {self.q} columns"
                )
            self.theta[self.d : self.d + self.q] = fixed
            self.mask[self.d : self.d + self.q] = False
        if options.fix_log_tau is not None and spec.family != "poisson":
            self.theta[-1] = options.fix_log_tau
            self.mask[-1] = False

    def to_params(self, free: np.ndarray) -> ParamVector:
        theta = self.theta.copy()
        theta[self.mask] = free
        log_tau = None if self.spec.family == "poisson" else float(theta[-1])
        return ParamVector(theta[: self.d], theta[self.d : self.d + self.q], log_tau)

    def free_labels(self) -> list[str]:
        return [lab for lab, free in zip(self.labels, self.mask) if free]

    def objective(self, theta):
        """Log-likelihood, free gradient and free Hessian, or -inf (with
        zeros) where any of them is not finite or cannot be evaluated."""
        free = self.mask
        try:
            # a trial point far out (tau or lam near overflow, p -> 1) may
            # produce inf or nan; such a point is inadmissible
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                ll, grad, hess = _loglik_score(
                    self.spec, self.X, self.Z, self.counts, self.to_params(theta), self.w,
                    hessian=True,
                )
        except CountregError:
            pass
        else:
            grad, hess = grad[free], hess[np.ix_(free, free)]
            if math.isfinite(ll) and np.all(np.isfinite(grad)) and np.all(np.isfinite(hess)):
                return ll, grad, hess
        k = int(free.sum())
        return -math.inf, np.zeros(k), np.zeros((k, k))

    def start(self) -> np.ndarray:
        """Free vector of the single start point, shared by every family.

        beta is zero but for the intercept at log(mean(y) + 0.1), log_tau is
        0 unless pinned, and the zero-part intercept is the logit of the
        empirical excess-zero fraction over what the NB count part explains
        there.
        """
        y, d, theta = self.counts.y, self.d, self.theta.copy()
        theta[0] = math.log(float(self.w @ y) / self.n_obs + 0.1)
        if self.q and self.mask[d]:
            tau = math.exp(theta[-1])
            implied = math.exp(-tau * math.log1p(math.exp(theta[0]) / tau))
            excess = max(float(self.w @ (y == 0)) / self.n_obs - implied, 0.01)
            theta[d] = math.log(excess) - math.log1p(-excess)
        return theta[self.mask]


def fit(spec: ModelSpec, ds: Dataset, options: FitOptions | None = None) -> FitResult:
    """Maximize the likelihood by one Newton ascent over the row patterns.

    Every family starts from the same point (`_Problem.start`).  The
    covariance is the inverse of the analytic negative Hessian at the
    optimum, through one eigendecomposition of that matrix scaled to a unit
    diagonal.  When the scaled matrix's smallest eigenvalue is not above
    ``size * eps`` times its largest (numpy's ``matrix_rank`` tolerance),
    the estimates are still returned with the covariance flagged
    unavailable.  A design column that is zero in every row raises
    `DegenerateCovariateError` before fitting.
    """
    options = options or FitOptions()
    y = ds.response_vector(spec.response)
    X = build_design(ds, spec.count_covariates, spec.reference_levels)
    Z = (
        build_design(ds, spec.zero_covariates, spec.reference_levels)
        if spec.family == "zinb"
        else None
    )
    dead = [
        prefix + label
        for prefix, D in (("", X), ("zero:", Z))
        if D is not None
        for label, column in zip(D.labels, D.values.T)
        if not np.any(column)
    ]
    if dead:
        raise DegenerateCovariateError(
            f"design column(s) {', '.join(dead)} are zero in every row"
        )
    problem = _Problem(spec, X, Z, y, options)
    n_free = int(problem.mask.sum())
    if ds.n_rows <= n_free:
        raise InsufficientDataError(
            f"{ds.n_rows} observations cannot support {n_free} free parameters"
        )
    if not np.any(y > 0):
        raise InsufficientDataError(
            f"response '{spec.response}' has no positive counts; its mean cannot be estimated"
        )

    x0 = problem.start()
    try:
        res = maximize_newton(problem.objective, x0)
    except ValueError:
        # the objective reads evaluation errors as -inf: evaluate the start
        # once on the full rows, letting evaluation errors through, so the
        # error names the row at fault, or else the first free parameter
        # whose score or Hessian row is not finite
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ll, grad, hess = _loglik_score(
                spec, X, Z, _kernels.Counts(y), problem.to_params(x0), hessian=True
            )
        if not math.isfinite(ll):
            raise EvaluationError(f"log-likelihood is {ll} at the starting point") from None
        free = problem.mask
        bad = ~np.isfinite(grad[free]) | ~np.isfinite(hess[np.ix_(free, free)]).all(axis=1)
        where = f" (parameter '{problem.free_labels()[np.argmax(bad)]}')" if bad.any() else ""
        raise EvaluationError(
            f"score or Hessian is not finite at the starting point{where}"
        ) from None
    estimates = problem.to_params(res.x)

    covariance = covariance_error = None
    s, w, V = equilibrated_eigh(-res.hess)
    if w[0] > w.size * np.finfo(float).eps * w[-1]:
        covariance = np.outer(s, s) * ((V / w) @ V.T)
    else:
        covariance_error = (
            "covariance unavailable: negative Hessian is singular or indefinite "
            f"(eigenvalues {w[0]:.3g} to {w[-1]:.3g})"
        )

    return FitResult(
        family=spec.family,
        estimates=estimates,
        count_labels=list(X.labels),
        zero_labels=list(Z.labels) if Z is not None else [],
        free_labels=problem.free_labels(),
        covariance=covariance,
        covariance_error=covariance_error,
        log_likelihood=res.fun,
        n_obs=ds.n_rows,
        n_iterations=res.n_iter,
        converged=res.converged,
        gradient_norm=float(np.max(np.abs(res.grad))),
        message=res.message,
        ll_path=res.path,
        # a numpy reduction rather than a BLAS dot, so the sum does not
        # depend on the thread count
        expected_zero_fraction=float(
            np.sum(problem.w * _zero_probabilities(spec.family, problem.X, problem.Z, estimates))
        ) / problem.n_obs,
    )


@dataclass
class IrrRow:
    label: str
    part: str  # "count" or "zero"
    coefficient: float
    irr: float  # exp(coefficient), inf past float range; an odds ratio for the zero part
    std_error: float  # of the coefficient, not of the IRR
    z_value: float
    p_value: float
    stars: str


def _irr_row(label: str, part: str, coef: float, se: float) -> IrrRow:
    if math.isfinite(se) and se > 0.0:
        z = coef / se
        p = math.erfc(abs(z) / math.sqrt(2.0))
        stars = stars_for_p(p)
    else:
        z, p, stars = math.nan, math.nan, ""
    irr = math.exp(coef) if coef <= math.log(np.finfo(float).max) else math.inf
    return IrrRow(label, part, coef, irr, se, z, p, stars)


def irr_table(fit_result: FitResult, include_intercepts: bool = False) -> list[IrrRow]:
    """Exponentiated coefficients with normal-approximation p-values.

    One row per non-intercept count-part design column and, for ZINB, per
    zero-part column (the zero intercept is an interpretable baseline odds,
    so it stays).  With an unavailable covariance the rows still carry
    coefficient and IRR, with NaN error fields.
    """
    start = 0 if include_intercepts else 1
    rows = []
    for label, coef in list(
        zip(fit_result.count_labels, fit_result.estimates.beta)
    )[start:]:
        rows.append(_irr_row(label, "count", float(coef), fit_result.std_error(label)))
    for label, coef in zip(fit_result.zero_labels, fit_result.estimates.gamma):
        rows.append(
            _irr_row(label, "zero", float(coef), fit_result.std_error(f"zero:{label}"))
        )
    return rows


@dataclass
class ComparisonRow:
    family: str
    n_params: int
    log_likelihood: float
    aic: float


def compare_models(fits: list[FitResult]) -> list[ComparisonRow]:
    """AIC ranking (2k - 2logL, ascending) of fits on identical observations."""
    if not fits:
        raise ComparisonError("nothing to compare")
    n0 = fits[0].n_obs
    for other in fits[1:]:
        if other.n_obs != n0:
            raise ComparisonError(
                f"fits cover different observations ({n0} vs {other.n_obs} rows)"
            )
    rows = [
        ComparisonRow(f.family, f.n_free, f.log_likelihood, f.aic) for f in fits
    ]
    rows.sort(key=lambda r: r.aic)
    return rows
