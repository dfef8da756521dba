"""Maximum-likelihood fitting for Poisson, NB, and ZINB regression.

Mean model: log(lam_i) = x_i' beta.  Zero model (ZINB): logit(p_i) = z_i' gamma.
The shape parameter is optimized as log_tau so positivity needs no constraint.
ZINB likelihood terms go through the same pmf kernels as the distributions
module, so likelihood and pmf cannot drift apart.

Per-observation sums are reduced in fixed index order on a single thread, so
repeated fits on identical input are bit-identical.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, gammaln

from . import _kernels
from .data import Dataset, DesignMatrix, ModelSpec, build_design
from .distributions import TAU_MIN
from .errors import (
    ComparisonError,
    CountregError,
    EvaluationError,
    InsufficientDataError,
    ParameterDomainError,
    SchemaError,
)
from .optimize import hessian_fd, maximize_bfgs
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
    grad_tol: float = 1e-6
    rel_ll_tol: float = 1e-10
    max_iter: int = 500
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
    zero_probabilities: np.ndarray | None = field(repr=False, default=None)

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


def _loglik_score(
    spec: ModelSpec,
    X: DesignMatrix,
    Z: DesignMatrix | None,
    y: np.ndarray,
    params: ParamVector,
) -> tuple[float, np.ndarray]:
    """Log-likelihood and its analytic gradient from one pass over the rows.

    Gradient layout matches the family: [beta] for poisson, [beta, log_tau]
    for nb, [beta, gamma, log_tau] for zinb.
    """
    _check_finite_params(params)
    yf = np.asarray(y, dtype=np.float64)
    eta = _count_predictor(X, params.beta)
    lam = np.exp(eta)
    if spec.family == "poisson":
        rows = yf * eta - lam - gammaln(yf + 1.0)
        return float(np.sum(rows)), X.values.T @ (yf - lam)
    tau = _tau_of(params)
    if spec.family == "nb":
        rows, u, dt = _kernels.nb_loglik_score(yf, lam, tau)
        scores = [X.values.T @ u]
    else:
        p = expit(_zero_predictor(Z, params.gamma))
        rows, u, v, dt = _kernels.zinb_loglik_score(yf, lam, p, tau)
        scores = [X.values.T @ u, Z.values.T @ v]
    return float(np.sum(rows)), np.concatenate([*scores, [tau * float(np.sum(dt))]])


def log_likelihood(spec, X, Z, y, params) -> float:
    """Sum of per-observation log pmfs under the family of ``spec``."""
    return _loglik_score(spec, X, Z, y, params)[0]


def gradient(spec, X, Z, y, params) -> np.ndarray:
    """Analytic gradient of the log-likelihood, laid out as in `_loglik_score`."""
    return _loglik_score(spec, X, Z, y, params)[1]


class _Problem:
    """Maps the optimizer's free vector onto a full ParamVector and back."""

    def __init__(self, spec, X, Z, y, options):
        self.spec = spec
        self.X = X
        self.Z = Z
        self.y = np.asarray(y, dtype=np.float64)
        self.d = X.n_cols
        self.q = Z.n_cols if Z is not None else 0
        self.fix_gamma = None
        if options.fix_gamma is not None:
            fixed = np.asarray(options.fix_gamma, dtype=np.float64)
            if fixed.shape != (self.q,):
                raise SchemaError(
                    f"fix_gamma has shape {fixed.shape}, zero design has {self.q} columns"
                )
            self.fix_gamma = fixed
        self.fix_log_tau = options.fix_log_tau
        self.gamma_free = spec.family == "zinb" and self.fix_gamma is None
        self.tau_free = spec.family != "poisson" and self.fix_log_tau is None
        mask = [True] * self.d
        if spec.family == "zinb":
            mask += [self.gamma_free] * self.q
        if spec.family != "poisson":
            mask += [self.tau_free]
        self.mask = np.asarray(mask)

    def to_params(self, theta: np.ndarray) -> ParamVector:
        beta = theta[: self.d]
        pos = self.d
        if self.spec.family == "zinb":
            if self.gamma_free:
                gamma = theta[pos : pos + self.q]
                pos += self.q
            else:
                gamma = self.fix_gamma
        else:
            gamma = np.empty(0)
        if self.spec.family == "poisson":
            log_tau = None
        elif self.tau_free:
            log_tau = float(theta[pos])
        else:
            log_tau = float(self.fix_log_tau)
        return ParamVector(beta, gamma, log_tau)

    def free_labels(self) -> list[str]:
        labels = list(self.X.labels)
        if self.gamma_free:
            labels += [f"zero:{lab}" for lab in self.Z.labels]
        if self.tau_free:
            labels.append("log_tau")
        return labels

    def _loglik_score(self, theta):
        return _loglik_score(self.spec, self.X, self.Z, self.y, self.to_params(theta))

    def objective(self, theta):
        try:
            ll, grad = self._loglik_score(theta)
        except CountregError:
            ll = -math.inf
        if not math.isfinite(ll):
            return -math.inf, np.zeros(int(self.mask.sum()))
        return ll, grad[self.mask]

    def free_gradient(self, theta):
        return self._loglik_score(theta)[1][self.mask]

    def maximize(self, x0, options):
        """BFGS ascent of the objective from ``x0``.

        The objective reads evaluation errors as -inf, so a start point that
        cannot be evaluated is evaluated again unguarded: the error then names
        the row or parameter at fault instead of ending in a ValueError.
        """
        try:
            return maximize_bfgs(
                self.objective,
                x0,
                grad_tol=options.grad_tol,
                rel_tol=options.rel_ll_tol,
                max_iter=options.max_iter,
            )
        except ValueError:
            ll = self._loglik_score(x0)[0]
            if math.isfinite(ll):
                raise
            raise EvaluationError(f"log-likelihood is {ll} at the starting point") from None


def _poisson_start(X: DesignMatrix, y: np.ndarray) -> np.ndarray:
    x0 = np.zeros(X.n_cols)
    x0[0] = math.log(float(np.mean(y)) + 0.1)
    return x0


def _logit(x: float) -> float:
    return math.log(x) - math.log1p(-x)


def _zero_part_start(q, X, y, beta_start, tau_start) -> np.ndarray:
    """All zeros except the intercept, anchored at the empirical excess-zero
    fraction over what the NB count part already explains at the start."""
    observed = float(np.mean(y == 0))
    lam = np.exp(np.clip(X.values @ beta_start, None, ETA_MAX))
    implied = float(np.mean(np.exp(tau_start * -np.log1p(lam / tau_start))))
    excess = max(0.0, observed - implied)
    gamma = np.zeros(q)
    gamma[0] = _logit(max(excess, 0.01))
    return gamma


def fit(spec: ModelSpec, ds: Dataset, options: FitOptions | None = None) -> FitResult:
    """Maximize the likelihood by BFGS ascent with staged initialization.

    beta starts from a Poisson fit (itself started at zero with the intercept
    at log(mean(y) + 0.1)); log_tau starts at 0; the zero-part intercept
    starts at the logit of the empirical excess-zero fraction.  The
    covariance is the inverse negative Hessian, obtained by central
    differences of the analytic gradient at the optimum; when that matrix is
    not positive definite the estimates are still returned with the
    covariance flagged unavailable.
    """
    options = options or FitOptions()
    y = ds.response_vector(spec.response)
    X = build_design(ds, spec.count_covariates, spec.reference_levels)
    Z = (
        build_design(ds, spec.zero_covariates, spec.reference_levels)
        if spec.family == "zinb"
        else None
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

    # staged initialization: Poisson -> NB/ZINB
    if spec.family == "poisson":
        x0 = _poisson_start(X, y)
    else:
        pois_spec = ModelSpec(
            "poisson", spec.response, spec.count_covariates, [], spec.reference_levels
        )
        pois_problem = _Problem(pois_spec, X, None, y, FitOptions())
        beta_start = pois_problem.maximize(_poisson_start(X, y), options).x
        pieces = [beta_start]
        tau_start = math.exp(options.fix_log_tau) if options.fix_log_tau is not None else 1.0
        if problem.gamma_free:
            pieces.append(_zero_part_start(problem.q, X, y, beta_start, tau_start))
        if problem.tau_free:
            pieces.append(np.array([0.0]))
        x0 = np.concatenate(pieces)

    res = problem.maximize(x0, options)
    estimates = problem.to_params(res.x)

    covariance = None
    covariance_error = None
    try:
        hess = hessian_fd(problem.free_gradient, res.x)
        np.linalg.cholesky(-hess)  # fails unless negative definite at the optimum
        covariance = np.linalg.inv(-hess)
        covariance = 0.5 * (covariance + covariance.T)
    except (np.linalg.LinAlgError, CountregError) as exc:
        covariance_error = f"covariance unavailable: {exc}"

    lam = np.exp(np.clip(X.values @ estimates.beta, None, ETA_MAX))
    yzero = np.zeros(ds.n_rows)
    if spec.family == "poisson":
        zero_probs = np.exp(-lam)
    elif spec.family == "nb":
        zero_probs = np.exp(_kernels.nb_logpmf(yzero, lam, estimates.tau))
    else:
        p = expit(Z.values @ estimates.gamma)
        zero_probs = np.exp(_kernels.zinb_logpmf(yzero, lam, p, estimates.tau))

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
        gradient_norm=res.grad_norm,
        message=res.message,
        ll_path=res.path,
        zero_probabilities=zero_probs,
    )


@dataclass
class IrrRow:
    label: str
    part: str  # "count" or "zero"
    coefficient: float
    irr: float  # exp(coefficient); an odds ratio for the zero part
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
    return IrrRow(label, part, coef, math.exp(coef), se, z, p, stars)


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
