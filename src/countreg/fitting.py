"""Maximum-likelihood fitting for Poisson, NB, and ZINB regression.

Mean model: log(lam_i) = x_i' beta.  Zero model (ZINB): logit(p_i) = z_i' gamma.
The shape parameter is optimized as log_tau so positivity needs no constraint.
NB and ZINB likelihood terms go through the same pmf kernels as the
distributions module, and all three families subtract the one log(y!) that
``_kernels.Counts`` holds, so likelihood and pmf cannot drift apart; the
expected zero fraction is the mean of the kernels' y = 0 terms, in closed
form over the row patterns.

A fit runs on the distinct row patterns of the model's dataset columns (the
response and the covariates, a factor by its codes), each weighted by its
count: with categorical or count covariates the likelihood depends on the
rows only through those patterns, so the weighted sums are the full-data
likelihood and score, exact to rounding.  Where every row is distinct, the
patterns are the given rows.  The counts and factor codes key the pattern
scan by themselves (`data.distinct_codes`); only numeric columns are sorted.
A ZINB fit orders its rows, or its patterns, stably with y = 0 first, so
that the kernel mixes on one slice of them (`_kernels.Counts.zeros`); the
other families keep the order, since only ZINB mixes on the y = 0 rows.

The fitter holds each part's design as the terms of `data.design_terms`,
which `build_design` expands into dummy columns: the intercept, each factor
as its codes (its reference level dropped) and each count or numeric
covariate as its column.  The predictor (`data.linear_predictor`, which
`simulate` shares) adds each factor's gathered level values, then each column.
The per-row sums of the score and Hessian contract term by term: a sum for
the intercept, an ``np.bincount`` over a factor's codes (over joint codes,
made once per fit, for two factors), an ``np.einsum`` for two columns, and
the scalar tau for the shape.  Their summation order, like that of the
numpy reductions, does not depend on the BLAS thread count, so repeated
fits on identical input are bit-identical.  The public `log_likelihood` and
`gradient` contract a DesignMatrix the same way, its columns as columns.

One evaluation allocates no row-sized array but the temporaries of the
series for counts past the kernels' table (`_kernels`), which are the size
of those rows.  The predictors, the mean and the zero probability, the
kernel's output block and one scratch row per column term (for a column
times a row of second derivatives) are buffers kept on the fit's
``_kernels.Counts``, made by the first evaluation and overwritten by each
later one; pattern weights multiply the output block in place, and the
P(y = 0) pass after the ascent writes into them too.
"""

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from . import _kernels
from .data import (
    INTERCEPT_LABEL,
    Column,
    Dataset,
    DesignMatrix,
    ModelSpec,
    _Term,
    design_terms,
    distinct_codes,
    linear_predictor,
)
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
    ll_path: list = field(repr=False, default_factory=list)  # `MaximizeResult.path`
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


def _as_terms(D):
    """A design as terms: a DesignMatrix's columns as columns, but a first
    column labelled "(intercept)" whose values are all 1 as the intercept,
    as `design_terms` gives it; terms (or None) as given."""
    if not isinstance(D, DesignMatrix):
        return D
    terms = [_Term([label], column) for label, column in zip(D.labels, D.values.T)]
    if D.labels[:1] == [INTERCEPT_LABEL] and (D.values[:, 0] == 1).all():
        terms[0].kind = "intercept"
    return terms


def _labels(terms) -> list[str]:
    return [label for term in terms for label in term.labels]


def _spans(sizes) -> list[slice]:
    """Consecutive slices of the given ``sizes``."""
    stops = list(accumulate(sizes))
    return [slice(stop - size, stop) for size, stop in zip(sizes, stops)]


def _predictor(
    part: str, terms, coef: np.ndarray, out, scratch, limit: float, first=None
) -> np.ndarray:
    """The ``part`` ("count" or "zero") linear predictor of ``terms`` at
    ``coef`` (`data.linear_predictor`), checked to be finite and at most
    ``limit``.  A failure names the first data row at fault: the least
    failing ``first`` entry, or the first failing row where it is None."""
    linear_predictor(terms, coef, out, scratch)
    hi = out.max(initial=-math.inf)
    # a NaN fails every comparison
    if not (out.min(initial=math.inf) > -math.inf and hi < math.inf and hi <= limit):
        bound = f" or above {limit:g}" if limit < math.inf else ""
        bad = ~np.isfinite(out) | (out > limit)
        raise EvaluationError(
            f"{part}-part linear predictor is not finite{bound}",
            int(np.argmax(bad) if first is None else first[bad].min()),
        )
    return out


def _row_terms(spec, X, Z, counts, params, first=None) -> np.ndarray:
    """One block whose rows are the row log pmfs, the row derivatives in
    eta, logit(p) and tau and the upper triangle of their second
    derivatives, for the family of ``spec`` at ``params`` on the designs
    of the terms ``X`` and ``Z``.

    The block is a buffer kept on ``counts``, which the next call on it
    overwrites.
    """
    _check_finite_params(params)
    y, n = counts.y, counts.y.size
    scratch = counts.buffer(("scratch", 0), (n,))
    eta = _predictor("count", X, params.beta, counts.buffer("lam", (n,)), scratch, ETA_MAX, first)
    if spec.family == "poisson":
        block = counts.buffer("rows", (3, n))
        rows, u, ee = block
        np.multiply(y, eta, out=rows)
        lam = np.exp(eta, out=eta)
        rows -= lam
        rows -= counts.log_fact
        np.subtract(y, lam, out=u)
        np.negative(lam, out=ee)
        return block
    lam = np.exp(eta, out=eta)
    tau = _tau_of(params)
    if spec.family == "nb":
        return _kernels.nb_loglik_score(counts, lam, tau)
    from scipy.special import expit

    p = _predictor("zero", Z, params.gamma, counts.buffer("p", (n,)), scratch, math.inf, first)
    return _kernels.zinb_loglik_score(counts, lam, expit(p, out=p), tau)


def _dot(term: _Term, t: np.ndarray) -> np.ndarray:
    """The design columns of ``term`` contracted with the row vector ``t``."""
    if term.kind == "intercept":
        return t.sum(keepdims=True)
    if term.kind == "factor":
        return np.bincount(term.values, t, term.levels)[term.keep]
    return np.einsum("n,n->", term.values, t).reshape(1)


def _joint(a: _Term, b: _Term, h: np.ndarray) -> np.ndarray:
    """A' diag(h) B of two factors' columns: one bincount over their joint
    codes, which are made on first use and kept on ``a`` for the fit."""
    if a in b.joint:
        return _joint(b, a, h).T
    if b not in a.joint:
        a.joint[b] = a.values * b.levels + b.values
    table = np.bincount(a.joint[b], h, a.levels * b.levels).reshape(a.levels, b.levels)
    return table[np.ix_(a.keep, b.keep)]


def _hessian_block(A, B, h, out, counts, upper: bool):
    """Write A' diag(h) B of the terms ``A`` and ``B`` into ``out``, term
    pair by term pair; where ``upper`` (B is A), only its upper triangle.

    Two tables come first: each term's `_dot` with ``h``, which gives the
    intercept pairs and a factor's own diagonal, and, where both sides hold
    a term besides the intercept, each column term's weighted row
    h * values, in a buffer kept on ``counts``.  Two different factors then
    meet by `_joint`, and a pair with a column term by `_dot` of the other
    term with that column's weighted row."""
    dots = {term: _dot(term, h) for term in dict.fromkeys([*A, *B])}
    paired = all(any(term.kind != "intercept" for term in side) for side in (A, B))
    columns = [term for term in dots if term.kind == "column"] if paired else []
    weighted = {
        term: np.multiply(h, term.values, out=counts.buffer(("scratch", i), h.shape))
        for i, term in enumerate(columns)
    }
    spans_a = _spans([len(term.labels) for term in A])
    spans_b = _spans([len(term.labels) for term in B])
    for i, (a, ra) in enumerate(zip(A, spans_a)):
        for b, rb in list(zip(B, spans_b))[i if upper else 0 :]:
            sub = out[ra, rb]
            if a.kind == "intercept":
                sub[:] = dots[b]
            elif b.kind == "intercept":
                sub[:] = dots[a][:, None]
            elif a in weighted:
                sub[:] = _dot(b, weighted[a])
            elif b in weighted:
                sub[:] = _dot(a, weighted[b])[:, None]
            elif a is b:
                np.fill_diagonal(sub, dots[a])
            else:
                sub[:] = _joint(a, b, h)


def _loglik_score(
    spec: ModelSpec,
    X,
    Z,
    counts: _kernels.Counts,
    params: ParamVector,
    w: np.ndarray | float = 1.0,
    first: np.ndarray | None = None,
) -> tuple:
    """Log-likelihood and its analytic gradient and Hessian, from one pass
    over the rows.

    ``X`` and ``Z`` are the parts' designs, as terms.  Row ``i`` counts
    ``w[i]`` times: the number of observations that share its (y, x, z)
    pattern, or, where ``w`` is the scalar 1.0, which multiplies nothing,
    once; an error names its first data row, ``first[i]`` (`_predictor`).
    Gradient layout matches the family: [beta] for poisson, [beta, log_tau]
    for nb, [beta, gamma, log_tau] for zinb.  The row derivatives in eta
    and logit(p) meet the parts' terms, and those in tau the scalar tau;
    the log-tau chain term, tau * dl/dtau, joins the last diagonal entry.
    The Hessian's upper triangle is filled block by block and mirrored.
    """
    block = _row_terms(spec, X, Z, counts, params, first)
    if isinstance(w, np.ndarray):
        block *= w
    rows, *derivs = block
    parts = [X, Z] if spec.family == "zinb" else [X]
    tau = None if spec.family == "poisson" else params.tau
    k = len(parts) + (tau is not None)
    grad = [np.concatenate([_dot(term, t) for term in P]) for P, t in zip(parts, derivs)]
    if tau is not None:
        grad.append(tau * derivs[k - 1].sum(keepdims=True))
    spans = _spans([g.size for g in grad])
    grad = np.concatenate(grad)
    H = np.zeros((grad.size, grad.size))
    h_rows = iter(derivs[k:])
    for a in range(k):
        for b in range(a, k):
            h, sub = next(h_rows), H[spans[a], spans[b]]
            if b < len(parts):
                _hessian_block(parts[a], parts[b], h, sub, counts, a == b)
            elif a < len(parts):
                sub[:, 0] = tau * np.concatenate([_dot(term, h) for term in parts[a]])
            else:
                sub[0, 0] = tau * tau * h.sum() + grad[-1]
    H += np.triu(H, 1).T
    return float(np.sum(rows)), grad, H


def log_likelihood(spec, X, Z, y, params) -> float:
    """Sum of per-observation log pmfs under the family of ``spec``."""
    block = _row_terms(spec, _as_terms(X), _as_terms(Z), _kernels.Counts(y), params)
    return float(np.sum(block[0]))


def gradient(spec, X, Z, y, params) -> np.ndarray:
    """Analytic gradient of the log-likelihood, laid out as in `_loglik_score`."""
    return _loglik_score(spec, _as_terms(X), _as_terms(Z), _kernels.Counts(y), params)[1]


def _zero_probabilities(family, X, Z, counts, params) -> np.ndarray:
    """P(y = 0) per row of the designs' terms at ``params``, in closed form
    and in the buffers kept on ``counts``: exp(-lam) for poisson, P_NB(0) =
    exp(-tau log1p(lam / tau)), the NB kernel's y = 0 row, for nb, and
    p + (1 - p) P_NB(0) for zinb.  The result is the ``lam`` buffer, which
    the next evaluation overwrites."""
    n = counts.y.size
    lam, scratch = counts.buffer("lam", (n,)), counts.buffer(("scratch", 0), (n,))
    np.exp(_predictor("count", X, params.beta, lam, scratch, ETA_MAX), out=lam)
    if family == "poisson":
        return np.exp(np.negative(lam, out=lam), out=lam)
    tau = params.tau
    np.log1p(np.divide(lam, tau, out=lam), out=lam)
    p0 = np.exp(np.multiply(lam, -tau, out=lam), out=lam)
    if family == "nb":
        return p0
    from scipy.special import expit

    p = _predictor("zero", Z, params.gamma, counts.buffer("p", (n,)), scratch, math.inf)
    expit(p, out=p)
    p0 *= np.subtract(1.0, p, out=scratch)
    p0 += p
    return p0


def _live(term: _Term):
    """Whether each design column of ``term`` is nonzero in some row."""
    if term.kind == "factor":
        return np.bincount(term.values, minlength=term.levels)[term.keep] > 0
    return [np.any(term.values)]


def _digits(column: Column) -> tuple[int, np.ndarray | None]:
    """The number of distinct values of ``column`` and each row's code, the
    position of its value among them.

    A count or categorical column takes its codes from `distinct_codes`, so
    counts and factor codes below the row count index their own table.  A
    numeric column is read as the float64 that the designs hold and sorted
    by ``np.unique``; its codes come from ``np.searchsorted``, and are None
    where every row is distinct, which ends the scan anyway.
    """
    if column.kind != "numeric":
        distinct, codes, _ = distinct_codes(column.values)
        return distinct.size, codes
    values = np.asarray(column.values, dtype=np.float64)
    distinct = np.unique(values)
    if distinct.size == values.size:
        return distinct.size, None
    return distinct.size, np.searchsorted(distinct, values)


def _row_patterns(columns: list[Column]) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct rows of equal-length ``columns``: the index of each
    pattern's first row and the pattern's count, or None if every row is
    distinct.

    A column with a distinct value per row ends the scan; each other adds
    its codes (`_digits`) to one mixed-radix int64 key, which starts as the
    first column's codes and is re-coded whenever its range passes the row
    count, and a key with a distinct value per row ends the scan too.  One
    counting pass over the final key gives each pattern's count and first
    row, in key order, which does not depend on the row order.
    """
    n = columns[0].values.size
    key, size = None, 1
    for column in columns:
        radix, codes = _digits(column)
        if radix == n:
            return None
        key = codes if key is None else key * radix + codes
        size *= radix
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
    """The fit of ``spec`` to ``ds`` on its row patterns: the designs ``X``
    and ``Z`` as terms (`data.design_terms`, sharing each covariate's term)
    and the prepared ``counts``, built on the columns of ``ds`` that they
    read (the model's and those named in ``reference_levels``) at the
    patterns' first rows ``first``, each pattern weighted by its count
    ``w`` (None and the scalar 1.0 where every row is distinct), and
    the map from the optimizer's free vector onto a full ParamVector and
    back.  The patterns are those of the model's own Columns
    (`_row_patterns`), each covariate once and then the response, so a
    count response and factor codes key the scan by their values, with no
    sort.  A ZINB fit puts the patterns, or where every row is distinct the
    rows themselves, stably in y = 0 first order, so ``first`` is then a
    permutation of the rows even where ``w`` is 1.0.

    ``theta`` is the full vector [beta, gamma, log_tau] in the gradient's
    layout, holding the pinned entries of ``FitOptions``; ``mask`` marks
    the free ones.
    """

    def __init__(self, spec: ModelSpec, ds: Dataset, options: FitOptions):
        self.spec = spec
        self.n_obs = ds.n_rows
        y = ds.response_vector(spec.response)  # its errors come before the designs'
        model = [*dict.fromkeys([*spec.count_covariates, *spec.zero_covariates]), spec.response]
        # a name not in ds is left to design_terms, which raises as it would on ds
        table = _row_patterns([ds.columns[name] for name in model if name in ds.columns])
        refs, zinb = spec.reference_levels, spec.family == "zinb"
        if table is None:
            self.w, self.first = 1.0, None
        else:
            self.first, counts = table
            self.w = counts.astype(np.float64)
        if zinb:  # the y = 0 rows first, so that the kernel mixes on one slice
            order = np.argsort((y if table is None else y[self.first]) != 0, kind="stable")
            self.first = order if table is None else self.first[order]
            self.w = 1.0 if table is None else self.w[order]
        if self.first is not None:  # only the columns a design or its errors read
            read = {*model, *(refs or {})}
            columns = {k: replace(c, values=c.values[self.first])
                       for k, c in ds.columns.items() if k in read}
            ds = Dataset(columns, self.first.size)
        made = {}
        self.X = design_terms(ds, spec.count_covariates, refs, made)
        self.Z = design_terms(ds, spec.zero_covariates, refs, made) if zinb else None
        # parameter-free, so prepared once rather than on every evaluation
        self.counts = _kernels.Counts(ds.response_vector(spec.response))
        self.count_labels = _labels(self.X)
        self.zero_labels = _labels(self.Z) if zinb else []
        self.d, self.q = len(self.count_labels), len(self.zero_labels)
        self.labels = self.count_labels + [f"zero:{lab}" for lab in self.zero_labels]
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

    def evaluate(self, theta):
        """Log-likelihood, free gradient and free Hessian at ``theta``.
        Where they cannot be had it raises why, worded for the start point,
        which `fit` evaluates here: the evaluation's own CountregError, or an
        EvaluationError naming a non-finite log-likelihood, or else the
        first free parameter whose score or Hessian row is not finite."""
        free = self.mask
        # a point far out (tau or lam near overflow, p -> 1) may produce inf
        # or nan, which the check below reports rather than numpy warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ll, grad, hess = _loglik_score(
                self.spec, self.X, self.Z, self.counts, self.to_params(theta), self.w, self.first
            )
        grad, hess = grad[free], hess[np.ix_(free, free)]
        if math.isfinite(ll) and np.all(np.isfinite(grad)) and np.all(np.isfinite(hess)):
            return ll, grad, hess
        bad = ~np.isfinite(grad) | ~np.isfinite(hess).all(axis=1)
        raise EvaluationError(
            f"log-likelihood is {ll} at the starting point" if not math.isfinite(ll) else
            "score or Hessian is not finite at the starting point "
            f"(parameter '{self.free_labels()[np.argmax(bad)]}')"
        )

    def objective(self, theta):
        """`evaluate` for the line search: -inf, with zeros, where it raises."""
        try:
            return self.evaluate(theta)
        except CountregError:
            k = int(self.mask.sum())
            return -math.inf, np.zeros(k), np.zeros((k, k))

    def start(self) -> np.ndarray:
        """Free vector of the single start point, shared by every family.

        beta is zero but for the intercept at log(mean(y) + 0.1), log_tau is
        0 unless pinned, and the zero-part intercept is the logit of the
        empirical excess-zero fraction over what the NB count part explains
        there.
        """
        y, d, theta = self.counts.y, self.d, self.theta.copy()
        theta[0] = math.log(float(np.sum(self.w * y)) / self.n_obs + 0.1)
        if self.q and self.mask[d]:
            tau = math.exp(theta[-1])
            implied = math.exp(-tau * math.log1p(math.exp(theta[0]) / tau))
            excess = max(float(np.sum(self.w * (y == 0))) / self.n_obs - implied, 0.01)
            theta[d] = math.log(excess) - math.log1p(-excess)
        return theta[self.mask]


def fit(spec: ModelSpec, ds: Dataset, options: FitOptions | None = None) -> FitResult:
    """Maximize the likelihood by one Newton ascent over the row patterns
    of ``spec``'s columns of ``ds``, whose designs `_Problem` builds.

    Every family starts from the same point (`_Problem.start`).  The
    covariance is the inverse of the analytic negative Hessian at the
    optimum, through one eigendecomposition of that matrix scaled to a unit
    diagonal.  When the scaled matrix's smallest eigenvalue is not above
    ``size * eps`` times its largest (numpy's ``matrix_rank`` tolerance),
    the estimates are still returned with the covariance flagged
    unavailable.  A design column that is zero in every row raises
    `DegenerateCovariateError` before fitting.  The start point is
    evaluated once, before the ascent, and one that cannot be evaluated
    raises its own error there (`_Problem.evaluate`).
    """
    options = options or FitOptions()
    problem = _Problem(spec, ds, options)
    n_free = int(problem.mask.sum())
    if ds.n_rows <= n_free:
        raise InsufficientDataError(
            f"{ds.n_rows} observations cannot support {n_free} free parameters"
        )
    dead = [
        prefix + label
        for prefix, terms in (("", problem.X), ("zero:", problem.Z or []))
        for term in terms
        for label, live in zip(term.labels, _live(term))
        if not live
    ]
    if dead:
        raise DegenerateCovariateError(
            f"design column(s) {', '.join(dead)} are zero in every row"
        )
    if not np.any(problem.counts.y > 0):
        raise InsufficientDataError(
            f"response '{spec.response}' has no positive counts; its mean cannot be estimated"
        )

    x0 = problem.start()
    res = maximize_newton(problem.objective, x0, problem.evaluate(x0))
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

    zeros = _zero_probabilities(spec.family, problem.X, problem.Z, problem.counts, estimates)
    zeros *= problem.w
    return FitResult(
        family=spec.family,
        estimates=estimates,
        count_labels=problem.count_labels,
        zero_labels=problem.zero_labels,
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
        expected_zero_fraction=float(np.sum(zeros)) / problem.n_obs,
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
