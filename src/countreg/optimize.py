"""Modified-Newton maximization on an exact Hessian.

The fitter needs tighter control over convergence reporting than generic
optimizers expose: convergence is declared only when the gradient inf-norm
falls below ``GRAD_TOL`` AND the relative objective change over the last
accepted step falls below ``REL_TOL``, within ``MAX_ITER`` iterations; the
paper fixes all three.  Accepted iterates are recorded so callers can verify
monotone ascent.  Objective evaluations that return a non-finite value are
treated as "step too far" by the line search.

Each step solves with -H scaled to a unit diagonal, whatever the columns'
units, through one eigendecomposition whose eigenvalues are replaced by
their moduli, floored at ``EIG_FLOOR`` of the largest (Nocedal & Wright
2006, section 3.4).  The step is halved from alpha = 1 until it gains
``ARMIJO`` of the predicted gain g.d.  A predicted gain below
REL_TOL * max(1, |f|) cannot be resolved in f; such a step is accepted when
it keeps f within that band and shrinks |g|_inf.  A line search whose
every trial is inadmissible stops the ascent with its own message.
"""

from dataclasses import dataclass, field

import numpy as np

GRAD_TOL = 1e-6
REL_TOL = 1e-10
MAX_ITER = 500
EIG_FLOOR = 1e-8  # smallest eigenvalue modulus of a step, relative to the largest
ARMIJO = 1e-4
MAX_HALVINGS = 60


@dataclass
class MaximizeResult:
    x: np.ndarray
    fun: float
    grad: np.ndarray
    hess: np.ndarray  # the Hessian at x
    n_iter: int
    converged: bool
    message: str
    path: list = field(default_factory=list, repr=False)  # accepted objective values


def equilibrated_eigh(A):
    """(s, w, V) with diag(s) A diag(s) = V diag(w) V', w ascending: symmetric
    ``A`` scaled to a unit diagonal, s = |diag A|^-1/2 (1 for a zero entry)."""
    d = np.abs(np.diag(A))
    s = 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0))
    w, V = np.linalg.eigh(A * np.outer(s, s))
    return s, w, V


def maximize_newton(objective, x0):
    """Maximize by modified-Newton steps on the exact Hessian.

    ``objective(x)`` returns the objective, its gradient and its Hessian; an
    objective of ``-inf`` marks an inadmissible point.  Converged means:
    gradient inf-norm below ``GRAD_TOL`` and the last accepted step changed
    the objective by less than ``REL_TOL`` relative.  ``path`` holds the
    accepted objective values, which are non-decreasing by construction.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g, H = objective(x)
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the starting point")
    path = [f]
    converged = bool(np.max(np.abs(g)) < GRAD_TOL) if x.size else True
    message = "gradient below tolerance at start" if converged else ""
    n_iter = 0
    while not converged and n_iter < MAX_ITER:
        s, w, V = equilibrated_eigh(-H)
        w = np.maximum(np.abs(w), EIG_FLOOR * np.abs(w).max())
        d = s * (V @ ((V.T @ (s * g)) / w))
        gain = float(g @ d)
        band = REL_TOL * max(1.0, abs(f))
        g_norm = np.max(np.abs(g))
        alpha, accept, admissible = 1.0, False, None  # None until a trial is evaluated
        for _ in range(MAX_HALVINGS):
            trial = x + alpha * d
            if np.array_equal(trial, x):  # no representable step is left
                break
            f1, g1, H1 = objective(trial)
            admissible = admissible or bool(np.isfinite(f1))
            if gain < band:
                accept = f1 >= f - band and np.max(np.abs(g1)) < g_norm
            else:
                accept = f1 >= f + ARMIJO * alpha * gain
            if accept:
                break
            alpha *= 0.5
        if not accept:
            if admissible is False:
                message = "no admissible point found along the step"
            else:
                message = "stopped at the objective's float resolution"
            converged = bool(g_norm < GRAD_TOL)
            break
        rel_change = abs(f1 - f) / max(1.0, abs(f1))
        x, f, g, H = trial, f1, g1, H1
        if f >= path[-1]:  # a terminal step may dip inside its band; keep the path monotone
            path.append(f)
        n_iter += 1
        if np.max(np.abs(g)) < GRAD_TOL and rel_change < REL_TOL:
            converged = True
            message = "gradient and objective-change tolerances met"
    if not converged and not message:
        message = f"iteration cap {MAX_ITER} reached"
    return MaximizeResult(x, f, g, H, n_iter, converged, message, path)
