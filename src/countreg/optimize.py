"""Quasi-Newton maximization with a weak-Wolfe line search.

The fitter needs tighter control over convergence reporting than generic
optimizers expose: convergence is declared only when the gradient inf-norm
falls below ``GRAD_TOL`` AND the relative objective change over the last
accepted step falls below ``REL_TOL``, within ``MAX_ITER`` iterations; the
paper fixes all three.  Accepted iterates are recorded so callers can verify
monotone ascent.  Objective evaluations that return a non-finite value are
treated as "step too far" by the line search.
"""

from dataclasses import dataclass, field

import numpy as np

GRAD_TOL = 1e-6
REL_TOL = 1e-10
MAX_ITER = 500


@dataclass
class MaximizeResult:
    x: np.ndarray
    fun: float
    grad: np.ndarray
    n_iter: int
    converged: bool
    message: str
    path: list = field(default_factory=list, repr=False)  # accepted objective values

    @property
    def grad_norm(self) -> float:
        return float(np.max(np.abs(self.grad))) if self.grad.size else 0.0


def _wolfe_search(fg, x, d, f0, g0, band=None, c1=1e-4, c2=0.9, max_bisect=60):
    """Weak-Wolfe step for minimization along d (a descent direction).

    Bracketing bisection: too-far failures shrink the upper end, curvature
    failures grow the lower end.  Too far means failed sufficient decrease;
    with ``band`` set (the objective is flat to its rounding there, so
    decrease cannot be resolved) it means f above ``band`` or the slope
    along d turned up past c2 of its start.  Returns (alpha, f1, g1, clean);
    on budget exhaustion the best short point is returned with clean=False;
    None when no step qualifies.
    """
    dg0 = float(g0 @ d)
    lo, hi = 0.0, np.inf
    alpha = 1.0
    best = None
    for _ in range(max_bisect):
        f1, g1 = fg(x + alpha * d)
        dg1 = float(g1 @ d)
        if band is None:
            too_far = not f1 <= f0 + c1 * alpha * dg0
        else:
            too_far = not (f1 <= band and dg1 <= -c2 * dg0)
        if too_far or not np.all(np.isfinite(g1)):
            hi = alpha
        elif dg1 < c2 * dg0:
            best = (alpha, f1, g1)
            lo = alpha
        else:
            return alpha, f1, g1, True
        alpha = 2.0 * alpha if np.isinf(hi) else 0.5 * (lo + hi)
    return None if best is None else (*best, False)


def minimize_bfgs(fun_and_grad, x0):
    """BFGS minimization; see `maximize_bfgs` for the convergence contract."""
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun_and_grad(x)
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the starting point")
    n = x.size
    h_inv = np.eye(n)
    path = [f]
    converged = bool(np.max(np.abs(g)) < GRAD_TOL) if n else True
    message = "gradient below tolerance at start" if converged else ""
    n_iter = 0
    polish_anchor = None  # objective at entry to the terminal gradient phase
    while not converged and n_iter < MAX_ITER:
        d = -h_inv @ g
        if float(d @ g) >= 0.0:  # numerical loss of descent: reset curvature memory
            h_inv = np.eye(n)
            d = -g
        if polish_anchor is not None:
            band = polish_anchor + REL_TOL * max(1.0, abs(polish_anchor))
            step = _wolfe_search(fun_and_grad, x, d, f, g, band)
            if step is None or not step[3]:
                message = "stopped at the objective's float resolution"
                converged = bool(np.max(np.abs(g)) < GRAD_TOL)
                break
            alpha, f1, g1, _clean = step
        else:
            step = _wolfe_search(fun_and_grad, x, d, f, g)
            if step is None:
                polish_anchor = f
                continue
            alpha, f1, g1, _clean = step
            if f - f1 <= 1e-14 * abs(f1):
                # objective progress is at rounding scale; finish on the gradient
                polish_anchor = f1
        s = alpha * d
        yv = g1 - g
        sy = float(s @ yv)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(yv):
            rho = 1.0 / sy
            left = np.eye(n) - rho * np.outer(s, yv)
            h_inv = left @ h_inv @ left.T + rho * np.outer(s, s)
        rel_change = abs(f1 - f) / max(1.0, abs(f1))
        x, f, g = x + s, f1, g1
        if f <= path[-1]:  # polish may wander up inside its band; keep the path monotone
            path.append(f)
        n_iter += 1
        if np.max(np.abs(g)) < GRAD_TOL and rel_change < REL_TOL:
            converged = True
            message = "gradient and objective-change tolerances met"
    if not converged and not message:
        message = f"iteration cap {MAX_ITER} reached"
    return MaximizeResult(x, f, g, n_iter, converged, message, path)


def maximize_bfgs(fun_and_grad, x0):
    """Maximize fun via BFGS with a weak-Wolfe line search.

    ``fun_and_grad(x)`` returns the objective and its gradient; a return of
    ``-inf`` marks an inadmissible point.  Converged means: gradient inf-norm
    below ``GRAD_TOL`` and the last accepted step changed the objective by
    less than ``REL_TOL`` relative.  ``path`` holds the accepted objective
    values, which are non-decreasing by construction.
    """

    def negated(x):
        f, g = fun_and_grad(x)
        return -f, -g

    res = minimize_bfgs(negated, x0)
    res.fun = -res.fun
    res.grad = -res.grad
    res.path = [-v for v in res.path]
    return res


def hessian_fd(grad_fn, x, floor, rel_step=1e-5):
    """Symmetrized central-difference Hessian from a gradient callable.

    Per-coordinate step: rel_step * max(floor_j, |x_j|).  For a coefficient
    whose design column reaches |c| > 1 a floor of 1/|c| keeps the step's
    move of the linear predictor near rel_step, whatever the column's units.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    hess = np.empty((n, n))
    for j in range(n):
        h = rel_step * max(floor[j], abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        hess[:, j] = (grad_fn(xp) - grad_fn(xm)) / (2.0 * h)
    return 0.5 * (hess + hess.T)
