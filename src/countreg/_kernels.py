"""Fused per-observation likelihood kernels: numba backend, numpy fallback.

Each family has one kernel that returns the row log pmf and the score
pieces in a single pass over the rows:

    nb_loglik_score(y, lam, tau)      -> (rows, u, dt)
    zinb_loglik_score(y, lam, p, tau) -> (rows, u, v, dt)

``u``, ``v`` and ``dt`` are the derivatives of the row log pmf in
eta = log(lam), s = logit(p) and tau.  ``nb_logpmf``/``zinb_logpmf`` are the
``rows`` views for pmf callers.

Every count-only term comes from one table per call over k = 0..max(y),
built in numpy and gathered at y before either backend runs:

    L[k] = sum_{j<k} log1p(j / tau) - lgamma(k + 1)
         = lgamma(k + tau) - lgamma(tau) - k log(tau) - lgamma(k + 1)
    D[k] = sum_{j<k} 1 / (tau + j) = psi(k + tau) - psi(tau)

Neither sum suffers the cancellation of a (di)gamma difference at large tau.
The table stops at k = 4096 (``_TABLE_MAX``); a row with a larger count takes
a closed form instead.  A kernel call therefore costs O(n + min(max y, 4096))
time and a few arrays of that size in memory.

Each kernel exists twice: a vectorized numpy version and a scalar loop
written as plain Python, compiled with ``numba.njit`` when numba is
importable (the loops also run, slowly, under CPython, which the agreement
tests use).  The backend is chosen once at import time: numba when it is
importable, numpy when it is not or when the environment variable
``COUNTREG_NO_NUMBA`` is set to a non-empty value other than ``"0"``.
``BACKEND`` names the choice.

Kernels take the response as a float64 array of integer-valued counts, the
mean ``lam`` (and for the zero-inflated family the structural-zero
probability ``p``) as float64 arrays, and the shape ``tau`` as a scalar.
Reductions over observations happen in the callers in fixed index order, so
results are reproducible run to run.
"""

import math
import os

import numpy as np
from scipy.special import digamma, gammaln

__all__ = [
    "BACKEND",
    "nb_loglik_score",
    "zinb_loglik_score",
    "nb_logpmf",
    "zinb_logpmf",
    "warm_up",
]


_TABLE_MAX = 4096  # largest count whose terms come from the per-call table


def _count_terms(y, tau):
    """(L[y], D[y]) per row; see the module docstring.

    Rounding in the log1p sum grows with k, so a table entry whose lgamma
    difference has the smaller error bound takes that instead: the sum wins
    near the Poisson limit (tau >> k), the lgamma difference at large counts.
    Rows past the table take the (di)gamma differences below tau = 1e3, where
    y > 4096 makes them accurate, and their Stirling series above it, where
    the series' truncation error is below 1e-14.
    """
    big = y > _TABLE_MAX
    k = np.where(big, 0.0, y).astype(np.intp)
    k_all = np.arange(k.max(initial=0) + 1.0)
    L = np.zeros(k_all.size)
    D = np.zeros(k_all.size)
    np.cumsum(np.log1p(k_all[:-1] / tau), out=L[1:])
    np.cumsum(1.0 / (tau + k_all[:-1]), out=D[1:])
    lg_k_tau, lg_tau, k_log_tau = gammaln(k_all + tau), gammaln(tau), k_all * math.log(tau)
    sum_bound = np.cumsum(L)  # both bounds in units of the float64 epsilon
    diff_bound = np.abs(lg_k_tau) + abs(lg_tau) + np.abs(k_log_tau)
    L = np.where(sum_bound <= diff_bound, L, lg_k_tau - lg_tau - k_log_tau)
    L -= gammaln(k_all + 1.0)
    Ly, Dy = L[k], D[k]
    if big.any():
        yb = y[big]
        if tau < 1e3:
            Lb = gammaln(yb + tau) - lg_tau - yb * math.log(tau)
            Db = digamma(yb + tau) - digamma(tau)
        else:  # free of the large-tau cancellation of the differences
            x, l1p = yb + tau, np.log1p(yb / tau)
            Lb = (x - 0.5) * l1p - yb + (1 / (12 * x) - 1 / (360 * x**3))
            Lb -= 1 / (12 * tau) - 1 / (360 * tau**3)
            Db = l1p + yb / (2 * tau * x) + (1 / (12 * tau**2) - 1 / (12 * x**2))
        Ly[big] = Lb - gammaln(yb + 1.0)
        Dy[big] = Db
    return Ly, Dy


# ---------------------------------------------------------------------------
# numpy implementations


def nb_loglik_score_numpy(y, lam, tau, Ly, Dy):
    denom = lam + tau
    ltt = -np.log1p(lam / tau)  # log(tau / (lam + tau))
    with np.errstate(divide="ignore", invalid="ignore"):
        # lam underflowing to 0 leaves no mass at y > 0: log(0) = -inf
        ylog = np.where(y > 0, y * (np.log(lam) + ltt), 0.0)
    rows = Ly + tau * ltt + ylog
    u = y - lam * (y + tau) / denom
    dt = Dy + ltt + (lam - y) / denom
    return rows, u, dt


def zinb_loglik_score_numpy(y, lam, p, tau, Ly, Dy):
    rows, u, dt = nb_loglik_score_numpy(y, lam, tau, Ly, Dy)
    zero = y == 0
    logb = rows[zero]  # log P_NB(0)
    with np.errstate(divide="ignore"):
        log_q = np.log1p(-p)  # log(1 - p); -inf at p == 1
    rows += log_q
    v = -p
    pz, qz = p[zero], log_q[zero]
    b = qz + logb  # log((1-p) P_NB(0))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        loga = np.logaddexp(np.log(pz), b)  # log P_ZINB(0)
        w0 = np.exp(b - loga)  # (1-p) P_NB(0) / P_ZINB(0)
        # p == 0 rows would hit 0 * inf when P_ZINB(0) underflows
        v[zero] = np.where(pz > 0.0, pz * (np.exp(qz - loga) - w0), 0.0)
    rows[zero] = loga
    u[zero] *= w0
    dt[zero] *= w0
    return rows, u, v, dt


# ---------------------------------------------------------------------------
# numba implementations: scalar loops, compiled only when numba is importable


def _nb_loglik_score_loop(y, lam, tau, Ly, Dy):
    n = y.shape[0]
    rows = np.empty(n)
    u = np.empty(n)
    dt = np.empty(n)
    for i in range(n):
        yi, li = y[i], lam[i]
        denom = li + tau
        ltt = -math.log1p(li / tau)
        if yi == 0.0:
            ylog = 0.0
        elif li > 0.0:
            ylog = yi * (math.log(li) + ltt)
        else:
            ylog = -math.inf
        rows[i] = Ly[i] + tau * ltt + ylog
        u[i] = yi - li * (yi + tau) / denom
        dt[i] = Dy[i] + ltt + (li - yi) / denom
    return rows, u, dt


def _zinb_loglik_score_loop(y, lam, p, tau, Ly, Dy):
    n = y.shape[0]
    rows = np.empty(n)
    u = np.empty(n)
    v = np.empty(n)
    dt = np.empty(n)
    for i in range(n):
        yi, li, pi = y[i], lam[i], p[i]
        denom = li + tau
        ltt = -math.log1p(li / tau)
        if yi > 0.0:
            if pi >= 1.0 or li <= 0.0:
                rows[i] = -math.inf
            else:
                rows[i] = Ly[i] + tau * ltt + yi * (math.log(li) + ltt) + math.log1p(-pi)
            u[i] = yi - li * (yi + tau) / denom
            v[i] = -pi
            dt[i] = Dy[i] + ltt + (li - yi) / denom
        elif pi <= 0.0:
            rows[i] = tau * ltt
            u[i] = -(li * tau / denom)
            v[i] = 0.0
            dt[i] = ltt + li / denom
        elif pi >= 1.0:
            rows[i] = 0.0
            u[i] = 0.0
            v[i] = 0.0
            dt[i] = 0.0
        else:
            a = math.log(pi)
            b = math.log1p(-pi) + tau * ltt
            m = max(a, b)
            loga = m + math.log(math.exp(a - m) + math.exp(b - m))
            w0 = math.exp(b - loga)
            rows[i] = loga
            u[i] = -(li * tau / denom) * w0
            v[i] = pi * (math.exp(math.log1p(-pi) - loga) - w0)
            dt[i] = (ltt + li / denom) * w0
    return rows, u, v, dt


try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    _HAVE_NUMBA = False

if _HAVE_NUMBA:
    nb_loglik_score_numba = njit(cache=True)(_nb_loglik_score_loop)
    zinb_loglik_score_numba = njit(cache=True)(_zinb_loglik_score_loop)
else:  # pragma: no cover
    nb_loglik_score_numba = None
    zinb_loglik_score_numba = None


# ---------------------------------------------------------------------------
# backend selection

_DISABLED = os.environ.get("COUNTREG_NO_NUMBA", "") not in ("", "0")
BACKEND = "numba" if (_HAVE_NUMBA and not _DISABLED) else "numpy"

if BACKEND == "numba":
    _nb_kernel, _zinb_kernel = nb_loglik_score_numba, zinb_loglik_score_numba
else:
    _nb_kernel, _zinb_kernel = nb_loglik_score_numpy, zinb_loglik_score_numpy


def nb_loglik_score(y, lam, tau):
    """NB row log pmf and its derivatives in eta and tau: (rows, u, dt)."""
    return _nb_kernel(y, lam, tau, *_count_terms(y, tau))


def zinb_loglik_score(y, lam, p, tau):
    """ZINB row log pmf and its derivatives in eta, logit(p) and tau:
    (rows, u, v, dt)."""
    return _zinb_kernel(y, lam, p, tau, *_count_terms(y, tau))


def nb_logpmf(y, lam, tau):
    return nb_loglik_score(y, lam, tau)[0]


def zinb_logpmf(y, lam, p, tau):
    return zinb_loglik_score(y, lam, p, tau)[0]


def warm_up():
    """Trigger JIT compilation of every kernel (no-op on the numpy backend)."""
    y = np.array([0.0, 3.0])
    lam = np.array([0.5, 2.0])
    p = np.array([0.0, 0.3])
    nb_loglik_score(y, lam, 1.5)
    zinb_loglik_score(y, lam, p, 1.5)
