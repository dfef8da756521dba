"""Fused per-observation likelihood kernels: numba backend, numpy fallback.

Each family has one kernel that returns the row log pmf and the score
pieces in a single pass over the rows:

    nb_loglik_score(counts, lam, tau)      -> (rows, u, dt)
    zinb_loglik_score(counts, lam, p, tau) -> (rows, u, v, dt)

``u``, ``v`` and ``dt`` are the derivatives of the row log pmf in
eta = log(lam), s = logit(p) and tau.  With ``hessian=True``, which only the
fitter asks for, they are followed by the second derivatives, the upper
triangle of the row Hessian in (eta, tau) or (eta, s, tau): (ee, et, tt) for
NB and (ee, es, et, ss, st, tt) for ZINB.  ``nb_logpmf``/``zinb_logpmf`` take
the response as an array and return the ``rows`` for pmf callers.

``Counts(y)`` is the response prepared once, since none of it depends on the
parameters: the counts as float64, each row's index into the count table
below, the rows past that table, and log(y!) per row, which the Poisson,
NB and ZINB log pmfs all subtract.  log(y!) is that table's L at tau = 1,
sum_{j<y} log1p(j) = log(y!), with the series past K, which is Stirling's
there; it is the one log(y!) of the package.  The fitter builds one
``Counts`` per fit.

Every other count-only term comes from one table per call over
k = 0..min(max y, K), gathered at y before either backend runs:

    L[k] = sum_{j<k} log1p(j / tau)
         = lgamma(k + tau) - lgamma(tau) - k log(tau)
    D[k] = sum_{j<k} 1 / (tau + j)   = psi(k + tau) - psi(tau)
    T[k] = sum_{j<k} 1 / (tau + j)^2 = psi'(tau) - psi'(k + tau)  (hessian only)

The table holds three cumulative sums, compensated for rounding
(`_prefix_sums`); none cancels like a (poly)gamma difference at large tau.
It stops at K = 256 (``_TABLE_MAX``): a larger count adds to the entry at K
one asymptotic series from K + tau to y + tau, the same form at every tau.
A kernel call costs O(n + min(max y, 256)) time and arrays of that size.

A ZINB row is Lambert's (1992) two-component mixture on every row,
l = logaddexp(a, b) with a = log p where y = 0 and -inf where y > 0, and
b = l_NB + log1p(-p).  Where a > -inf, pi0 = exp(a - l) is the posterior
probability of a structural zero and w0 = exp(b - l) that of the NB
component; elsewhere pi0 = 0 and w0 = 1 exactly, so a positive row is the
NB row plus log1p(-p) with the NB scores.  The NB scores u and dt are
scaled by w0, v is pi0 (1 - p) (1 - P_NB(0)) on mixed rows and -p
elsewhere, and the second derivatives add m = w0 pi0 times products of the
NB scores to w0 times the NB ones.  No row is gathered or scattered.

Each kernel exists twice: a vectorized numpy version and a scalar loop
written as plain Python, compiled with ``numba.njit`` when numba is
importable (the loops also run, slowly, under CPython, which the agreement
tests use).  The loops compute the same mixture, with one test per row for
the mixed case.  Both take the float counts, the means and the shape, then
L[y], D[y] and T[y], an empty array when the second derivatives are not
wanted; the numpy kernels return a tuple of arrays, the loops one 2-D array
with a row per output.  The backend is chosen once at import time: numba
when it is importable, numpy when it is not or when the environment
variable ``COUNTREG_NO_NUMBA`` is set to a non-empty value other than
``"0"``.  ``BACKEND`` names the choice.

The mean ``lam`` (and for the zero-inflated family the structural-zero
probability ``p``) are float64 arrays and the shape ``tau`` a scalar.
Reductions over observations happen in the callers in fixed index order, so
results are reproducible run to run.
"""

import math
import os

import numpy as np

__all__ = [
    "BACKEND",
    "nb_loglik_score",
    "zinb_loglik_score",
    "nb_logpmf",
    "zinb_logpmf",
    "Counts",
    "warm_up",
]


_TABLE_MAX = 256  # K: largest count whose terms come from the per-call table


class Counts:
    """A response prepared once for the kernels.

    ``y`` is the counts as float64, ``k`` each row's index into the tables
    over the counts ``k_all`` = 0..min(max y, K), ``big`` the indices of the
    rows past the table, whose k is K, the anchor of their series, and
    ``log_fact`` log(y!) per row, the count terms' L[y] at tau = 1.
    """

    def __init__(self, y):
        self.y = np.asarray(y, dtype=np.float64)
        past = self.y > _TABLE_MAX
        self.big = np.flatnonzero(past)
        self.k = np.full(self.y.size, _TABLE_MAX, dtype=np.intp)  # one n-array, no float temporary
        np.copyto(self.k, self.y, casting="unsafe", where=~past)
        self.k_all = np.arange(self.k.max(initial=0) + 1.0)
        self.log_fact = 0.0  # so that L[y] at tau = 1 comes back whole
        self.log_fact = _count_terms(self, 1.0)[0]


def _count_terms(counts, tau, hessian=False):
    """(L[y] - log(y!), D[y], T[y]) per row of ``counts``, T empty unless
    ``hessian``; see above.

    A row past the table adds to its entry at K the differences of the
    asymptotic series (`_series_tails`) between x0 = K + tau and x1 = y + tau.
    Both are at least K, so the series reach float precision at every tau;
    written in r = 1/x, no power of tau can overflow.
    """
    k, j = counts.k, counts.k_all[:-1]
    recip = 1.0 / (tau + j)
    L, D = _prefix_sums(np.log1p(j / tau)), _prefix_sums(recip)
    T = _prefix_sums(recip * recip) if hessian else None
    Ly, Dy, Ty = L[k], D[k], (T[k] if hessian else np.empty(0))
    big = counts.big
    if big.size:  # the table runs to K, its entries there anchor the series
        yb = counts.y[big]
        m, r0, r1 = yb - _TABLE_MAX, 1.0 / (_TABLE_MAX + tau), 1.0 / (yb + tau)
        dr = m * r0 * r1  # r0 - r1
        lq = np.log1p(m * r0)  # log((y + tau) / (K + tau))
        (g0, h0, q0), (g1, h1, q1) = _series_tails(r0), _series_tails(r1)
        c = math.log1p(_TABLE_MAX / tau) - 1.0
        Ly[big] = L[-1] + ((yb + (tau - 0.5)) * lq + m * c - dr / 12 - (g1 - g0))
        Dy[big] = D[-1] + (lq + dr / 2 + h0 - h1)
        if hessian:
            Ty[big] = T[-1] + (dr + q0 - q1)
    Ly -= counts.log_fact
    return Ly, Dy, Ty


def _prefix_sums(terms):
    """Sums of the first 0..n ``terms``, each corrected by the exact rounding
    errors of the additions before it (Knuth's TwoSum)."""
    s = np.concatenate(([0.0], np.cumsum(terms)))
    a, b = s[1:-1], s[2:]
    z = b - a
    s[2:] += np.cumsum((a - (b - z)) + (terms[1:] - z))
    return s


def _series_tails(r):
    """(g, h, q) at r = 1/x in the asymptotic series (Abramowitz & Stegun 6.1.41,
    6.3.18, 6.4.12) psi(x) = log x - r/2 - h, psi'(x) = r + q and
    lgamma(x) = (x - 1/2) log x - x + log(2 pi)/2 + r/12 - g."""
    r2 = r * r
    g = r * r2 * (1 / 360 - r2 * (1 / 1260 - r2 / 1680))
    h = r2 * (1 / 12 - r2 * (1 / 120 - r2 / 252))
    q = r2 * (0.5 + r * (1 / 6 - r2 * (1 / 30 - r2 * (1 / 42 - r2 / 30))))
    return g, h, q


# ---------------------------------------------------------------------------
# numpy implementations


def nb_loglik_score_numpy(y, lam, tau, Ly, Dy, Ty):
    denom = lam + tau
    ltt = -np.log1p(lam / tau)  # log(tau / (lam + tau))
    with np.errstate(divide="ignore", invalid="ignore"):
        # lam underflowing to 0 leaves no mass at y > 0: log(0) = -inf
        ylog = np.where(y > 0, y * (np.log(lam) + ltt), 0.0)
    rows = Ly + tau * ltt + ylog
    u = y - lam * (y + tau) / denom
    dt = Dy + ltt + (lam - y) / denom
    if not Ty.size:
        return rows, u, dt
    r, e = lam / denom, (y - lam) / denom
    return rows, u, dt, -r * (tau / denom) * (y + tau), r * e, r / tau + e / denom - Ty


def zinb_loglik_score_numpy(y, lam, p, tau, Ly, Dy, Ty):
    nb, u, dt, *second = nb_loglik_score_numpy(y, lam, tau, Ly, Dy, Ty)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.log(np.where(y == 0.0, p, 0.0))  # log p; -inf where y > 0
        b = nb + np.log1p(-p)  # log((1-p) P_NB(y))
        rows = np.logaddexp(a, b)
        mixed = a > -np.inf
        pi0 = np.where(mixed, np.exp(a - rows), 0.0)
        w0 = np.where(mixed, np.exp(b - rows), 1.0)
        v = np.where(mixed, pi0 * (1.0 - p) * -np.expm1(nb), -p)
        if second:
            m = w0 * pi0  # w0 (1 - w0), free of its cancellation
            mu, mdt = m * u, m * dt
            ee, et, tt = second
            second = [
                w0 * ee + mu * u, -mu, w0 * et + mu * dt,
                v * (1.0 - 2.0 * p - v), -mdt, w0 * tt + mdt * dt,
            ]
    u *= w0
    dt *= w0
    return rows, u, v, dt, *second


# ---------------------------------------------------------------------------
# numba implementations: scalar loops, compiled only when numba is importable


def _nb_row(yi, li, tau, Li, Di, Ti):
    """One NB row: log pmf, derivatives in eta and tau, then the second
    derivatives (ee, et, tt), the last of which needs Ti = T[y]."""
    denom = li + tau
    ltt = -math.log1p(li / tau)
    if yi == 0.0:
        ylog = 0.0
    elif li > 0.0:
        ylog = yi * (math.log(li) + ltt)
    else:
        ylog = -math.inf
    r = li / denom
    e = (yi - li) / denom
    return (
        Li + tau * ltt + ylog,
        yi - li * (yi + tau) / denom,
        Di + ltt + (li - yi) / denom,
        -r * (tau / denom) * (yi + tau),
        r * e,
        r / tau + e / denom - Ti,
    )


def _nb_loglik_score_loop(y, lam, tau, Ly, Dy, Ty):
    n, hessian = y.shape[0], Ty.shape[0] > 0
    out = np.empty((6 if hessian else 3, n))
    for i in range(n):
        terms = _nb_row(y[i], lam[i], tau, Ly[i], Dy[i], Ty[i] if hessian else 0.0)
        for j in range(out.shape[0]):
            out[j, i] = terms[j]
    return out


def _zinb_loglik_score_loop(y, lam, p, tau, Ly, Dy, Ty):
    n, hessian = y.shape[0], Ty.shape[0] > 0
    out = np.empty((10 if hessian else 4, n))
    for i in range(n):
        pi = p[i]
        nb, u, dt, ee, et, tt = _nb_row(y[i], lam[i], tau, Ly[i], Dy[i], Ty[i] if hessian else 0.0)
        row = nb + (math.log1p(-pi) if pi < 1.0 else -math.inf)
        pi0, w0, v = 0.0, 1.0, -pi
        if y[i] == 0.0 and pi > 0.0:
            a, b = math.log(pi), row
            row = max(a, b) + math.log1p(math.exp(-abs(a - b)))
            pi0, w0 = math.exp(a - row), math.exp(b - row)
            v = pi0 * (1.0 - pi) * -math.expm1(nb)
        m = w0 * pi0
        mu, mdt = m * u, m * dt
        terms = (
            row, w0 * u, v, w0 * dt,
            w0 * ee + mu * u, -mu, w0 * et + mu * dt,
            v * (1.0 - 2.0 * pi - v), -mdt, w0 * tt + mdt * dt,
        )
        for j in range(out.shape[0]):
            out[j, i] = terms[j]
    return out


try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    _HAVE_NUMBA = False

if _HAVE_NUMBA:
    # rebound first: the compiled loops resolve this global when they compile
    _nb_row = njit(cache=True)(_nb_row)
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


def nb_loglik_score(counts, lam, tau, hessian=False):
    """NB row log pmf and its derivatives in eta and tau: (rows, u, dt),
    then with ``hessian`` the second derivatives (ee, et, tt)."""
    return _nb_kernel(counts.y, lam, tau, *_count_terms(counts, tau, hessian))


def zinb_loglik_score(counts, lam, p, tau, hessian=False):
    """ZINB row log pmf and its derivatives in eta, logit(p) and tau:
    (rows, u, v, dt), then with ``hessian`` the second derivatives
    (ee, es, et, ss, st, tt)."""
    return _zinb_kernel(counts.y, lam, p, tau, *_count_terms(counts, tau, hessian))


def nb_logpmf(y, lam, tau):
    return nb_loglik_score(Counts(y), lam, tau)[0]


def zinb_logpmf(y, lam, p, tau):
    return zinb_loglik_score(Counts(y), lam, p, tau)[0]


def warm_up():
    """Trigger JIT compilation of every kernel (no-op on the numpy backend)."""
    y = Counts([0.0, 3.0])
    lam = np.array([0.5, 2.0])
    p = np.array([0.0, 0.3])
    nb_loglik_score(y, lam, 1.5)
    zinb_loglik_score(y, lam, p, 1.5)
