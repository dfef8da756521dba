"""Fused per-observation likelihood kernels: numba backend, numpy fallback.

NB and ZINB each have one kernel that returns the row log pmf with its
first and second derivatives in a single pass over the rows, as the rows of
one 2-D block (Poisson's three rows, [rows, u, ee], are formed by numpy in
`fitting._row_terms`, for both backends):

    nb_loglik_score(counts, lam, tau)      -> [rows, u, dt, ee, et, tt]
    zinb_loglik_score(counts, lam, p, tau) -> [rows, u, v, dt, ee, es, et, ss, st, tt]

``u``, ``v`` and ``dt`` are the derivatives of the row log pmf in
eta = log(lam), s = logit(p) and tau, and the rest the upper triangle of
the row Hessian in (eta, tau) or (eta, s, tau).  ``nb_logpmf``/``zinb_logpmf``
take the response as an array and return a copy of the ``rows`` for pmf
callers.

``Counts(y)`` is the response prepared once, since none of it depends on the
parameters: the counts as float64, each row's index into the count table
below, the rows past that table, the rows where y = 0, and log(y!) per row,
which the Poisson, NB and ZINB log pmfs all subtract.  log(y!) is that
table's L at tau = 1, sum_{j<y} log1p(j) = log(y!), with the series past K,
which is Stirling's there; it is the one log(y!) of the package, and
``Counts`` asks the table for L alone.  The fitter builds one ``Counts``
per fit.

A ``Counts`` also keeps the row buffers of its evaluations (`Counts.buffer`),
made on first use and reused by every later call: the kernel's output block,
the numpy kernels' work rows, and the fitter's predictors and weighted
designs.  Every n-sized intermediate is written into them with ``out=``, so
an evaluation allocates no row-sized array but the series' temporaries past
the count table below (the size of the rows it misses).  A kernel's result
is its block itself, which the next call on the same ``Counts`` overwrites.

Every other count-only term comes from one table per call over
k = 0..min(max y, K), gathered at y into the output block before either
backend runs (`_count_terms`; the first row then subtracts log(y!)):

    L[k] = sum_{j<k} log1p(j / tau)
         = lgamma(k + tau) - lgamma(tau) - k log(tau)
    D[k] = sum_{j<k} 1 / (tau + j)   = psi(k + tau) - psi(tau)
    T[k] = sum_{j<k} 1 / (tau + j)^2 = psi'(tau) - psi'(k + tau)

The table holds three cumulative sums, compensated for rounding
(`_prefix_sums`); none cancels like a (poly)gamma difference at large tau.
It stops at K = 256 (``_TABLE_MAX``): a larger count adds to the entry at K
one asymptotic series from K + tau to y + tau, the same form at every tau.
A kernel call costs O(n + min(max y, 256)) time.

A ZINB row is Lambert's (1992) two-component mixture, l = logaddexp(a, b)
with a = log p where y = 0 and -inf where y > 0, and b = l_NB + log1p(-p).
Where a > -inf, pi0 = exp(a - l) is the posterior probability of a
structural zero and w0 = exp(b - l) that of the NB component; elsewhere
pi0 = 0 and w0 = 1 exactly, so a positive row is the NB row plus log1p(-p)
with the NB scores.  The NB scores u and dt are scaled by w0, v is
pi0 (1 - p) (1 - P_NB(0)) on mixed rows and -p elsewhere, and the second
derivatives add m = w0 pi0 times products of the NB scores to w0 times the
NB ones.  The numpy kernel evaluates the mixture (log p, logaddexp, the two
exps and v) only on the y = 0 rows, gathered in their order through the
indices ``Counts`` fixes once, and scatters the results back; the y > 0 rows
take the exact values above.  The combination with the NB scores runs over
all rows.

Each kernel exists twice: a vectorized numpy version and a scalar loop
written as plain Python, compiled with ``numba.njit`` when numba is
importable (the loops also run, slowly, under CPython, which the agreement
tests use).  The loops compute the same mixture, with one test per row for
the mixed case.  Both fill the same output block in place, which on entry
holds L[y] - log(y!) in its first row, D[y] in the row of dt and T[y] in
its last row; the numpy kernels take the ``Counts``, the loops its float
counts.  The backend is chosen once at import time: numba when it is
importable, numpy when it is not or when the environment variable
``COUNTREG_NO_NUMBA`` is set to a non-empty value other than ``"0"``.
``BACKEND`` names the choice.

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
_WORK_ROWS = 5  # the numpy kernels' scratch rows: 3 for NB, 5 for ZINB


class Counts:
    """A response prepared once for the kernels.

    ``y`` is the counts as float64, ``k`` each row's index into the tables
    over the counts ``k_all`` = 0..min(max y, K), ``big`` the indices of the
    rows past the table, whose k is K, the anchor of their series, ``zeros``
    the indices of the rows where y = 0, and ``log_fact`` log(y!) per row,
    the count terms' L[y] at tau = 1.
    """

    def __init__(self, y):
        self.y = np.asarray(y, dtype=np.float64)
        past = self.y > _TABLE_MAX
        self.big = np.flatnonzero(past)
        self.k = np.full(self.y.size, _TABLE_MAX, dtype=np.intp)  # one n-array, no float temporary
        np.copyto(self.k, self.y, casting="unsafe", where=~past)
        self.k_all = np.arange(self.k.max(initial=0) + 1.0)
        self.zeros = np.flatnonzero(self.y == 0.0)
        self._buffers = {}
        self.log_fact = _count_terms(self, 1.0, [np.empty(self.y.size)])[0]

    def buffer(self, name, shape, dtype=np.float64):
        """An uninitialized array of ``shape``, made on the first request for
        ``name`` at that shape and returned by every later one."""
        key = (name, shape, dtype)
        if key not in self._buffers:
            self._buffers[key] = np.empty(shape, dtype)
        return self._buffers[key]


def _count_terms(counts, tau, out):
    """Write L[y] per row of ``counts`` into ``out[0]`` and, when ``out``
    holds three rows, D[y] and T[y] into the other two; see above.

    A row past the table adds to its entry at K the differences of the
    asymptotic series (`_series_tails`) between x0 = K + tau and x1 = y + tau.
    Both are at least K, so the series reach float precision at every tau;
    written in r = 1/x, no power of tau can overflow.
    """
    k, j = counts.k, counts.k_all[:-1]
    recip = 1.0 / (tau + j)
    tables = [_prefix_sums(np.log1p(j / tau)), _prefix_sums(recip), _prefix_sums(recip * recip)]
    for table, row in zip(tables, out):
        np.take(table, k, out=row, mode="clip")  # k is in range; "clip" takes no copy
    big = counts.big
    if big.size:  # the table runs to K, its entries there anchor the series
        yb = counts.y[big]
        m, r0, r1 = yb - _TABLE_MAX, 1.0 / (_TABLE_MAX + tau), 1.0 / (yb + tau)
        dr = m * r0 * r1  # r0 - r1
        lq = np.log1p(m * r0)  # log((y + tau) / (K + tau))
        tails0, tails1 = _series_tails(r0), _series_tails(r1)
        c, g = math.log1p(_TABLE_MAX / tau) - 1.0, next(tails1) - next(tails0)
        out[0][big] = tables[0][-1] + ((yb + (tau - 0.5)) * lq + m * c - dr / 12 - g)
        if len(out) > 1:  # h, then q
            out[1][big] = tables[1][-1] + (lq + dr / 2 + next(tails0) - next(tails1))
            out[2][big] = tables[2][-1] + (dr + next(tails0) - next(tails1))
    return out


def _prefix_sums(terms):
    """Sums of the first 0..n ``terms``, each corrected by the exact rounding
    errors of the additions before it (Knuth's TwoSum)."""
    s = np.concatenate(([0.0], np.cumsum(terms)))
    a, b = s[1:-1], s[2:]
    z = b - a
    s[2:] += np.cumsum((a - (b - z)) + (terms[1:] - z))
    return s


def _series_tails(r):
    """Yield g, h and q at r = 1/x, each when it is asked for, of the asymptotic series
    (Abramowitz & Stegun 6.1.41, 6.3.18, 6.4.12) psi(x) = log x - r/2 - h, psi'(x) = r + q
    and lgamma(x) = (x - 1/2) log x - x + log(2 pi)/2 + r/12 - g."""
    r2 = r * r
    yield r * r2 * (1 / 360 - r2 * (1 / 1260 - r2 / 1680))
    yield r2 * (1 / 12 - r2 * (1 / 120 - r2 / 252))
    yield r2 * (0.5 + r * (1 / 6 - r2 * (1 / 30 - r2 * (1 / 42 - r2 / 30))))


# ---------------------------------------------------------------------------
# numpy implementations: each step writes into a row of the output block or
# of the work rows, in the order of the formula it computes, so a row gets
# the same bits as the formula written out in array expressions


def nb_loglik_score_numpy(counts, lam, tau, out):
    """Fill the NB rows ``out`` = [rows, u, dt, ee, et, tt] in place; rows,
    dt and tt hold L[y] - log(y!), D[y] and T[y] on entry."""
    y = counts.y
    rows, u, dt, ee, et, tt = out
    denom, ltt, t = counts.buffer("work", (_WORK_ROWS, y.size))[:3]
    np.add(lam, tau, out=denom)
    np.negative(np.log1p(np.divide(lam, tau, out=ltt), out=ltt), out=ltt)  # log(tau / denom)
    rows += np.multiply(tau, ltt, out=t)
    with np.errstate(divide="ignore", invalid="ignore"):
        # lam underflowing to 0 leaves no mass at y > 0: log(0) = -inf
        ylog = np.multiply(np.add(np.log(lam, out=t), ltt, out=t), y, out=t)
    ylog[counts.zeros] = 0.0
    rows += ylog
    np.multiply(np.add(y, tau, out=u), lam, out=u)
    u /= denom
    np.subtract(y, u, out=u)
    dt += ltt
    dt += np.divide(np.subtract(lam, y, out=t), denom, out=t)
    r = np.divide(lam, denom, out=ltt)
    e = np.divide(np.subtract(y, lam, out=t), denom, out=t)
    np.negative(np.multiply(np.divide(tau, denom, out=ee), r, out=ee), out=ee)
    ee *= np.add(y, tau, out=et)
    np.multiply(r, e, out=et)
    r /= tau
    r += np.divide(e, denom, out=e)
    np.subtract(r, tt, out=tt)


def zinb_loglik_score_numpy(counts, lam, p, tau, out):
    """Fill the ZINB rows ``out`` = [rows, u, v, dt, ee, es, et, ss, st, tt]
    in place; rows, dt and tt hold L[y] - log(y!), D[y] and T[y] on entry."""
    nb_loglik_score_numpy(counts, lam, tau, [out[i] for i in (0, 1, 3, 4, 6, 9)])
    rows, u, v, dt, ee, es, et, ss, st, tt = out
    zeros = counts.zeros
    work = counts.buffer("work", (_WORK_ROWS, rows.size))
    # the y = 0 rows: p, l_NB, b, a = log p and l, in that order
    pz, nbz, bz, az, lz = (row[: zeros.size] for row in work)
    unmixed = counts.buffer("unmixed", zeros.shape, np.bool_)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.take(p, zeros, out=pz, mode="clip")
        np.take(rows, zeros, out=nbz, mode="clip")
        rows += np.log1p(np.negative(p, out=v), out=v)  # b = log((1-p) P_NB(y)), l where y > 0
        np.take(rows, zeros, out=bz, mode="clip")
        np.log(pz, out=az)
        rows[zeros] = np.logaddexp(az, bz, out=lz)
        np.logical_not(np.greater(az, -np.inf, out=unmixed), out=unmixed)
        pi0z = np.exp(np.subtract(az, lz, out=az), out=az)
        np.copyto(pi0z, 0.0, where=unmixed)
        w0z = np.exp(np.subtract(bz, lz, out=bz), out=bz)
        np.copyto(w0z, 1.0, where=unmixed)
        vz = np.multiply(np.multiply(np.subtract(1.0, pz, out=lz), pi0z, out=lz),
                         np.negative(np.expm1(nbz, out=nbz), out=nbz), out=lz)
        np.copyto(vz, np.negative(pz, out=pz), where=unmixed)
        np.negative(p, out=v)[zeros] = vz
        w0 = work[0]  # past the y = 0 rows' p
        w0.fill(1.0)
        w0[zeros] = w0z
        m = work[1]  # past l_NB: w0 pi0 = w0 (1 - w0), free of its cancellation
        m.fill(0.0)
        m[zeros] = pi0z
        m *= w0
        mu, mdt = np.multiply(m, u, out=es), np.multiply(m, dt, out=st)
        t = work[2]  # past b
        ee *= w0
        ee += np.multiply(mu, u, out=t)
        et *= w0
        et += np.multiply(mu, dt, out=t)
        tt *= w0
        tt += np.multiply(mdt, dt, out=t)
        np.negative(mu, out=es)
        np.negative(mdt, out=st)
        np.subtract(1.0, np.multiply(2.0, p, out=ss), out=ss)
        ss -= v
        ss *= v
    u *= w0
    dt *= w0


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


def _nb_loglik_score_loop(y, lam, tau, out):
    for i in range(y.shape[0]):
        terms = _nb_row(y[i], lam[i], tau, out[0, i], out[2, i], out[5, i])
        for j in range(out.shape[0]):
            out[j, i] = terms[j]


def _zinb_loglik_score_loop(y, lam, p, tau, out):
    for i in range(y.shape[0]):
        pi = p[i]
        nb, u, dt, ee, et, tt = _nb_row(y[i], lam[i], tau, out[0, i], out[3, i], out[9, i])
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


def _output_block(counts, tau, rows, dt):
    """The kernel output block of ``rows`` rows kept on ``counts``, with
    L[y] - log(y!) in its first row, D[y] in row ``dt`` and T[y] in its
    last row."""
    out = counts.buffer("rows", (rows, counts.y.size))
    _count_terms(counts, tau, [out[0], out[dt], out[-1]])[0] -= counts.log_fact
    return out


def nb_loglik_score(counts, lam, tau):
    """NB row log pmf, its derivatives in eta and tau (rows, u, dt) and
    their second derivatives (ee, et, tt), as the rows of a block kept on
    ``counts``."""
    out = _output_block(counts, tau, 6, 2)
    if BACKEND == "numba":
        nb_loglik_score_numba(counts.y, lam, tau, out)
    else:
        nb_loglik_score_numpy(counts, lam, tau, out)
    return out


def zinb_loglik_score(counts, lam, p, tau):
    """ZINB row log pmf, its derivatives in eta, logit(p) and tau
    (rows, u, v, dt) and their second derivatives (ee, es, et, ss, st, tt),
    as the rows of a block kept on ``counts``."""
    out = _output_block(counts, tau, 10, 3)
    if BACKEND == "numba":
        zinb_loglik_score_numba(counts.y, lam, p, tau, out)
    else:
        zinb_loglik_score_numpy(counts, lam, p, tau, out)
    return out


def nb_logpmf(y, lam, tau):
    return nb_loglik_score(Counts(y), np.asarray(lam, dtype=np.float64), tau)[0].copy()


def zinb_logpmf(y, lam, p, tau):
    lam, p = (np.asarray(a, dtype=np.float64) for a in (lam, p))
    return zinb_loglik_score(Counts(y), lam, p, tau)[0].copy()


def warm_up():
    """Trigger JIT compilation of every kernel (no-op on the numpy backend)."""
    y = Counts([0.0, 3.0])
    lam = np.array([0.5, 2.0])
    p = np.array([0.0, 0.3])
    nb_loglik_score(y, lam, 1.5)
    zinb_loglik_score(y, lam, p, 1.5)
