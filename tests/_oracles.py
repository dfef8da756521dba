"""Independent high-precision oracles for the test suite.

Everything here but `hessian_fd` is computed with mpmath from the
closed-form definitions, never through the package's own code paths, so
agreement between the two is a real check rather than a tautology.
`hessian_fd` differentiates the package's analytic gradient, which the
tests check in turn against differences of the likelihood.
"""

import mpmath as mp
import numpy as np

mp.mp.dps = 40


def nb_log_pmf(y: int, lam, tau) -> float:
    y, lam, tau = mp.mpf(y), mp.mpf(lam), mp.mpf(tau)
    value = (
        mp.loggamma(y + tau)
        - mp.loggamma(y + 1)
        - mp.loggamma(tau)
        + tau * mp.log(tau / (lam + tau))
        + y * mp.log(lam / (lam + tau))
    )
    return float(value)


def zinb_log_pmf(y: int, lam, p, tau) -> float:
    lam, p, tau = mp.mpf(lam), mp.mpf(p), mp.mpf(tau)
    if y == 0:
        return float(mp.log(p + (1 - p) * (1 + lam / tau) ** (-tau)))
    return float(mp.log(1 - p)) + nb_log_pmf(y, lam, tau)


def zinb_zero_score_logit(lam, p, tau) -> float:
    """d/ds log P_ZINB(0) in s = logit(p): p (1-p) (1 - P_NB(0)) / P_ZINB(0)."""
    lam, p, tau = mp.mpf(lam), mp.mpf(p), mp.mpf(tau)
    nb0 = (1 + lam / tau) ** (-tau)
    return float(p * (1 - p) * (1 - nb0) / (p + (1 - p) * nb0))


def poisson_pmf(y: int, lam) -> float:
    lam = mp.mpf(lam)
    return float(mp.e ** (-lam) * lam**y / mp.factorial(y))


def chi2_sf_quad(x, df) -> float:
    """Upper-tail chi-square probability by quadrature of the density."""
    x, df = mp.mpf(x), mp.mpf(df)

    def density(t):
        return t ** (df / 2 - 1) * mp.e ** (-t / 2) / (2 ** (df / 2) * mp.gamma(df / 2))

    return float(mp.quad(density, [x, mp.inf]))


def logistic(s) -> float:
    return float(1 / (1 + mp.e ** (-mp.mpf(s))))


def hessian_fd(grad_fn, x, rel_step=1e-5):
    """Symmetrized central-difference Hessian from a gradient callable, with
    step rel_step * max(1, |x_j|) in coordinate j."""
    x = np.asarray(x, dtype=np.float64)
    hess = np.empty((x.size, x.size))
    for j in range(x.size):
        h = rel_step * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        hess[:, j] = (grad_fn(xp) - grad_fn(xm)) / (2.0 * h)
    return 0.5 * (hess + hess.T)


# frozen values (recomputable via the functions above; dps=40)
NB_LOG_PMF_3_2_5 = -1.8853020271027550
NB_LOG_PMF_7_HALF_03 = -6.0573410134849075
ZINB_LOG_PMF_0_3_025_2 = -0.9942522733438669
ZINB_LOG_PMF_5_3_025_2 = -2.8826321858019895
CHI2_SF_20_3RDS_1 = 0.009823274507519248

# log-likelihood of a fixed 6-row, intercept+slope configuration per family,
# summed term by term in mpmath (beta=(0.3, 0.4), gamma0=-0.6, tau=1.7)
LL6_Y = (0, 1, 3, 0, 2, 5)
LL6_X = (-0.5, 0.2, 1.0, -1.3, 0.7, 1.9)
LL6_BETA = (0.3, 0.4)
LL6_GAMMA0 = -0.6
LL6_TAU = 1.7
LL6_POISSON = -8.388534825530905
LL6_NB = -9.326151574224951
LL6_ZINB = -10.402113282730788
