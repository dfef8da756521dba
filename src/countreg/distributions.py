"""Log pmf, moments, and seeded sampling for Poisson, NB, and ZINB counts.

Parameterization: the NB mean is ``lam`` and the shape is ``tau``, giving
variance ``lam + lam**2 / tau``; the Poisson distribution is the ``tau -> inf``
limit.  The ZINB mixes a point mass at zero (probability ``p``) with an NB
count.  All pmf evaluation happens in log space through the kernels in
:mod:`countreg._kernels`; raw gamma ratios are never formed.  The Poisson
log pmf takes its log(y!) there too, from ``_kernels.Counts``, the value
every fitted log-likelihood subtracts.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ParameterDomainError

# shape values at or below this are treated as out of domain rather than
# clamped, so optimizer pathologies surface instead of being masked
TAU_MIN = 1e-10


def _check_lam_tau(lam, tau):
    if not (math.isfinite(lam) and lam > 0.0):
        raise ParameterDomainError(f"mean must be finite and positive, got {lam!r}")
    if not (math.isfinite(tau) and tau > TAU_MIN):
        raise ParameterDomainError(
            f"shape must be finite and greater than {TAU_MIN}, got {tau!r}"
        )


@dataclass(frozen=True)
class NbParams:
    """NB parameters: mean ``lam`` > 0 and shape ``tau`` > 0."""

    lam: float
    tau: float

    def __post_init__(self):
        _check_lam_tau(self.lam, self.tau)


@dataclass(frozen=True)
class ZinbParams:
    """ZINB parameters: NB count part plus structural-zero probability p in [0, 1)."""

    nb: NbParams
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and 0.0 <= self.p < 1.0):
            raise ParameterDomainError(
                f"structural-zero probability must lie in [0, 1), got {self.p!r}"
            )


def _check_count(y):
    if y != int(y) or y < 0:
        raise ParameterDomainError(f"count must be a nonnegative integer, got {y!r}")


def poisson_log_pmf(y: int, lam: float) -> float:
    """log P(Y = y) for a Poisson mean ``lam``."""
    _check_count(y)
    if not (math.isfinite(lam) and lam > 0.0):
        raise ParameterDomainError(f"mean must be finite and positive, got {lam!r}")
    log_fact = _kernels.Counts(np.array([float(y)])).log_fact[0]
    return float(y * math.log(lam) - lam - log_fact)


def nb_log_pmf(y: int, params: NbParams) -> float:
    """log P(Y = y) for the NB distribution.

    The gamma ratio comes from the kernels' count table and, past its end at
    y = 256, one asymptotic series; both stay accurate up to the Poisson
    limit of large ``tau``, and time and memory stop growing with y there.
    """
    _check_count(y)
    out = _kernels.nb_logpmf(
        np.array([float(y)]), np.array([params.lam]), params.tau
    )
    return float(out[0])


def zinb_log_pmf(y: int, params: ZinbParams) -> float:
    """log P(Y = y) for the ZINB distribution.

    The zero branch log(p + (1-p) * P_NB(0)) is evaluated with a two-term
    log-sum-exp so it stays accurate when p is near 0 or 1.
    """
    _check_count(y)
    out = _kernels.zinb_logpmf(
        np.array([float(y)]),
        np.array([params.nb.lam]),
        np.array([params.p]),
        params.nb.tau,
    )
    return float(out[0])


def nb_moments(params: NbParams) -> tuple[float, float]:
    """(mean, variance) = (lam, lam + lam**2 / tau)."""
    lam, tau = params.lam, params.tau
    return lam, lam + lam * lam / tau


def zinb_moments(params: ZinbParams) -> tuple[float, float]:
    """(mean, variance) = ((1-p) lam, (1-p) lam (1 + p lam + lam / tau))."""
    lam, tau = params.nb.lam, params.nb.tau
    p = params.p
    mean = (1.0 - p) * lam
    return mean, mean * (1.0 + p * lam + lam / tau)


# ---------------------------------------------------------------------------
# sampling

def nb_draws(rng: np.random.Generator, lam: np.ndarray, tau: float) -> np.ndarray:
    """NB draws with per-row means via the gamma-Poisson mixture.

    Exact for every tau > 0 (integer or not) and O(1) per draw: a rate is
    drawn from Gamma(shape=tau, mean=lam), then a Poisson count at that rate.
    The rates are standard gamma draws times lam / tau, the product that
    ``rng.gamma(tau, lam / tau)`` forms per draw, so the draws and the
    generator's state after them are the same, without its per-draw
    broadcast of the scale.
    """
    rate = rng.standard_gamma(tau, size=lam.shape) * (lam / tau)
    return rng.poisson(rate)


def zinb_draws(
    rng: np.random.Generator, lam: np.ndarray, p: np.ndarray, tau: float
) -> np.ndarray:
    """ZINB draws: a Bernoulli(p) structural-zero gate over NB draws."""
    structural = rng.random(lam.shape[0]) < p
    y = nb_draws(rng, lam, tau)
    y[structural] = 0
    return y


def sample_poisson(lam: float, n: int, seed: int) -> np.ndarray:
    """n i.i.d. Poisson draws, deterministic given seed."""
    if n < 1:
        raise ParameterDomainError(f"sample size must be at least 1, got {n}")
    if not (math.isfinite(lam) and lam > 0.0):
        raise ParameterDomainError(f"mean must be finite and positive, got {lam!r}")
    return np.random.default_rng(seed).poisson(lam, size=n)


def sample_nb(params: NbParams, n: int, seed: int) -> np.ndarray:
    """n i.i.d. NB draws, deterministic given seed."""
    if n < 1:
        raise ParameterDomainError(f"sample size must be at least 1, got {n}")
    rng = np.random.default_rng(seed)
    return nb_draws(rng, np.full(n, params.lam), params.tau)


def sample_zinb(params: ZinbParams, n: int, seed: int) -> np.ndarray:
    """n i.i.d. ZINB draws, deterministic given seed."""
    if n < 1:
        raise ParameterDomainError(f"sample size must be at least 1, got {n}")
    rng = np.random.default_rng(seed)
    return zinb_draws(
        rng, np.full(n, params.nb.lam), np.full(n, params.p), params.nb.tau
    )
