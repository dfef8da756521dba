"""Backend kernels: numpy/numba agreement, scores vs finite differences."""

import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy.special import digamma, expit, gammaln

from countreg import _kernels
from countreg.distributions import NbParams, nb_log_pmf

import _oracles


def _random_grid(seed, n=64):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 30, size=n).astype(float)
    lam = rng.uniform(0.05, 20.0, size=n)
    p = rng.uniform(0.0, 0.95, size=n)
    tau = float(rng.uniform(0.1, 30.0))
    return y, lam, p, tau


LARGE_TAUS = (1e8, 1e12, 1e15)  # near the Poisson limit, where lgamma differences cancel


def _loop_kernels():
    """The scalar-loop kernels to check against numpy: the plain Python loop
    bodies always, and their compiled versions when numba is importable."""
    loops = [(_kernels._nb_loglik_score_loop, _kernels._zinb_loglik_score_loop)]
    if _kernels._HAVE_NUMBA:
        loops.append((_kernels.nb_loglik_score_numba, _kernels.zinb_loglik_score_numba))
    return loops


def _nb_numpy(y, lam, tau):
    return _kernels.nb_loglik_score_numpy(y, lam, tau, *_kernels._count_terms(y, tau))


def _zinb_numpy(y, lam, p, tau):
    return _kernels.zinb_loglik_score_numpy(y, lam, p, tau, *_kernels._count_terms(y, tau))


class TestNumpyKernels:
    def test_digamma_diff_matches_scipy(self):
        y, _, _, tau = _random_grid(1)
        got = _kernels._count_terms(y, tau)[1]
        want = digamma(y + tau) - digamma(tau)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_digamma_diff_large_tau(self):
        # rational-sum form must not cancel at tau >> y
        y = np.array([0.0, 1.0, 7.0])
        got = _kernels._count_terms(y, 1e8)[1]
        want = np.array([0.0, 1e-8, sum(1.0 / (1e8 + k) for k in range(7))])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_nb_logpmf_matches_oracle(self):
        y, lam, _, grid_tau = _random_grid(2, n=16)
        cases = [(y, lam, tau) for tau in (grid_tau, *LARGE_TAUS)]
        # a large count, where rounding accumulates along the log1p sum
        cases.append((np.array([2e4]), np.array([1.8e4]), 0.5))
        for y, lam, tau in cases:
            got = _nb_numpy(y, lam, tau)[0]
            want = [_oracles.nb_log_pmf(int(v), m, tau) for v, m in zip(y, lam)]
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11)

    def test_zinb_logpmf_matches_oracle(self):
        y, lam, p, grid_tau = _random_grid(3, n=16)
        for tau in (grid_tau, *LARGE_TAUS):
            got = _zinb_numpy(y, lam, p, tau)[0]
            want = [
                _oracles.zinb_log_pmf(int(v), m, q, tau) for v, m, q in zip(y, lam, p)
            ]
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11)

    def test_counts_past_the_table_match_oracle(self):
        # rows above the table take closed forms: (di)gamma differences at
        # small tau, Stirling series at large tau
        y = np.array([5e3, 1e5, 1e6, 1e9])
        lam = 1.05 * y
        for tau in (0.5, 2.0, 50.0, 1e3, 1e4, 1e8, 1e15):
            rows = _nb_numpy(y, lam, tau)[0]
            want = [_oracles.nb_log_pmf(int(v), m, tau) for v, m in zip(y, lam)]
            # any float64 evaluation carries the rounding of lgamma(y + 1)
            np.testing.assert_array_less(np.abs(rows - want), 1e-15 * gammaln(y + 1))
            got = _kernels._count_terms(y, tau)[1]
            want = [float(mp.digamma(int(v) + mp.mpf(tau)) - mp.digamma(tau)) for v in y]
            np.testing.assert_allclose(got, want, rtol=1e-14)
        got = nb_log_pmf(10**9, NbParams(1e9, 2.0))
        assert math.isfinite(got)
        assert got == pytest.approx(_oracles.nb_log_pmf(10**9, 1e9, 2.0), rel=1e-6)

    def test_nb_grad_rows_match_finite_differences(self):
        y, lam, _, tau = _random_grid(4, n=24)
        _, u, dt = _nb_numpy(y, lam, tau)
        h = 1e-6
        # u is the derivative in eta = log(lam)
        up = _nb_numpy(y, lam * math.exp(h), tau)[0]
        dn = _nb_numpy(y, lam * math.exp(-h), tau)[0]
        np.testing.assert_allclose(u, (up - dn) / (2 * h), rtol=1e-7, atol=1e-7)
        up = _nb_numpy(y, lam, tau + h)[0]
        dn = _nb_numpy(y, lam, tau - h)[0]
        np.testing.assert_allclose(dt, (up - dn) / (2 * h), rtol=1e-6, atol=1e-6)

    def test_zinb_grad_rows_match_finite_differences(self):
        y, lam, p, tau = _random_grid(5, n=24)
        _, u, v, dt = _zinb_numpy(y, lam, p, tau)
        h = 1e-6
        up = _zinb_numpy(y, lam * math.exp(h), p, tau)[0]
        dn = _zinb_numpy(y, lam * math.exp(-h), p, tau)[0]
        np.testing.assert_allclose(u, (up - dn) / (2 * h), rtol=1e-6, atol=1e-6)
        # v is the derivative in s = logit(p)
        s = np.log(p / (1 - p), where=p > 0, out=np.full_like(p, -50.0))
        up = _zinb_numpy(y, lam, expit(s + h), tau)[0]
        dn = _zinb_numpy(y, lam, expit(s - h), tau)[0]
        np.testing.assert_allclose(v, (up - dn) / (2 * h), rtol=1e-5, atol=1e-6)
        up = _zinb_numpy(y, lam, p, tau + h)[0]
        dn = _zinb_numpy(y, lam, p, tau - h)[0]
        np.testing.assert_allclose(dt, (up - dn) / (2 * h), rtol=1e-6, atol=1e-6)

    def test_zinb_grad_zero_rows_at_p_zero(self):
        # the structural-zero weight collapses to plain NB when p == 0
        y = np.zeros(3)
        lam = np.array([0.5, 2.0, 8.0])
        p = np.zeros(3)
        tau = 1.3
        rows, u, v, dt = _zinb_numpy(y, lam, p, tau)
        rows_nb, u_nb, dt_nb = _nb_numpy(y, lam, tau)
        np.testing.assert_allclose(rows, rows_nb, rtol=1e-12)
        np.testing.assert_allclose(u, u_nb, rtol=1e-12)
        np.testing.assert_allclose(dt, dt_nb, rtol=1e-12)
        np.testing.assert_allclose(v, 0.0, atol=1e-15)


class TestBackendAgreement:
    """The scalar-loop kernels must agree with the numpy reference to rounding.

    The loops are plain Python functions that the numba backend compiles, so
    this runs with or without numba; with numba it checks the compiled loops
    too.
    """

    @staticmethod
    def _check(y, lam, p, tau):
        terms = _kernels._count_terms(y, tau)
        want_nb = _kernels.nb_loglik_score_numpy(y, lam, tau, *terms)
        want_zinb = _kernels.zinb_loglik_score_numpy(y, lam, p, tau, *terms)
        for nb_loop, zinb_loop in _loop_kernels():
            got_nb = nb_loop(y, lam, tau, *terms)
            got_zinb = zinb_loop(y, lam, p, tau, *terms)
            for got, want in ((got_nb, want_nb), (got_zinb, want_zinb)):
                # rows to the log-pmf bound, score pieces to the score bound
                np.testing.assert_allclose(got[0], want[0], rtol=1e-13, atol=1e-13)
                for g, w in zip(got[1:], want[1:]):
                    np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("seed", [11, 12, 13, 14, 15, 16])
    def test_loglik_score_agreement(self, seed):
        self._check(*_random_grid(seed))

    def test_agreement_on_edge_rows(self):
        # structural-zero probability at 0 and 1, and a mean underflowed to 0
        y = np.array([0.0, 0.0, 4.0, 4.0, 0.0, 3.0])
        lam = np.array([2.0, 2.0, 2.0, 2.0, 0.0, 0.0])
        p = np.array([0.0, 1.0, 0.0, 1.0, 0.4, 0.4])
        self._check(y, lam, p, 1.7)

    def test_agreement_large_tau(self):
        y = np.arange(0.0, 25.0)
        lam = np.linspace(0.1, 12.0, y.size)
        p = np.linspace(0.0, 0.9, y.size)
        for tau in (1e-3, 1.0, 1e4, 1e8, *LARGE_TAUS):
            self._check(y, lam, p, tau)


class TestBackendSelection:
    def test_backend_is_known(self):
        assert _kernels.BACKEND in ("numpy", "numba")

    def test_public_bindings_work(self):
        y = np.array([0.0, 3.0])
        lam = np.array([1.0, 2.0])
        p = np.array([0.2, 0.4])
        out = _kernels.nb_logpmf(y, lam, 1.5)
        assert out.shape == (2,)
        out = _kernels.zinb_logpmf(y, lam, p, 1.5)
        assert out.shape == (2,)

    def test_opt_out_env_flag_forces_numpy(self):
        env = dict(os.environ, COUNTREG_NO_NUMBA="1")
        code = "from countreg import _kernels; print(_kernels.BACKEND)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "numpy"

    def test_default_env_uses_numba_when_available(self):
        if not _kernels._HAVE_NUMBA:
            pytest.skip("numba not importable")
        env = {k: v for k, v in os.environ.items() if k != "COUNTREG_NO_NUMBA"}
        code = "from countreg import _kernels; print(_kernels.BACKEND)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "numba"
