"""Backend kernels: numpy/numba agreement, scores vs finite differences."""

import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.special import digamma, expit, gammaln

import countreg
from countreg import _kernels, simulate
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
K = _kernels._TABLE_MAX  # the count table's last entry, the anchor of the series past it


def _same_numbers():
    """`tools/same_numbers.py`, for its recipes."""
    path = Path(__file__).resolve().parent.parent / "tools" / "same_numbers.py"
    spec = importlib.util.spec_from_file_location("same_numbers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _numpy_kernels():
    """The numpy kernels as functions of (y, lam, tau) and (y, lam, p, tau),
    returning the block they fill."""
    return _runners(_kernels.nb_loglik_score_numpy, _kernels.zinb_loglik_score_numpy, True)


def _loop_kernels():
    """The scalar-loop kernels to check against numpy, called as
    `_numpy_kernels`: the plain Python loop bodies always, and their compiled
    versions when numba is importable."""
    loops = [_runners(_kernels._nb_loglik_score_loop, _kernels._zinb_loglik_score_loop, False)]
    if _kernels._HAVE_NUMBA:
        loops.append(
            _runners(_kernels.nb_loglik_score_numba, _kernels.zinb_loglik_score_numba, False)
        )
    return loops


def _runners(nb_kernel, zinb_kernel, takes_counts):
    """Each kernel filling a fresh output block, NaN on entry but for the
    count terms, so a row the kernel leaves unwritten reads NaN;
    ``takes_counts`` for the numpy kernels, which take the Counts where the
    loops take its y."""

    def run(kernel, y, tau, rows, dt, *means):
        counts = _kernels.Counts(y)
        counts.buffer("rows", (rows, counts.y.size)).fill(np.nan)
        out = _kernels._output_block(counts, tau, rows, dt)
        kernel(counts if takes_counts else counts.y, *means, tau, out)
        return out

    def nb(y, lam, tau):
        return run(nb_kernel, y, tau, 6, 2, lam)

    def zinb(y, lam, p, tau):
        return run(zinb_kernel, y, tau, 10, 3, lam, p)

    return nb, zinb


def _count_terms(y, tau):
    """L[y] - log(y!), D[y] and T[y], as rows."""
    counts = _kernels.Counts(y)
    out = _kernels._count_terms(counts, tau, np.empty((3, len(y))))
    out[0] -= counts.log_fact
    return out


_nb_numpy, _zinb_numpy = _numpy_kernels()


class TestNumpyKernels:
    def test_digamma_diff_matches_scipy(self):
        y, _, _, tau = _random_grid(1)
        got = _count_terms(y, tau)[1]
        want = digamma(y + tau) - digamma(tau)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_digamma_diff_large_tau(self):
        # rational-sum form must not cancel at tau >> y
        y = np.array([0.0, 1.0, 7.0])
        got = _count_terms(y, 1e8)[1]
        want = np.array([0.0, 1e-8, sum(1.0 / (1e8 + k) for k in range(7))])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_log_factorial_matches_oracle(self):
        # log(y!) is the count table at tau = 1 up to K, within 1 ulp, and
        # past K its series, Stirling's, within 2 ulp
        y = np.array([0.0, 1.0, 7.0, K - 1, K, K + 1, 4096.0, 4097.0, 1e6, *range(K + 1)])
        for v, got in zip(y.tolist(), _kernels.Counts(y).log_fact.tolist()):
            want = mp.loggamma(int(v) + 1)
            ulps = 1 if v <= K else 2
            assert abs(got - want) <= ulps * math.ulp(float(want)), v
        assert _kernels.Counts(np.empty(0)).log_fact.shape == (0,)

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
        # rows above the table add one asymptotic series from K + tau to
        # y + tau to the table's entry at K, the same form at every tau
        y = np.array([K - 1, K, K + 1, 5e3, 1e5, 1e6, 1e9])
        lam = 1.05 * y
        for tau in (1e-10, 0.5, 2.0, 50.0, 1e3, 1e4, 1e8, 1e15):
            rows = _nb_numpy(y, lam, tau)[0]
            want = [_oracles.nb_log_pmf(int(v), m, tau) for v, m in zip(y, lam)]
            # any float64 evaluation carries the rounding of lgamma(y + 1)
            np.testing.assert_array_less(np.abs(rows - want), 1e-15 * gammaln(y + 1))
            got = _count_terms(y, tau)[1]
            want = [float(mp.digamma(int(v) + mp.mpf(tau)) - mp.digamma(tau)) for v in y]
            np.testing.assert_allclose(got, want, rtol=1e-14)
        got = nb_log_pmf(10**9, NbParams(1e9, 2.0))
        assert math.isfinite(got)
        assert got == pytest.approx(_oracles.nb_log_pmf(10**9, 1e9, 2.0), rel=1e-6)

    def test_trigamma_diff_matches_oracle(self):
        # T[y] = psi'(tau) - psi'(y + tau): the table, then past it the
        # table's entry at K plus the asymptotic series from K + tau to y + tau
        y = np.array([0.0, 1.0, 7.0, K - 1, K, K + 1, 4096.0, 5e3, 1e5, 1e6])
        for tau in (1e-10, 0.5, 2.0, 50.0, 999.0, 1e3, 1e4, 1e8, 1e15):
            got = _count_terms(y, tau)[2]
            want = [float(mp.psi(1, tau) - mp.psi(1, int(v) + mp.mpf(tau))) for v in y]
            np.testing.assert_allclose(got, want, rtol=2e-14, atol=0)

    def test_count_terms_fill_the_rows_given(self):
        # L, D and T, past the table too, and no row past them
        y, _, _, tau = _random_grid(21)
        y[:2] = (K + 1.0, 5e3)
        full = np.full((4, y.size), np.nan)
        _kernels._count_terms(_kernels.Counts(y), tau, full[:3])
        assert np.isfinite(full[:3]).all() and np.isnan(full[3]).all()

    @pytest.mark.parametrize("recipe", ["below-the-table", "heavy-tail"])
    def test_one_row_is_the_first_of_three(self, recipe):
        # L alone, as `Counts` asks for it, is bit for bit the L of the full call
        if recipe == "heavy-tail":
            y = simulate(_same_numbers()._heavy_tail(countreg, 1)).response_vector("y")
            assert (y > K).any()
        else:
            y = _random_grid(22, n=500)[0]
        counts = _kernels.Counts(y)
        for tau in (1.0, 0.5, 1e8):
            one = _kernels._count_terms(counts, tau, [np.empty(y.size)])
            three = _kernels._count_terms(counts, tau, np.empty((3, y.size)))
            assert len(one) == 1 and one[0].tobytes() == three[0].tobytes()

    def test_counts_build_log_factorial_alone(self):
        # y as float64, k, log(y!) and the y = 0 indices: no D or T row is made
        n = 200_000
        y = np.random.default_rng(5).poisson(1.0, n).astype(np.float64)
        tracemalloc.start()
        try:
            _kernels.Counts(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * n

    def test_digamma_and_trigamma_diffs_on_a_random_grid(self):
        # D and T to a few units of the last place at every tau and count:
        # the table's sums, where 1/tau can dwarf every later term, and the
        # series from K + tau past it
        rng = np.random.default_rng(909)
        taus = 10.0 ** rng.uniform(-10.0, 15.0, 120)
        ys = np.floor(10.0 ** rng.uniform(0.0, 7.0, 120))
        for tau, y in zip(taus.tolist(), ys.tolist()):
            _, D, T = _count_terms(np.array([y]), tau)
            x = int(y) + mp.mpf(tau)
            want_d = float(mp.digamma(x) - mp.digamma(tau))
            want_t = float(mp.psi(1, tau) - mp.psi(1, x))
            assert abs(D[0] - want_d) <= 5e-15 * abs(want_d), (tau, y)
            assert abs(T[0] - want_t) <= 5e-15 * abs(want_t), (tau, y)

    def test_nb_grad_rows_match_finite_differences(self):
        y, lam, _, tau = _random_grid(4, n=24)
        _, u, dt = _nb_numpy(y, lam, tau)[:3]
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
        _, u, v, dt = _zinb_numpy(y, lam, p, tau)[:4]
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
        rows, u, v, dt = _zinb_numpy(y, lam, p, tau)[:4]
        rows_nb, u_nb, dt_nb = _nb_numpy(y, lam, tau)[:3]
        np.testing.assert_allclose(rows, rows_nb, rtol=1e-12)
        np.testing.assert_allclose(u, u_nb, rtol=1e-12)
        np.testing.assert_allclose(dt, dt_nb, rtol=1e-12)
        np.testing.assert_allclose(v, 0.0, atol=1e-15)


class TestZinbMixture:
    """Every ZINB row is the mixture of a structural zero and an NB count;
    the structural-zero component is absent where y > 0."""

    def test_positive_rows_are_nb_rows(self):
        y, lam, p, tau = _random_grid(17)
        y += 1.0
        for nb_kernel, zinb_kernel in (_numpy_kernels(), *_loop_kernels()):
            rows_nb, u_nb, dt_nb = nb_kernel(y, lam, tau)[:3]
            rows, u, v, dt = zinb_kernel(y, lam, p, tau)[:4]
            assert np.array_equal(rows, rows_nb + np.log1p(-p))
            assert np.array_equal(u, u_nb)
            assert np.array_equal(dt, dt_nb)
            assert np.array_equal(v, -p)

    def test_zero_row_logit_score_matches_oracle(self):
        # 1 - P_NB(0) comes from expm1, so v keeps its digits as P_NB(0) -> 1
        lam, p = np.meshgrid(np.logspace(-10, 2, 13), np.logspace(-14, math.log10(0.99), 8))
        lam, p = lam.ravel(), p.ravel()
        y = np.zeros(lam.size)
        for tau in (0.3, 1.5, 40.0, 1e6):
            want = [_oracles.zinb_zero_score_logit(m, q, tau) for m, q in zip(lam, p)]
            for _, zinb_kernel in (_numpy_kernels(), *_loop_kernels()):
                v = zinb_kernel(y, lam, p, tau)[2]
                np.testing.assert_allclose(v, want, rtol=1e-12, atol=0)


def _reference_nb(y, lam, tau, Ly, Dy, Ty):
    """The NB rows as array expressions over all rows, each a fresh array:
    the formulas the numpy kernel writes into its buffers step by step."""
    denom = lam + tau
    ltt = -np.log1p(lam / tau)  # log(tau / (lam + tau))
    with np.errstate(divide="ignore", invalid="ignore"):
        ylog = np.where(y > 0, y * (np.log(lam) + ltt), 0.0)
    rows = Ly + tau * ltt + ylog
    u = y - lam * (y + tau) / denom
    dt = Dy + ltt + (lam - y) / denom
    r, e = lam / denom, (y - lam) / denom
    return rows, u, dt, -r * (tau / denom) * (y + tau), r * e, r / tau + e / denom - Ty


def _reference_zinb(y, lam, p, tau, Ly, Dy, Ty):
    """The ZINB rows with the mixture evaluated on every row, a = -inf
    where y > 0, and the y > 0 values picked by np.where."""
    nb, u, dt, ee, et, tt = _reference_nb(y, lam, tau, Ly, Dy, Ty)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.log(np.where(y == 0.0, p, 0.0))  # log p; -inf where y > 0
        b = nb + np.log1p(-p)  # log((1-p) P_NB(y))
        rows = np.logaddexp(a, b)
        mixed = a > -np.inf
        pi0 = np.where(mixed, np.exp(a - rows), 0.0)
        w0 = np.where(mixed, np.exp(b - rows), 1.0)
        v = np.where(mixed, pi0 * (1.0 - p) * -np.expm1(nb), -p)
        m = w0 * pi0
        mu, mdt = m * u, m * dt
        second = [
            w0 * ee + mu * u, -mu, w0 * et + mu * dt,
            v * (1.0 - 2.0 * p - v), -mdt, w0 * tt + mdt * dt,
        ]
    return rows, u * w0, v, dt * w0, *second


def _zero_heavy_grid(seed):
    y, lam, p, tau = _random_grid(seed)
    y[::2] = 0.0
    return y, lam, p, tau


class TestAgainstArrayExpressions:
    """The numpy kernels give the same bits as the array expressions they
    replace (`_reference_nb`, `_reference_zinb`), which evaluate every
    intermediate over all rows; np.array_equal takes 0.0 == -0.0."""

    @staticmethod
    def _check(y, lam, p, tau):
        nb_numpy, zinb_numpy = _numpy_kernels()
        terms = _count_terms(y, tau)
        for got, want in (
            (nb_numpy(y, lam, tau), _reference_nb(y, lam, tau, *terms)),
            (zinb_numpy(y, lam, p, tau), _reference_zinb(y, lam, p, tau, *terms)),
        ):
            assert len(got) == len(want)
            for i, (g, w) in enumerate(zip(got, want)):
                assert np.array_equal(g, w, equal_nan=True), i

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 11, 12, 13, 14, 15, 16, 17])
    def test_random_grids(self, seed):
        self._check(*_random_grid(seed))
        self._check(*_zero_heavy_grid(seed))

    def test_edge_rows(self):
        # structural-zero probability at 0 and 1, a mean underflowed to 0,
        # counts past the table, and lam / tau past the float range, where
        # a zero row's NB part is -inf (with p = 0 too, l - a is nan there)
        y = np.array([0.0, 0.0, 4.0, 4.0, 0.0, 3.0, 0.0, 300.0, 5e4, 0.0, 0.0])
        lam = np.array([2.0, 2.0, 2.0, 2.0, 0.0, 0.0, 1e-300, 280.0, 4e4, 1e305, 1e305])
        p = np.array([0.0, 1.0, 0.0, 1.0, 0.4, 0.4, 0.5, 0.2, 1e-300, 0.0, 0.3])
        # the fitter evaluates such far points under the same errstate
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for tau in (1.7, 1e-8, 1e15):
                self._check(y, lam, p, tau)

    def test_all_zero_and_no_zero_responses(self):
        y, lam, p, tau = _random_grid(18)
        self._check(np.zeros_like(y), lam, p, tau)
        self._check(y + 1.0, lam, p, tau)


class TestBackendAgreement:
    """The scalar-loop kernels must agree with the numpy reference to rounding.

    The loops are plain Python functions that the numba backend compiles, so
    this runs with or without numba; with numba it checks the compiled loops
    too.
    """

    @staticmethod
    def _check(y, lam, p, tau):
        nb_numpy, zinb_numpy = _numpy_kernels()
        want_nb = nb_numpy(y, lam, tau)
        want_zinb = zinb_numpy(y, lam, p, tau)
        for nb_loop, zinb_loop in _loop_kernels():
            for got, want in ((nb_loop(y, lam, tau), want_nb), (zinb_loop(y, lam, p, tau), want_zinb)):
                assert len(got) == len(want)
                # rows to the log-pmf bound, derivatives to the score bound
                np.testing.assert_allclose(got[0], want[0], rtol=1e-13, atol=1e-13)
                for g, w in zip(got[1:], want[1:]):
                    np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-13)

    def test_each_backend_fills_one_block_per_family(self):
        # the row log pmf, its scores and their second derivatives: 6 rows
        # for NB and 10 for ZINB, every one written (the blocks start NaN)
        y, lam, p, tau = _random_grid(20)
        counts = _kernels.Counts(y)
        assert _kernels.nb_loglik_score(counts, lam, tau).shape == (6, y.size)
        assert _kernels.zinb_loglik_score(counts, lam, p, tau).shape == (10, y.size)
        for nb, zinb in (_numpy_kernels(), *_loop_kernels()):
            for block, size in ((nb(y, lam, tau), 6), (zinb(y, lam, p, tau), 10)):
                assert block.shape == (size, y.size) and np.isfinite(block).all()

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

    def test_public_results_own_their_rows(self):
        # each call prepares its own response, and the row it returns is a
        # copy, not a view that keeps the kernel's whole block alive
        y, lam, p, tau = _random_grid(19)
        first = _kernels.zinb_logpmf(y, lam, p, tau)
        kept = first.copy()
        second = _kernels.zinb_logpmf(y, 2.0 * lam, p, tau)
        assert np.array_equal(first, kept) and not np.array_equal(first, second)
        for rows in (first, second, _kernels.nb_logpmf(y, lam, tau)):
            assert rows.base is None and rows.shape == y.shape

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
