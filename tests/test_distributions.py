"""Distribution layer: pmf values, moments, samplers, and domain policing."""

import math

import numpy as np
import pytest

from countreg import (
    NbParams,
    ParameterDomainError,
    ZinbParams,
    nb_log_pmf,
    nb_moments,
    poisson_log_pmf,
    sample_nb,
    sample_poisson,
    sample_zinb,
    zinb_log_pmf,
    zinb_moments,
)

from countreg.distributions import nb_draws

import _oracles


class TestNbLogPmf:
    def test_zero_count_unit_params(self):
        assert nb_log_pmf(0, NbParams(1.0, 1.0)) == pytest.approx(math.log(0.5), abs=1e-12)

    @pytest.mark.parametrize("lam,tau", [(0.3, 0.8), (2.0, 5.0), (7.5, 0.4)])
    def test_zero_count_closed_form(self, lam, tau):
        expected = tau * math.log(tau / (lam + tau))
        assert nb_log_pmf(0, NbParams(lam, tau)) == pytest.approx(expected, abs=1e-12)

    def test_against_high_precision_oracle(self):
        assert nb_log_pmf(3, NbParams(2.0, 5.0)) == pytest.approx(
            _oracles.NB_LOG_PMF_3_2_5, abs=1e-12
        )
        assert nb_log_pmf(7, NbParams(0.5, 0.3)) == pytest.approx(
            _oracles.NB_LOG_PMF_7_HALF_03, abs=1e-12
        )

    @pytest.mark.parametrize("y", [0, 1, 2, 5, 11, 40])
    @pytest.mark.parametrize("lam,tau", [(0.1, 0.5), (1.0, 2.0), (10.0, 50.0), (3.0, 0.07)])
    def test_oracle_grid(self, y, lam, tau):
        assert nb_log_pmf(y, NbParams(lam, tau)) == pytest.approx(
            _oracles.nb_log_pmf(y, lam, tau), abs=1e-11
        )

    def test_rejects_bad_domain(self):
        with pytest.raises(ParameterDomainError):
            NbParams(0.0, 1.0)
        with pytest.raises(ParameterDomainError):
            NbParams(-1.0, 1.0)
        with pytest.raises(ParameterDomainError):
            NbParams(1.0, 0.0)
        with pytest.raises(ParameterDomainError):
            NbParams(1.0, 1e-11)  # at/below the open lower bound
        with pytest.raises(ParameterDomainError):
            NbParams(math.nan, 1.0)
        with pytest.raises(ParameterDomainError):
            NbParams(1.0, math.inf)

    def test_rejects_negative_count(self):
        with pytest.raises(ParameterDomainError):
            nb_log_pmf(-1, NbParams(1.0, 1.0))


class TestZinbLogPmf:
    def test_p_zero_reduces_to_nb(self):
        for y in (0, 1, 4, 9):
            for lam, tau in ((0.2, 0.6), (2.0, 5.0), (6.0, 30.0)):
                nb = nb_log_pmf(y, NbParams(lam, tau))
                zinb = zinb_log_pmf(y, ZinbParams(NbParams(lam, tau), 0.0))
                assert zinb == pytest.approx(nb, abs=1e-12)

    def test_zero_branch_hand_value(self):
        value = zinb_log_pmf(0, ZinbParams(NbParams(1.0, 1.0), 0.5))
        assert value == pytest.approx(math.log(0.75), abs=1e-12)

    def test_positive_branch_scales_nb(self):
        value = zinb_log_pmf(2, ZinbParams(NbParams(2.0, 5.0), 0.3))
        expected = math.log(0.7) + nb_log_pmf(2, NbParams(2.0, 5.0))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_against_high_precision_oracle(self):
        params = ZinbParams(NbParams(3.0, 2.0), 0.25)
        assert zinb_log_pmf(0, params) == pytest.approx(
            _oracles.ZINB_LOG_PMF_0_3_025_2, abs=1e-12
        )
        assert zinb_log_pmf(5, params) == pytest.approx(
            _oracles.ZINB_LOG_PMF_5_3_025_2, abs=1e-12
        )

    def test_extreme_p_stays_stable(self):
        # two-term log-sum must not cancel catastrophically near p = 0 or 1
        near0 = zinb_log_pmf(0, ZinbParams(NbParams(4.0, 1.0), 1e-14))
        assert near0 == pytest.approx(_oracles.zinb_log_pmf(0, 4.0, 1e-14, 1.0), abs=1e-12)
        near1 = zinb_log_pmf(0, ZinbParams(NbParams(4.0, 1.0), 1.0 - 1e-12))
        assert near1 == pytest.approx(_oracles.zinb_log_pmf(0, 4.0, 1.0 - 1e-12, 1.0), abs=1e-9)
        tail = zinb_log_pmf(3, ZinbParams(NbParams(4.0, 1.0), 1.0 - 1e-12))
        assert tail == pytest.approx(_oracles.zinb_log_pmf(3, 4.0, 1.0 - 1e-12, 1.0), rel=1e-9)

    def test_rejects_p_at_one(self):
        with pytest.raises(ParameterDomainError):
            ZinbParams(NbParams(1.0, 1.0), 1.0)
        with pytest.raises(ParameterDomainError):
            ZinbParams(NbParams(1.0, 1.0), -0.1)


class TestPoissonLogPmf:
    @pytest.mark.parametrize("y,lam", [(0, 1.0), (3, 2.5), (10, 0.7)])
    def test_matches_closed_form(self, y, lam):
        assert poisson_log_pmf(y, lam) == pytest.approx(
            math.log(_oracles.poisson_pmf(y, lam)), abs=1e-11
        )

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_an_invalid_mean(self, lam):
        with pytest.raises(ParameterDomainError, match="mean must be finite and positive"):
            poisson_log_pmf(1, lam)


class TestMoments:
    def test_nb_direct_substitution(self):
        assert nb_moments(NbParams(1.0, 1.0)) == pytest.approx((1.0, 2.0))
        assert nb_moments(NbParams(2.0, 4.0)) == pytest.approx((2.0, 3.0))

    def test_nb_poisson_limit(self):
        mean, var = nb_moments(NbParams(0.701, 1e12))
        assert mean == pytest.approx(0.701)
        assert var == pytest.approx(0.701, abs=1e-9)

    def test_zinb_p_zero_reduces(self):
        assert zinb_moments(ZinbParams(NbParams(2.0, 4.0), 0.0)) == pytest.approx(
            nb_moments(NbParams(2.0, 4.0))
        )

    def test_zinb_substitution(self):
        mean, var = zinb_moments(ZinbParams(NbParams(2.0, 2.0), 0.5))
        assert mean == pytest.approx(1.0)
        assert var == pytest.approx(3.0)

    def test_zinb_p_near_one_degenerates(self):
        mean, var = zinb_moments(ZinbParams(NbParams(2.0, 2.0), 1.0 - 1e-12))
        assert mean == pytest.approx(0.0, abs=1e-11)
        assert var == pytest.approx(0.0, abs=1e-11)


class TestNormalization:
    """pmf sums to 1 over a truncation with negligible tail mass."""

    LAMS = (0.1, 1.0, 10.0)
    TAUS = (0.5, 2.0, 50.0)
    PS = (0.0, 0.3, 0.8)

    @staticmethod
    def _truncation(lam, tau, p):
        # extend until the NB tail bound drops below 1e-12; the ZINB tail is
        # smaller by the factor (1-p)
        params = NbParams(lam, tau)
        y_star = 20
        while math.exp(nb_log_pmf(y_star, params)) * (y_star + 1) > 1e-13:
            y_star += 20
        return y_star + 40

    @pytest.mark.parametrize("lam", LAMS)
    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("p", PS)
    def test_sums_to_one(self, lam, tau, p):
        y_star = self._truncation(lam, tau, p)
        params = ZinbParams(NbParams(lam, tau), p)
        total = sum(math.exp(zinb_log_pmf(y, params)) for y in range(y_star + 1))
        assert 1.0 - 1e-10 <= total <= 1.0 + 1e-12


class TestPoissonLimit:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 5.0])
    def test_large_tau_matches_poisson(self, lam):
        params = NbParams(lam, 1e8)
        for y in range(21):
            nb = math.exp(nb_log_pmf(y, params))
            pois = _oracles.poisson_pmf(y, lam)
            assert abs(nb - pois) < 1e-6


class TestSamplers:
    def test_nb_sample_moments(self):
        draws = sample_nb(NbParams(1.0, 1.0), 100_000, seed=101)
        mean, var = nb_moments(NbParams(1.0, 1.0))
        se = math.sqrt(var / draws.size)
        assert abs(draws.mean() - mean) < 4 * se

    def test_nb_large_tau_is_poisson_like(self):
        draws = sample_nb(NbParams(1.0, 1e6), 100_000, seed=102)
        ratio = draws.var(ddof=1) / draws.mean()
        assert abs(ratio - 1.0) < 0.02

    def test_zinb_sample_moments(self):
        params = ZinbParams(NbParams(2.0, 2.0), 0.3)
        draws = sample_zinb(params, 100_000, seed=103)
        mean, var = zinb_moments(params)
        se = math.sqrt(var / draws.size)
        assert abs(draws.mean() - mean) < 4 * se

    def test_zinb_p_near_one_mostly_zero(self):
        draws = sample_zinb(ZinbParams(NbParams(2.0, 2.0), 1.0 - 1e-6), 10_000, seed=104)
        assert (draws == 0).mean() > 0.999

    def test_zinb_p_zero_matches_nb_sampler(self):
        a = sample_zinb(ZinbParams(NbParams(2.0, 2.0), 0.0), 50_000, seed=105)
        b = sample_nb(NbParams(2.0, 2.0), 50_000, seed=106)
        # distributional agreement, not bitwise: compare moments
        assert abs(a.mean() - b.mean()) < 4 * math.sqrt(2 * 4.0 / 50_000)

    def test_seed_determinism(self):
        a = sample_nb(NbParams(1.5, 0.8), 1000, seed=9)
        b = sample_nb(NbParams(1.5, 0.8), 1000, seed=9)
        assert np.array_equal(a, b)
        c = sample_zinb(ZinbParams(NbParams(1.5, 0.8), 0.4), 1000, seed=9)
        d = sample_zinb(ZinbParams(NbParams(1.5, 0.8), 0.4), 1000, seed=9)
        assert np.array_equal(c, d)

    @pytest.mark.parametrize(
        "draw,message",
        [
            (lambda: sample_poisson(2.0, 0, seed=1), "sample size must be at least 1, got 0"),
            (lambda: sample_poisson(0.0, 10, seed=1), "mean must be finite and positive, got 0.0"),
            (
                lambda: sample_poisson(math.nan, 10, seed=1),
                "mean must be finite and positive, got nan",
            ),
            (lambda: sample_nb(NbParams(1.0, 1.0), 0, seed=1), "sample size must be at least 1"),
            (
                lambda: sample_zinb(ZinbParams(NbParams(1.0, 1.0), 0.2), -3, seed=1),
                "sample size must be at least 1, got -3",
            ),
        ],
        ids=["poisson-n", "poisson-zero-mean", "poisson-nan-mean", "nb-n", "zinb-n"],
    )
    def test_samplers_reject_invalid_arguments(self, draw, message):
        with pytest.raises(ParameterDomainError, match=message):
            draw()

    def test_poisson_sampler_mean(self):
        draws = sample_poisson(2.0, 100_000, seed=107)
        assert abs(draws.mean() - 2.0) < 4 * math.sqrt(2.0 / 100_000)

    @pytest.mark.parametrize("tau", [1e-3, 0.3, 1.6270378, 7.5, 1e6])
    def test_nb_draws_match_the_gamma_form(self, tau):
        # the reference draws each rate by Generator.gamma(shape, scale)
        class Recorded:
            """A generator that records the rates of its Poisson draws."""

            def __init__(self, rng):
                self.rng, self.rates = rng, []

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def poisson(self, rate):
                self.rates.append(rate)
                return self.rng.poisson(rate)

        lam = np.random.default_rng(110).exponential(1.5, 2000)
        lam[::97] = 0.0
        for seed in range(20):
            ours, ref = Recorded(np.random.default_rng(seed)), np.random.default_rng(seed)
            got = nb_draws(ours, lam, tau)
            rate = ref.gamma(shape=tau, scale=lam / tau)
            assert ours.rates[0].tobytes() == rate.tobytes()
            assert got.tobytes() == ref.poisson(rate).tobytes()
            assert ours.rng.random() == ref.random()

    def test_draws_are_nonnegative_integers(self):
        draws = sample_zinb(ZinbParams(NbParams(2.0, 0.5), 0.2), 5000, seed=108)
        assert draws.dtype.kind in "iu"
        assert (draws >= 0).all()
