import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from chanest.errors import NumericalFailureError
from chanest.gamma_core import (EULER_GAMMA, digamma, sample_truncated_gamma,
                                solve_shape)
from chanest.model import GammaParams


class TestGammaParams:
    def test_mean(self):
        assert GammaParams(7.0, 2.0).mean == 14.0

    @pytest.mark.parametrize("m,omega", [(0.0, 1.0), (-1.0, 1.0),
                                         (1.0, 0.0), (math.inf, 1.0),
                                         (1.0, math.nan)])
    def test_rejects_bad_params(self, m, omega):
        with pytest.raises(ValueError):
            GammaParams(m, omega)


class TestDigamma:
    def test_euler_mascheroni(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)

    def test_recurrence(self):
        xs = np.linspace(0.1, 100, 500)
        np.testing.assert_allclose(digamma(xs + 1.0),
                                   digamma(xs) + 1.0 / xs, atol=1e-12)

    def test_psi_two(self):
        assert digamma(2.0) == pytest.approx(1 - EULER_GAMMA, abs=1e-13)

    def test_paper_approx_at_one(self):
        approx = digamma(1.0, "paper")
        assert approx == pytest.approx(-7.0 / 12.0, abs=1e-15)
        assert abs(approx - digamma(1.0)) == pytest.approx(
            0.0061176684318, abs=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(1e-3, 1e300))
    @example(x=1e-3)
    @example(x=86.0)  # the tightest point of a log-spaced sweep
    def test_paper_approx_within_first_omitted_term(self, x):
        # for x > 0 the asymptotic series' remainder is bounded by its first
        # omitted term, 1/(120 x^4)
        exact = digamma(x)
        bound = (1.0 / x) ** 4 / 120.0 + 1e-15 * max(1.0, abs(exact))
        assert abs(digamma(x, "paper") - exact) <= bound


class TestSolveShape:
    def test_round_trip_known_points(self):
        assert solve_shape(digamma(7.0)) == pytest.approx(7.0, abs=1e-8)
        assert solve_shape(-EULER_GAMMA) == pytest.approx(1.0, abs=1e-8)

    def test_against_bisection_oracle(self):
        # frozen from a 200-step mpmath bisection at 1e-12 tolerance
        assert solve_shape(2.0) == pytest.approx(7.8834286311860410,
                                                 rel=1e-10)

    def test_round_trip_range(self):
        for m in np.exp(np.linspace(np.log(0.2), np.log(200), 60)):
            assert solve_shape(digamma(m)) == pytest.approx(m, rel=1e-8)

    def test_paper_approx_mode(self):
        for m in (0.5, 3.0, 40.0):
            L = digamma(m, "paper")
            assert solve_shape(L, "paper") == pytest.approx(m, rel=1e-8)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            solve_shape(math.nan)
        with pytest.raises(ValueError):
            solve_shape(math.inf)
        with pytest.raises(ValueError, match="unknown digamma mode 'bogus'"):
            solve_shape(0.0, "bogus")

    @pytest.mark.parametrize("mode", ["exact", "paper"])
    def test_unrepresentable_root_is_inf(self, mode):
        assert solve_shape(710.0, mode) == math.inf

    @pytest.mark.parametrize("mode", ["exact", "paper"])
    @settings(max_examples=300, deadline=None)
    @given(L=st.floats(-700.0, 700.0))
    @example(L=-700.0)
    @example(L=237.0)
    @example(L=700.0)
    def test_root_property(self, mode, L):
        m = solve_shape(L, mode)
        assert math.isfinite(m) and m > 0
        assert abs(digamma(m, mode) - L) <= 1e-12 * max(1.0, abs(L))
        # a converged lane stops within tol * max(1, |L|) of its root
        assert solve_shape(digamma(m, mode), mode) == pytest.approx(m,
                                                                    rel=1e-9)

    @pytest.mark.parametrize("mode", ["exact", "paper"])
    @settings(max_examples=50, deadline=None)
    @given(Ls=st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=20))
    def test_lanes_are_independent(self, mode, Ls):
        batch = solve_shape(np.array(Ls), mode)
        assert batch.tolist() == [solve_shape(L, mode) for L in Ls]


def _sample(p, c, rng, size):
    """Draws of sample_truncated_gamma, given the truncated mass that its
    caller computes."""
    mass = float(special.gammainc(p.m, c / p.omega))
    return sample_truncated_gamma(rng, p.m, p.omega, size, c, mass)


class TestSampleTruncatedGamma:
    def test_no_truncation_limit(self):
        p = GammaParams(3.0, 1.0)
        c = 1e6  # P(m, c/omega) == 1 to double precision
        draws = _sample(p, c, np.random.default_rng(1), 50_000)
        d, _ = stats.kstest(draws, stats.gamma(a=3.0, scale=1.0).cdf)
        assert d < 0.02

    def test_support(self):
        p = GammaParams(7.0, 2.0)
        c = 10.0
        draws = _sample(p, c, np.random.default_rng(2), 100_000)
        assert np.all(draws <= c)
        assert np.all(draws > 0)

    @pytest.mark.parametrize("m", [1.0, 7.0, 35.0])
    @pytest.mark.parametrize("mass", [0.05, 0.5, 0.95])
    def test_matches_analytic_truncated_cdf(self, m, mass):
        p = GammaParams(m, 2.0)
        c = p.omega * special.gammaincinv(m, mass)
        rng = np.random.default_rng(hash((m, mass)) % 2 ** 31)
        draws = _sample(p, c, rng, 100_000)

        def trunc_cdf(y):
            return special.gammainc(m, np.asarray(y) / p.omega) / mass

        d, _ = stats.kstest(draws, trunc_cdf)
        assert d < 0.02

    @pytest.mark.parametrize("c", [10.0, 0.5])  # rejection, inverse CDF
    def test_zero_draws(self, c):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        draws = _sample(GammaParams(7.0, 1.0), c, rng, 0)
        assert draws.shape == (0,) and draws.dtype == float
        assert rng.bit_generator.state == state

    def test_underflow_raises(self):
        # a narrow m=35 component far above the threshold has no tail mass
        p = GammaParams(35.0, 1.0)
        with pytest.raises(NumericalFailureError):
            _sample(p, 1e-9, np.random.default_rng(3), 10)
        with pytest.raises(NumericalFailureError):
            sample_truncated_gamma(np.random.default_rng(3), 35.0, 1.0, 10,
                                   1.0, math.nan)
        # a threshold that is not finite and > 0 is no underflow, whatever
        # the mass passed with it: no proposal is ever <= a NaN c
        for c in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="c must be finite and > 0"):
                _sample(p, c, np.random.default_rng(3), 10)
            with pytest.raises(ValueError, match="c must be finite and > 0"):
                sample_truncated_gamma(np.random.default_rng(3), 35.0, 1.0,
                                       10, c, 0.9)
