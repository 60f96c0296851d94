import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chanest.baselines import lse_line_fit, mb_shape, ml_minus_shape
from chanest.errors import DegenerateSamplesError, RankDeficientFitError
from chanest.simulator import Scenario, generate_scenario


class TestMlMinusShape:
    def test_hand_computed_two_samples(self):
        # {1, e}: delta = ln((1+e)/2) - 1/2, frozen closed-form value
        got = ml_minus_shape([1.0, math.e])
        delta = math.log((1 + math.e) / 2) - 0.5
        assert got == pytest.approx((6 + math.sqrt(36 + 48 * delta))
                                    / (24 * delta))
        assert got == pytest.approx(4.3231743811015265, rel=1e-12)

    def test_recovers_moderate_shape(self):
        rng = np.random.default_rng(33)
        est = [ml_minus_shape(rng.gamma(3.3, 1.0, 500)) for _ in range(20)]
        assert 2.8 <= np.median(est) <= 3.9

    def test_recovers_exponential(self):
        rng = np.random.default_rng(1)
        assert ml_minus_shape(rng.gamma(1.0, 2.0, 10_000)) == pytest.approx(
            1.0, rel=0.1)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.gamma(5.0, 1.0, 200)
        assert ml_minus_shape(x * 1e-9) == pytest.approx(ml_minus_shape(x),
                                                         rel=1e-10)

    def test_degenerate_constant_samples(self):
        with pytest.raises(DegenerateSamplesError):
            ml_minus_shape([2.0, 2.0, 2.0])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ml_minus_shape([1.0])
        with pytest.raises(ValueError):
            ml_minus_shape([1.0, -1.0])


class TestMbShape:
    def test_hand_computed(self):
        # {1, 3}: mu=2, mu2=5 -> m = 4/(5-4) = 4
        assert mb_shape([1.0, 3.0]) == pytest.approx(4.0)

    def test_recovers_shape_seven(self):
        rng = np.random.default_rng(3)
        assert mb_shape(rng.gamma(7.0, 2.0, 10_000)) == pytest.approx(
            7.0, rel=0.1)

    def test_recovers_exponential(self):
        rng = np.random.default_rng(4)
        assert mb_shape(rng.gamma(1.0, 5.0, 10_000)) == pytest.approx(
            1.0, rel=0.1)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.gamma(2.0, 1.0, 200)
        assert mb_shape(x * 1e6) == pytest.approx(mb_shape(x), rel=1e-10)

    def test_degenerate(self):
        with pytest.raises(DegenerateSamplesError):
            mb_shape([1.0, 1.0])

    @settings(max_examples=100, deadline=None)
    @given(x=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=30),
           k=st.floats(0.0, 1.0))
    @example(x=[3.0, 3.0, 1.0], k=0.5)
    def test_power_of_two_scaling_is_exact(self, x, k):
        # bit for bit, for every 2^j that keeps the samples and their
        # squares finite and normal: at the top j, the sum of the squares
        # exceeds the float range unless mb_shape scales first
        x = np.array(x)
        assume(x.std() > 1e-3 * x.mean())
        lo, hi = -510 - np.frexp(x.min())[1], 512 - np.frexp(x.max())[1]
        for j in (lo, hi, lo + round(k * (hi - lo))):
            assert mb_shape(np.ldexp(x, j)) == mb_shape(x)


class TestLseLineFit:
    def test_exact_recovery(self):
        lds = np.arange(23.0, 32.5, 0.5)
        line = lse_line_fit(lds, -16.0 - 3.0 * lds)
        assert line.A == pytest.approx(-16.0, abs=1e-10)
        assert line.B == pytest.approx(3.0, abs=1e-10)

    def test_two_point_interpolation(self):
        line = lse_line_fit([0.0, 10.0], [-10.0, -40.0])
        assert line.A == pytest.approx(-10.0)
        assert line.B == pytest.approx(3.0)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(7)
        a_hat, b_hat = [], []
        for _ in range(20):
            lds = np.linspace(23, 32, 20)
            vals = -16.0 - 3.0 * lds + rng.normal(0, 1.0, lds.size)
            line = lse_line_fit(lds, vals)
            a_hat.append(line.A)
            b_hat.append(line.B)
        assert np.median(a_hat) == pytest.approx(-16.0, abs=0.8)
        assert np.median(b_hat) == pytest.approx(3.0, abs=0.1)

    def test_rank_deficiency(self):
        with pytest.raises(RankDeficientFitError):
            lse_line_fit([1.0, 1.0], [2.0, 3.0])
        with pytest.raises(RankDeficientFitError):
            lse_line_fit([], [])


class TestBaselineFailureOnMixture:
    def test_shape_underestimated_outside_overlap(self):
        # with interference in the received samples, single-mode shape
        # estimates collapse well below the true signal shape of 7
        sc = Scenario(seed=11)
        bins = generate_scenario(sc)
        ml, mb = [], []
        for bin_ in bins:
            # deeply censored bins (ld > 31) lose the wide signal cloud and
            # the estimators latch onto the narrow interference cluster
            if 25.5 <= bin_.ld <= 28.5 or bin_.ld > 31.0:
                continue
            ml.append(ml_minus_shape(bin_.observed))
            mb.append(mb_shape(bin_.observed))
        assert max(ml + mb) < 3.0  # far below the true signal shape of 7
        assert np.median(ml) < 2.0
        assert np.median(mb) < 2.0
