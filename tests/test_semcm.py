import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from chanest import semcm
from chanest.errors import (DegenerateFitError, InsufficientDataError,
                            NumericalFailureError)
from chanest.gamma_core import (REJECTION_MASS, digamma,
                                sample_truncated_gamma)
from chanest.model import (PARAM_FIELDS, CensoredBin, GammaParams,
                           MixtureParams, db_to_linear, linear_to_db)
from chanest.semcm import (BinBatch, MixtureBatch, SemConfig,
                           e_step_censored, e_step_observed, fit_bins,
                           init_heuristic, m_step, run_semcm,
                           run_semcm_batch, s_step)
from chanest.simulator import Scenario, generate_scenario, true_params_at


def _phi(alpha1=0.5, m1=7.0, om1=2.0, m2=1.0, om2=5.0):
    return MixtureParams(alpha1, GammaParams(m1, om1), GammaParams(m2, om2))


def _uncensored_bin(samples, c_lin=db_to_linear(-300.0)):
    samples = np.asarray(samples, dtype=float)
    return CensoredBin(ld=25.0, observed=samples, r1=0, c_lin=c_lin)


def _batch(samples):
    return BinBatch.of([_uncensored_bin(samples)])


def _one(phi):
    return MixtureBatch.of([phi])


def _density(y, comp):
    return (y / comp.omega) ** (comp.m - 1) * math.exp(-y / comp.omega) \
        / (math.gamma(comp.m) * comp.omega)


class TestSemConfig:
    def test_validates_burn_window(self):
        with pytest.raises(ValueError):
            SemConfig(iterations=5, burn_window=6)
        with pytest.raises(ValueError, match="unknown digamma mode 'bogus'"):
            SemConfig(digamma_mode="bogus")


class TestEStepObserved:
    def test_symmetry(self):
        phi = MixtureParams(0.5, GammaParams(7, 2), GammaParams(7, 2))
        t = e_step_observed(_batch([0.1, 1.0, 100.0]), _one(phi))
        np.testing.assert_allclose(t, 0.5)

    def test_alpha_one(self):
        assert e_step_observed(_batch([3.0]), _one(_phi(alpha1=1.0)))[0] \
            == 1.0

    def test_frozen_oracle_value(self):
        # frozen from a 40-digit mpmath evaluation of the responsibility
        phi = _phi(alpha1=0.3, m1=7, om1=1, m2=1, om2=5)
        assert e_step_observed(_batch([4.0]), _one(phi))[0] == pytest.approx(
            0.3319574672567457, abs=1e-12)

    def test_bounds_and_complement(self):
        rng = np.random.default_rng(10)
        phi = _phi()
        x = rng.gamma(3.0, 2.0, 1000)
        t = e_step_observed(_batch(x), _one(phi))
        assert np.all((t >= 0) & (t <= 1))

    def test_per_bin_parameters(self):
        # each sample is weighed with its own bin's mixture
        phis = [_phi(alpha1=0.3, m1=7, om1=1, m2=1, om2=5), _phi()]
        bins = BinBatch.of([_uncensored_bin([4.0, 9.0]),
                            _uncensored_bin([4.0])])
        t = e_step_observed(bins, MixtureBatch.of(phis))
        np.testing.assert_array_equal(
            t, np.concatenate([e_step_observed(_batch([4.0, 9.0]),
                                               _one(phis[0])),
                               e_step_observed(_batch([4.0]), _one(phis[1]))]))


def _censored_batch(c_db):
    c = 10 ** (c_db / 10)
    return BinBatch.of([CensoredBin(ld=25.0, observed=[2 * c, 3 * c],
                                    r1=1, c_lin=db_to_linear(c_db))])


class TestEStepCensored:
    def test_symmetry(self):
        phi = MixtureParams(0.5, GammaParams(7, 2), GammaParams(7, 2))
        t1, _ = e_step_censored(_censored_batch(0.0), _one(phi))
        assert t1[0] == pytest.approx(0.5)

    def test_negligible_component2_mass(self):
        # component 2 sits far above the threshold with a narrow shape
        phi = _phi(m1=1.0, om1=1.0, m2=35.0, om2=1e6)
        t1, _ = e_step_censored(_censored_batch(0.0), _one(phi))
        assert t1[0] == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_oracle_deep_bin(self):
        # default scenario at ld=31, threshold -109 dBm
        sc = Scenario()
        phi = true_params_at(31.0, sc)
        bins = _censored_batch(-109.0)
        c = bins.c_lin[0]
        i1, _ = integrate.quad(lambda y: _density(y, phi.comp1), 0, c)
        i2, _ = integrate.quad(lambda y: _density(y, phi.comp2), 0, c)
        want = phi.alpha1 * i1 / (phi.alpha1 * i1 + (1.0 - phi.alpha1) * i2)
        t1, mass = e_step_censored(bins, _one(phi))
        assert t1[0] == pytest.approx(want, abs=1e-10)
        # the masses are the per-component integrals below the threshold
        np.testing.assert_allclose(mass[0], [i1, i2], rtol=1e-8)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            BinBatch.of([CensoredBin(ld=25.0, observed=[1.0, 2.0], r1=1,
                                     c_lin=db_to_linear(-math.inf))])


class TestSStep:
    def test_certain_labels(self):
        bins = _batch([1.0, 2.0, 3.0])
        out, failed = s_step(bins, _one(_phi(alpha1=1.0)),
                             [np.random.default_rng(0)])
        z_obs, z_cens, y_cens = out
        assert np.all(z_obs)
        assert y_cens.size == 0
        # component 2 can never get a sample: every redraw is used up
        assert isinstance(failed[0], DegenerateFitError)

    def test_no_imputations_without_censoring(self):
        out, _ = s_step(_batch([1.0, 2.0]), _one(_phi()),
                        [np.random.default_rng(0)])
        z_obs, z_cens, y_cens = out
        assert z_cens.size == 0 and y_cens.size == 0

    def test_label_frequencies(self):
        bin_ = CensoredBin(ld=25.0, observed=[2.0], r1=10_000, c_lin=0.5)
        phi = _one(_phi())
        bins = BinBatch.of([bin_])
        t1 = e_step_censored(bins, phi)[0][0]
        rng = np.random.default_rng(11)
        out, _ = s_step(bins, phi, [rng])
        z_obs, z_cens, y_cens = out
        k = int(z_cens.sum())
        sigma = math.sqrt(10_000 * t1 * (1 - t1))
        assert abs(k - 10_000 * t1) < 3 * sigma

    def test_imputed_values_below_threshold(self):
        bin_ = CensoredBin(ld=25.0, observed=[2.0], r1=100, c_lin=0.5)
        out, _ = s_step(BinBatch.of([bin_]), _one(_phi()),
                        [np.random.default_rng(12)])
        z_obs, z_cens, y_cens = out
        assert np.all(y_cens <= bin_.c_lin)
        assert np.all(y_cens > 0)

    def test_deterministic_given_seed(self):
        bin_ = CensoredBin(ld=25.0, observed=[2.0, 3.0], r1=8, c_lin=1.0)
        a, _ = s_step(BinBatch.of([bin_]), _one(_phi()),
                      [np.random.default_rng(13)])
        b, _ = s_step(BinBatch.of([bin_]), _one(_phi()),
                      [np.random.default_rng(13)])
        a_obs, a_cens, a_y = a
        b_obs, b_cens, b_y = b
        np.testing.assert_array_equal(a_obs, b_obs)
        np.testing.assert_array_equal(a_y, b_y)

    @pytest.mark.parametrize("seed", range(6))
    def test_draw_order(self, seed):
        # per attempt, one bin's uniforms come in the order random(n_obs),
        # random(r1); an attempt leaving a component empty is drawn again.
        # Once the labels are settled, component 1's k1 values are imputed
        # (by rejection: its mass is >= REJECTION_MASS), then component 2's
        # (by inverse CDF: its mass is below it)
        bin_ = CensoredBin(ld=25.0, observed=[2.0, 3.0, 4.0], r1=6,
                           c_lin=1.0)
        bins = BinBatch.of([bin_])
        phi = _one(_phi(m1=2.0, om1=0.5, m2=1.0, om2=2.5))
        out, failed = s_step(bins, phi, [np.random.default_rng(seed)])
        assert not failed
        t_obs = e_step_observed(bins, phi)
        t1, mass = e_step_censored(bins, phi)
        assert mass[0, 0] >= REJECTION_MASS > mass[0, 1]
        rng = np.random.default_rng(seed)
        while True:
            z_obs = rng.random(3) < t_obs
            k1 = int(np.count_nonzero(rng.random(6) < t1[0]))
            if 0 < z_obs.sum() + k1 < 9:
                break
        y = [sample_truncated_gamma(rng, phi.m[0, j], phi.omega[0, j], k,
                                    bin_.c_lin, mass[0, j])
             for j, k in ((0, k1), (1, 6 - k1)) if k]
        got_obs, got_cens, got_y = out
        np.testing.assert_array_equal(got_obs, z_obs)
        assert got_cens.tolist() == [True] * k1 + [False] * (6 - k1)
        np.testing.assert_array_equal(got_y, np.concatenate(y))

    def test_imputed_values_follow_truncated_law(self):
        # s_step's own imputation, one component on each side of
        # REJECTION_MASS, against criterion 8's KS bound
        masses, shapes = (0.95, 0.05), (7.0, 35.0)
        omegas = [1.0 / special.gammaincinv(m, q)
                  for m, q in zip(shapes, masses)]
        bin_ = CensoredBin(ld=25.0, observed=[2.0], r1=20_000, c_lin=1.0)
        phi = _one(_phi(alpha1=0.05, m1=shapes[0], om1=omegas[0],
                        m2=shapes[1], om2=omegas[1]))
        out, failed = s_step(BinBatch.of([bin_]), phi,
                             [np.random.default_rng(21)])
        assert not failed
        z_obs, z_cens, y_cens = out
        for j, block in enumerate((y_cens[z_cens], y_cens[~z_cens])):
            assert block.size > 5_000

            def trunc_cdf(y):
                return special.gammainc(shapes[j], y / omegas[j]) / masses[j]

            d, _ = stats.kstest(block, trunc_cdf)
            assert d < 0.02


class TestMStep:
    def test_alpha_counting_and_clamp(self):
        bins = _batch([1.0, 2.0, 3.0, 4.0])
        completed = (np.ones(4, bool), np.empty(0, bool), np.empty(0))
        cfg = SemConfig()
        out = m_step(bins, completed, _one(_phi()), cfg)
        # raw alpha1 = 1, stored value clamped to 1 - floor
        assert out.alpha1[0] == pytest.approx(0.98)

    def test_hand_built_scale_update(self):
        # comp1 gets {1, 3} observed, comp2 gets {10} observed + {0.5} imputed
        bin_ = CensoredBin(ld=25.0, observed=[1.0, 3.0, 10.0], r1=1,
                           c_lin=0.6)
        completed = (np.array([True, True, False]), np.array([False]),
                     np.array([0.5]))
        prev = _phi(m1=2.0, om1=1.0, m2=4.0, om2=1.0)
        out = m_step(BinBatch.of([bin_]), completed, _one(prev), SemConfig())
        # omega_im = component mean; omega = omega_im / m_prev
        assert out.omega[0, 0] == pytest.approx(2.0 / 2.0)
        assert out.omega[0, 1] == pytest.approx(5.25 / 4.0)
        # shape solves digamma(m) = mean ln(x / omega_new)
        want_l1 = np.mean(np.log(np.array([1.0, 3.0]) / out.omega[0, 0]))
        assert digamma(out.m[0, 0]) == pytest.approx(want_l1, abs=1e-9)

    def test_empty_component_gets_nan(self):
        bins = _batch([1.0, 2.0])
        completed = (np.ones(2, bool), np.empty(0, bool), np.empty(0))
        out = m_step(bins, completed, _one(_phi()), SemConfig())
        assert np.isnan(out.m[0, 1]) and np.isnan(out.omega[0, 1])
        assert np.isfinite(out.m[0, 0]) and out.omega[0, 0] == 1.5 / 7.0

    def test_single_component_ml_stationarity(self):
        # iterating the update on a fully comp1-labeled uncensored sample
        # must converge to the Gamma ML equations: mean and log-mean matching
        rng = np.random.default_rng(14)
        x = rng.gamma(7.0, 2.0, 400)
        bins = _batch(x)
        completed = (np.ones(x.size, bool), np.empty(0, bool), np.empty(0))
        phi = _one(_phi(m1=3.0, om1=1.0))
        cfg = SemConfig()
        for _ in range(5000):
            nxt = m_step(bins, completed, phi, cfg)
            if abs(nxt.m[0, 0] - phi.m[0, 0]) < 1e-13:
                phi = nxt
                break
            phi = nxt
        m_hat, om_hat = phi.m[0, 0], phi.omega[0, 0]
        assert m_hat * om_hat == pytest.approx(x.mean(), rel=1e-9)
        assert digamma(m_hat) == pytest.approx(
            float(np.mean(np.log(x / om_hat))), abs=1e-9)


class TestRunSemcm:
    def test_single_gamma_mean_recovery(self):
        rng = np.random.default_rng(15)
        x = rng.gamma(7.0, 10 ** -8.5 / 7.0, 1000)
        bin_ = _uncensored_bin(x, c_lin=db_to_linear(-300.0))
        trace = run_semcm(bin_, init_heuristic(bin_), SemConfig(),
                          np.random.default_rng(1))
        got = linear_to_db(trace.final.comp1.mean)
        assert abs(got - (-85.0)) < 0.5

    def test_default_scenario_shape_recovery(self):
        sc = Scenario(seed=21)
        bin_ = generate_scenario(sc)[0]  # ld = 23, well-separated clusters
        rng = np.random.default_rng(21)
        trace = run_semcm(bin_, true_params_at(bin_.ld, sc), SemConfig(), rng)
        assert trace.final.comp1.m == pytest.approx(7.0, rel=0.3)
        assert trace.final.comp2.m == pytest.approx(35.0, rel=0.3)

    def test_single_iteration_final_equals_iterate(self):
        rng = np.random.default_rng(16)
        x = rng.gamma(3.0, 1.0, 200)
        bin_ = _uncensored_bin(x)
        cfg = SemConfig(iterations=1, burn_window=1)
        trace = run_semcm(bin_, init_heuristic(bin_), cfg,
                          np.random.default_rng(2))
        assert len(trace.iterates) == 1
        assert trace.final.row() == tuple(trace.iterates[0])

    def test_determinism(self):
        sc = Scenario(seed=22)
        bins = generate_scenario(sc)
        cfg = SemConfig()
        init = init_heuristic(bins[17])
        t1 = run_semcm(bins[17], init, cfg, np.random.default_rng(3))
        t2 = run_semcm(bins[17], init, cfg, np.random.default_rng(3))
        assert np.array_equal(t1.iterates, t2.iterates)
        assert t1.final == t2.final

    @settings(max_examples=15, deadline=None)
    @given(shift_db=st.floats(-60.0, 60.0))
    @example(shift_db=-90.0)  # a power scale of exactly 1e-9
    def test_scale_equivariance(self, shift_db):
        # a dB shift of the samples and of the threshold scales both omegas
        # by 10^(shift/10) and leaves the weight and the shapes as they were
        rng = np.random.default_rng(17)
        x = rng.gamma(4.0, 1.0, 300)
        scale = 10.0 ** (shift_db / 10.0)
        b1 = CensoredBin(ld=25.0, observed=x, r1=20, c_lin=x.min() / 2)
        b2 = CensoredBin(ld=25.0, observed=x * scale, r1=20,
                         c_lin=x.min() * scale / 2)
        cfg = SemConfig()
        f1 = run_semcm(b1, init_heuristic(b1), cfg,
                       np.random.default_rng(4)).final
        f2 = run_semcm(b2, init_heuristic(b2), cfg,
                       np.random.default_rng(4)).final
        assert f2.alpha1 == pytest.approx(f1.alpha1, rel=1e-9)
        for c1, c2 in ((f1.comp1, f2.comp1), (f1.comp2, f2.comp2)):
            assert c2.m == pytest.approx(c1.m, rel=1e-9)
            assert c2.omega == pytest.approx(c1.omega * scale, rel=1e-9)

    def test_trace_length_and_counts(self):
        sc = Scenario(seed=23)
        bins = generate_scenario(sc)
        cfg = SemConfig(iterations=30, burn_window=5)
        trace = run_semcm(bins[16], true_params_at(bins[16].ld, sc), cfg,
                          np.random.default_rng(5))
        assert len(trace.iterates) == 30
        assert trace.iterates.shape == (30, len(PARAM_FIELDS))

    @pytest.mark.parametrize("window", [8, 10, 16])
    def test_final_is_burn_window_mean(self, window):
        # np.mean of each parameter's last ``window`` values, bit for bit:
        # a row-by-row (axis=0) sum rounds differently in the last digit
        bins = generate_scenario(Scenario(seed=24))
        cfg = SemConfig(iterations=30, burn_window=window)
        for b in (0, 9, 18):
            trace = run_semcm(bins[b], init_heuristic(bins[b]), cfg,
                              np.random.default_rng([24, b]))
            want = [np.mean(col.tolist()) for col in
                    trace.iterates[-window:].T]
            assert trace.final.row() == tuple(want)

    def test_insufficient_data(self):
        bin_ = CensoredBin(ld=25.0, observed=[1.0], r1=4, c_lin=0.5)
        with pytest.raises(InsufficientDataError):
            run_semcm(bin_, _phi(), SemConfig(), np.random.default_rng(0))


# a small scenario whose bins run alone once, as the reference for batches
BATCH_SEED = 6
BATCH_CONFIG = SemConfig(iterations=15, burn_window=5)


def _batch_rng(b):
    return np.random.default_rng([BATCH_SEED, b])


@pytest.fixture(scope="module")
def lone_runs():
    bins = generate_scenario(Scenario(ld_step=1.0, n_per_bin=150,
                                            seed=BATCH_SEED))
    inits = [init_heuristic(b) for b in bins]
    alone = [run_semcm(b, init, BATCH_CONFIG, _batch_rng(i))
             for i, (b, init) in enumerate(zip(bins, inits))]
    return bins, inits, alone


def _no_second_component(p):
    # alpha1 = 1: component 2 never gets a sample
    return MixtureParams(1.0, p.comp1, p.comp2)


def _no_censored_mass(p):
    # two narrow components far above the threshold: no censored mass
    return MixtureParams(0.5, GammaParams(500.0, p.comp1.mean * 2),
                         GammaParams(500.0, p.comp2.mean * 2))


def _no_truncatable_mass(p):
    # positive masses below the threshold, but too small to impute from
    return MixtureParams(0.5, GammaParams(1.0, p.comp1.mean * 1e305),
                         GammaParams(1.0, p.comp1.mean * 1e305))


class TestBatchInvariance:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_subset_and_order(self, lone_runs, data):
        bins, inits, alone = lone_runs
        order = data.draw(st.lists(st.sampled_from(range(len(bins))),
                                   min_size=1, unique=True))
        out = run_semcm_batch([bins[b] for b in order],
                              [inits[b] for b in order], BATCH_CONFIG,
                              [_batch_rng(b) for b in order])
        for b, trace in zip(order, out):
            assert trace.final == alone[b].final
            assert np.array_equal(trace.iterates, alone[b].iterates)

    @pytest.mark.parametrize("broken, error, reason, middle", [
        pytest.param(_no_second_component, DegenerateFitError,
                     "a component stayed empty", False,
                     id="<lambda>-DegenerateFitError"),
        pytest.param(_no_censored_mass, NumericalFailureError,
                     "no component carries mass", False,
                     id="<lambda>-DegenerateCensorMassError"),
        pytest.param(_no_second_component, DegenerateFitError,
                     "a component stayed empty", True,
                     id="middle-after-too-few-DegenerateFitError"),
        pytest.param(_no_censored_mass, NumericalFailureError,
                     "no component carries mass", True,
                     id="middle-after-too-few-DegenerateCensorMassError"),
        pytest.param(_no_truncatable_mass, NumericalFailureError,
                     "component 1 has mass", True,
                     id="middle-after-too-few-TruncatedMassError"),
    ])
    def test_failed_bin_leaves_others_alone(self, lone_runs, broken, error,
                                            reason, middle):
        bins, inits, alone = lone_runs
        k = len(bins) - 1  # the deepest bin has censored samples
        assert bins[k].r1 > 0
        few = {"tiny": CensoredBin(ld=40.0, observed=[1e-9], r1=4,
                                   c_lin=bins[0].c_lin),
               "empty": CensoredBin(ld=41.0, observed=[], r1=0,
                                    c_lin=bins[0].c_lin)}
        # the lone-run index of the bin in each lane, k for the broken one
        lanes = [*range(k), k]
        if middle:  # bins filtered before iteration 1 come ahead of k
            lanes = [*range(k // 2), "tiny", "empty", k, *range(k // 2, k)]
        rngs = [_batch_rng(99) if b in few else _batch_rng(b) for b in lanes]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run_semcm_batch(
                [few[b] if b in few else bins[b] for b in lanes],
                [inits[0] if b in few else broken(inits[b]) if b == k
                 else inits[b] for b in lanes],
                BATCH_CONFIG, rngs)
        # each broken start fails in iteration 1 and draws no more after
        # it; a bin filtered before iteration 1 never draws
        stopped = _batch_rng(k)
        with pytest.raises(error):
            run_semcm(bins[k], broken(inits[k]), SemConfig(1, 1), stopped)
        for b, res, rng in zip(lanes, out, rngs):
            if b == k:  # its first error, not a later one of its NaN lane
                assert isinstance(res, error)
                assert f"bin ld={bins[k].ld}: {reason}" in str(res)
                assert rng.bit_generator.state == stopped.bit_generator.state
            elif b in few:
                assert isinstance(res, InsufficientDataError)
                assert f"bin ld={few[b].ld}: need >= 2" in str(res)
                assert rng.bit_generator.state \
                    == _batch_rng(99).bit_generator.state
            else:
                assert res.final == alone[b].final
                assert np.array_equal(res.iterates, alone[b].iterates)

    @pytest.mark.parametrize("observed, start, reason", [
        # any two of these powers sum beyond float max, so whichever
        # component gets two of them has an infinite scale update
        ([0.9e308, 1.0e308, 1.1e308, 1.2e308],
         MixtureParams(0.5, GammaParams(2.0, 0.5e308),
                       GammaParams(2.0, 0.5e308)),
         "M-step gave a shape or scale"),
        # every update of this chain is finite, but the scales of its burn
        # window sum beyond float max
        (db_to_linear(np.array([3058.6, 3071.2, 3080.1])), None,
         "burn-window mean has a shape or scale"),
    ], ids=["m-step", "burn-window"])
    def test_numerical_failure_leaves_others_alone(self, lone_runs, observed,
                                                   start, reason):
        bins, inits, alone = lone_runs
        last = CensoredBin(ld=40.0, observed=observed, r1=0,
                           c_lin=bins[0].c_lin)
        out = run_semcm_batch([*bins, last],
                              [*inits, start or init_heuristic(last)],
                              BATCH_CONFIG,
                              [_batch_rng(b) for b in range(len(bins) + 1)])
        assert isinstance(out[-1], NumericalFailureError)
        assert str(out[-1]) == \
            f"bin ld=40.0: {reason} that is not finite and > 0"
        for b in range(len(bins)):
            assert out[b].final == alone[b].final
            assert np.array_equal(out[b].iterates, alone[b].iterates)

    def test_too_few_samples_fail_alone(self, lone_runs):
        bins, inits, alone = lone_runs
        tiny = CensoredBin(ld=40.0, observed=[1e-9], r1=4,
                           c_lin=bins[0].c_lin)
        out = run_semcm_batch([tiny, bins[0]], [inits[0], inits[0]],
                              BATCH_CONFIG, [_batch_rng(9), _batch_rng(0)])
        assert isinstance(out[0], InsufficientDataError)
        assert np.array_equal(out[1].iterates, alone[0].iterates)


class TestFitBins:
    def test_chain_of_bin_b(self, lone_runs):
        # bin b: init_heuristic start, generator default_rng([seed, b])
        bins, _, alone = lone_runs
        for trace, ref in zip(fit_bins(bins, BATCH_CONFIG, BATCH_SEED),
                              alone):
            assert np.array_equal(trace.iterates, ref.iterates)

    @pytest.mark.parametrize("samples, reason", [
        ([2.0] * 4, "zero sample variance"),
        # the mean of these powers overflows, and so the start's scale
        ([0.9e308, 1.0e308, 1.1e308, 1.2e308], "scale must be finite"),
    ], ids=["equal-samples", "mean-overflow"])
    def test_failed_start(self, lone_runs, samples, reason):
        bins, inits, _ = lone_runs
        tiny = CensoredBin(ld=40.0, observed=[1e-9], r1=4, c_lin=bins[0].c_lin)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fit_bins([_uncensored_bin(samples), bins[0], tiny],
                           BATCH_CONFIG, BATCH_SEED)
        assert isinstance(out[0], NumericalFailureError)
        assert reason in str(out[0])
        assert isinstance(out[2], InsufficientDataError)
        assert "bin ld=40.0" in str(out[2])
        ref = run_semcm(bins[0], inits[0], BATCH_CONFIG, _batch_rng(1))
        assert np.array_equal(out[1].iterates, ref.iterates)


def _groups(monkeypatch, k):
    """Let fit_bins split any batch into k lane groups; returns the list to
    which every run_semcm_batch call appends (thread ident, bin lds)."""
    monkeypatch.setattr(semcm, "_cpu_count", lambda: k)
    monkeypatch.setattr(semcm, "GROUP_MIN_SAMPLES", 1)
    monkeypatch.setattr(semcm, "BIN_MIN_SAMPLES", 1)
    calls, batch = [], semcm.run_semcm_batch

    def spy(bins, *args):
        calls.append((threading.get_ident(), [b.ld for b in bins]))
        return batch(bins, *args)
    monkeypatch.setattr(semcm, "run_semcm_batch", spy)
    return calls


def _same_result(a, b):
    if isinstance(a, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a.final == b.final and np.array_equal(a.iterates, b.iterates)


class TestLaneGroups:
    """fit_bins on k threads gives every bin the result of one group."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_split_matches_one_group(self, lone_runs, monkeypatch, k):
        bins = lone_runs[0]
        c_lin = bins[0].c_lin
        # failed starts, too few samples and a chain that fails at its end
        odd = [_uncensored_bin([2.0] * 4),
               CensoredBin(ld=40.0, observed=[1e-9], r1=4, c_lin=c_lin),
               _uncensored_bin([0.9e308, 1.0e308, 1.1e308, 1.2e308]),
               CensoredBin(ld=41.0, c_lin=c_lin, r1=0, observed=db_to_linear(
                   np.array([3058.6, 3071.2, 3080.1])))]
        # the last fails as in test_numerical_failure_leaves_others_alone,
        # from the same generator
        batch = [*bins[:3], odd[0], odd[1], *bins[3:7], odd[2], odd[3],
                 *bins[7:]]
        assert batch.index(odd[3]) == len(bins)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one = fit_bins(batch, BATCH_CONFIG, BATCH_SEED)
            calls = _groups(monkeypatch, k)
            # threads switching as often as the interpreter lets them
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                out = fit_bins(batch, BATCH_CONFIG, BATCH_SEED)
            finally:
                sys.setswitchinterval(interval)
        # the bins with a start, dealt round-robin: group 0 on the caller's
        # thread, the others on pool threads
        lanes = [b.ld for b in batch if all(b is not o for o in odd[:3])]
        on_caller = [lds for ident, lds in calls
                     if ident == threading.get_ident()]
        assert on_caller == [lanes[::k]]
        assert sorted(lds for _, lds in calls) \
            == sorted(lanes[g::k] for g in range(k))
        assert all(map(_same_result, out, one))
        assert isinstance(one[len(bins)], NumericalFailureError)
        assert "burn-window mean" in str(one[len(bins)])
        assert sum(not isinstance(r, Exception) for r in out) == len(bins)

    @pytest.mark.parametrize("batch", [
        [],
        [_uncensored_bin([2.0] * 4),
         CensoredBin(ld=40.0, observed=[1e-9], r1=4,
                     c_lin=db_to_linear(-109.0))],
    ], ids=["empty", "all-starts-fail"])
    def test_no_lanes_start_no_thread(self, monkeypatch, batch):
        one = fit_bins(batch, BATCH_CONFIG, BATCH_SEED)
        calls = _groups(monkeypatch, 2)
        monkeypatch.setattr(threading.Thread, "start", None)
        out = fit_bins(batch, BATCH_CONFIG, BATCH_SEED)
        assert calls == [(threading.get_ident(), [])]
        assert len(out) == len(batch)
        assert all(map(_same_result, out, one))

    def test_caller_error_state_in_every_group(self, lone_runs,
                                               monkeypatch):
        calls, seen = _groups(monkeypatch, 2), []
        spy = semcm.run_semcm_batch

        def record(*args):
            seen.append(np.geterr())
            return spy(*args)
        monkeypatch.setattr(semcm, "run_semcm_batch", record)
        with np.errstate(over="raise", under="ignore"):
            want = np.geterr()
            fit_bins(lone_runs[0], BATCH_CONFIG, BATCH_SEED)
        assert len(calls) == 2 and np.geterr() != want
        assert seen == [want, want]

    @pytest.mark.parametrize("worker", [True, False], ids=["worker", "caller"])
    def test_error_propagates_no_thread_leaks(self, lone_runs, monkeypatch,
                                              worker):
        _groups(monkeypatch, 3)
        spy, main = semcm.run_semcm_batch, threading.get_ident()

        def fail(*args):
            if (threading.get_ident() != main) == worker:
                raise RuntimeError("group failed")
            return spy(*args)
        monkeypatch.setattr(semcm, "run_semcm_batch", fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="group failed"):
            fit_bins(lone_runs[0], BATCH_CONFIG, BATCH_SEED)
        assert threading.active_count() == before


class TestInitHeuristic:
    def test_side_info_passthrough(self):
        bin_ = _uncensored_bin([1.0, 2.0, 4.0])
        init = init_heuristic(bin_, m1_guess=7.0)
        assert init.comp1.m == 7.0

    def test_mean_matching(self):
        rng = np.random.default_rng(18)
        x = rng.gamma(5.0, 2.0, 100)
        init = init_heuristic(_uncensored_bin(x))
        assert init.comp1.mean == pytest.approx(x.mean(), rel=1e-12)
        # interference mean offset +3 dB
        assert init.comp2.mean == pytest.approx(x.mean() * 10 ** 0.3,
                                                rel=1e-12)

    def test_components_distinct(self):
        init = init_heuristic(_uncensored_bin([1.0, 2.0, 4.0]))
        assert init.comp1 != init.comp2
        assert init.alpha1 == 0.5
