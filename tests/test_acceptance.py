"""End-to-end acceptance suite. Each test prints one pass/fail line;
run with ``pytest tests/test_acceptance.py -s`` to see them all."""
import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import special, stats

from chanest.baselines import lse_line_fit, mb_shape, ml_minus_shape
from chanest.gamma_core import (EULER_GAMMA, digamma, sample_truncated_gamma,
                                solve_shape)
from chanest.model import (PARAM_FIELDS, CensoredBin, GammaParams,
                           MixtureParams, db_to_linear, linear_to_db)
from chanest.semcm import (BinBatch, MixtureBatch, SemConfig,
                           e_step_censored, e_step_observed, init_heuristic,
                           run_semcm)
from chanest.simulator import Scenario, generate_scenario, true_params_at

SEEDS = (1, 2, 3, 4, 5)

mp.mp.dps = 50


def _report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {criterion}: {detail}")
    return ok


def _perturbed_init(phi, rng):
    """True parameters distorted by up to +/-50% (uniform), per component."""
    f = lambda: 1.0 + rng.uniform(-0.5, 0.5)
    alpha = min(max(phi.alpha1 * f(), 0.05), 0.95)
    return MixtureParams(
        alpha,
        GammaParams(phi.comp1.m * f(), phi.comp1.omega * f()),
        GammaParams(phi.comp2.m * f(), phi.comp2.omega * f()))


@pytest.fixture(scope="module")
def default_runs():
    """Per seed: the simulated scenario plus a full SEM run on every bin,
    initialized at truth perturbed by +/-50%."""
    t0 = time.time()
    runs = []
    for seed in SEEDS:
        sc = Scenario(seed=seed)
        bins = generate_scenario(sc)
        traces = []
        for b, bin_ in enumerate(bins):
            rng = np.random.default_rng([seed, b])
            init = _perturbed_init(true_params_at(bin_.ld, sc), rng)
            traces.append(run_semcm(bin_, init, SemConfig(), rng))
        runs.append((sc, bins, traces))
    return runs, time.time() - t0


class TestCriterion1MeanLineRecovery:
    def test_fit_of_estimated_signal_mean(self, default_runs):
        runs, elapsed = default_runs
        a_hat, b_hat = [], []
        for _, bins, traces in runs:
            pts = [(bin_.ld, linear_to_db(tr.final.comp1.mean))
                   for bin_, tr in zip(bins, traces)
                   if not 26.0 <= bin_.ld <= 28.0]
            line = lse_line_fit(*zip(*pts))
            a_hat.append(line.A)
            b_hat.append(line.B)
        a_med, b_med = np.median(a_hat), np.median(b_hat)
        ok = (-17.0 <= a_med <= -15.0 and 2.7 <= b_med <= 3.3
              and elapsed < 60.0)
        assert _report(
            "criterion 1 (mean-line recovery)", ok,
            f"median A={a_med:.3f} (want [-17,-15]), "
            f"median B={b_med:.3f} (want [2.7,3.3]), "
            f"runtime {elapsed:.1f}s (< 60s)")


class TestCriterion2BaselineFailure:
    def test_baselines_low_while_sem_recovers(self, default_runs):
        runs, _ = default_runs
        fracs = []
        for _, bins, traces in runs:
            good = total = 0
            for bin_, tr in zip(bins, traces):
                if not (bin_.ld <= 25.0 or bin_.ld >= 29.0):
                    continue
                total += 1
                ml = ml_minus_shape(bin_.observed)
                mb = mb_shape(bin_.observed)
                m1 = tr.final.comp1.m
                if ml < 2.0 and mb < 2.0 and 4.9 <= m1 <= 9.1:
                    good += 1
            fracs.append(good / total)
        med = np.median(fracs)
        ok = med >= 0.8
        assert _report(
            "criterion 2 (baseline failure reproduction)", ok,
            f"median passing-bin fraction {med:.2f} (want >= 0.80); "
            f"per seed {[round(f, 2) for f in fracs]}")


class TestCriterion3LossFractionFidelity:
    def test_analytic_censoring_matches(self, default_runs):
        # 3-sigma confidence (p ~ 0.0027) via the exact binomial tail: the
        # normal-approximation bound is meaningless for bins where the
        # expected censored count is << 1
        runs, _ = default_runs
        ok = True
        worst_emp = worst_true = 0.0
        for sc, bins, _ in runs:
            c = db_to_linear(sc.c_db)
            for bin_ in bins:
                phi = true_params_at(bin_.ld, sc)
                p = (phi.alpha1
                     * special.gammainc(phi.comp1.m, c / phi.comp1.omega)
                     + (1.0 - phi.alpha1)
                     * special.gammainc(phi.comp2.m, c / phi.comp2.omega))
                pval = stats.binomtest(bin_.r1, sc.n_per_bin, p).pvalue
                if pval < 0.0027:
                    ok = False
                worst_emp = max(worst_emp, bin_.loss_fraction)
                worst_true = max(worst_true, p)
        ok = ok and worst_true <= 0.5
        assert _report(
            "criterion 3 (loss-fraction fidelity)", ok,
            f"all bins consistent with the analytic censoring probability "
            f"at 3-sigma confidence; max analytic loss {worst_true:.3f} "
            f"(<= 0.50), max realized {worst_emp:.3f}")


class TestCriterion4SemMatchesMlWithoutInterference:
    def test_single_component_censored(self):
        # single censored Gamma(3.3): losses ~5% (< 60%), r0 >= 500
        diffs = []
        for seed in SEEDS:
            rng = np.random.default_rng([seed, 99])
            m_true, n = 3.3, 2000
            y = rng.gamma(m_true, 1.0, n)
            c = special.gammaincinv(m_true, 0.05)
            obs = y[y > c]
            assert obs.size >= 500
            bin_ = CensoredBin(ld=30.0, observed=obs, r1=n - obs.size,
                               c_lin=c)
            trace = run_semcm(bin_, init_heuristic(bin_), SemConfig(), rng)
            ml = ml_minus_shape(obs)
            diffs.append(abs(trace.final.comp1.m - ml) / ml)
        med = np.median(diffs)
        ok = med < 0.10
        assert _report(
            "criterion 4 (SEM ~ ML without interference)", ok,
            f"median |SEM-ML|/ML = {med:.3f} (< 0.10)")


class TestCriterion5Convergence:
    def test_running_burn_mean_stabilizes(self):
        # chains started at the generating parameters: measures the
        # stationarity of the SEM chain itself, not the transient left by a
        # deliberately distorted start
        window = 10

        def running_mean(values, upto):
            return float(np.mean(values[upto - window:upto]))

        worst = 0.0
        for seed in SEEDS:
            sc = Scenario(seed=seed)
            for b, bin_ in enumerate(generate_scenario(sc)):
                if bin_.ld > 25.0:
                    continue
                rng = np.random.default_rng([seed, b])
                tr = run_semcm(bin_, true_params_at(bin_.ld, sc), SemConfig(),
                               rng)
                for name in ("m1", "omega1", "alpha1"):
                    vals = tr.iterates[:, PARAM_FIELDS.index(name)].tolist()
                    v30 = running_mean(vals, 30)
                    v50 = running_mean(vals, 50)
                    worst = max(worst, abs(v50 - v30) / abs(v30))
        ok = worst < 0.05
        assert _report(
            "criterion 5 (convergence of running burn mean)", ok,
            f"worst relative change between iters 30 and 50 = {worst:.4f} "
            "(< 0.05)")


class TestCriterion6EStepOracle:
    def test_responsibilities_match_high_precision(self):
        rng = np.random.default_rng(606)

        def mp_logpdf(y, m, om):
            y, m, om = map(mp.mpf, (y, m, om))
            return (m - 1) * mp.log(y / om) - y / om \
                - mp.log(mp.gamma(m)) - mp.log(om)

        worst_o = worst_c = 0.0
        for _ in range(100):
            a1 = rng.uniform(0.05, 0.95)
            m1, m2 = rng.uniform(0.5, 40, 2)
            om1, om2 = np.exp(rng.uniform(-5, 5, 2))
            phi = MixtureBatch.of([MixtureParams(a1, GammaParams(m1, om1),
                                                 GammaParams(m2, om2))])
            x = float(rng.gamma(m1, om1))
            w1 = mp.mpf(a1) * mp.e ** mp_logpdf(x, m1, om1)
            w2 = mp.mpf(1 - a1) * mp.e ** mp_logpdf(x, m2, om2)
            want = float(w1 / (w1 + w2))
            received = BinBatch.of([CensoredBin(ld=0.0, observed=[x], r1=0,
                                                c_lin=db_to_linear(-300.0))])
            worst_o = max(worst_o,
                          abs(e_step_observed(received, phi)[0] - want))

            # an arbitrary positive threshold
            c = float(rng.gamma(m1, om1))
            censored = BinBatch.of([CensoredBin(ld=0.0, observed=[], r1=1,
                                                c_lin=c)])
            g1 = mp.mpf(a1) * mp.gammainc(mp.mpf(m1), 0, mp.mpf(c / om1),
                                          regularized=True)
            g2 = mp.mpf(1 - a1) * mp.gammainc(mp.mpf(m2), 0, mp.mpf(c / om2),
                                              regularized=True)
            if g1 + g2 > 0:
                want_c = float(g1 / (g1 + g2))
                worst_c = max(worst_c, abs(
                    e_step_censored(censored, phi)[0][0] - want_c))
        ok = worst_o < 1e-6 and worst_c < 1e-6
        assert _report(
            "criterion 6 (E-step oracle equivalence)", ok,
            f"worst |err| observed={worst_o:.2e}, censored={worst_c:.2e} "
            "(< 1e-6)")


class TestCriterion7MStepStationarity:
    def test_single_component_fixed_point(self):
        from chanest.semcm import m_step
        rng = np.random.default_rng(707)
        x = rng.gamma(7.0, 2.0, 500)
        bins = BinBatch.of([CensoredBin(ld=25.0, observed=x, r1=0,
                                        c_lin=db_to_linear(-300.0))])
        completed = (np.ones(x.size, bool), np.empty(0, bool), np.empty(0))
        phi = MixtureBatch.of([MixtureParams(1.0, GammaParams(3.0, 1.0),
                                             GammaParams(1.0, 1.0))])
        cfg = SemConfig()
        for _ in range(5000):
            nxt = m_step(bins, completed, phi, cfg)
            done = abs(nxt.m[0, 0] - phi.m[0, 0]) < 1e-13
            phi = nxt
            if done:
                break
        m_hat, om_hat = phi.m[0, 0], phi.omega[0, 0]
        err_mean = abs(m_hat * om_hat - x.mean()) / x.mean()
        err_psi = abs(digamma(m_hat) - float(np.mean(np.log(x / om_hat))))
        ok = err_mean < 1e-9 and err_psi < 1e-9
        assert _report(
            "criterion 7 (M-step ML stationarity)", ok,
            f"|m*omega - mean|/mean = {err_mean:.2e}, "
            f"|psi(m) - mean ln(x/omega)| = {err_psi:.2e} (< 1e-9)")


class TestCriterion8TruncatedSampler:
    def test_ks_distance(self):
        worst = 0.0
        for m in (1.0, 7.0, 35.0):
            for mass in (0.05, 0.5, 0.95):
                p = GammaParams(m, 2.0)
                c = p.omega * special.gammaincinv(m, mass)
                rng = np.random.default_rng([808, int(m), int(mass * 100)])
                draws = sample_truncated_gamma(
                    rng, m, p.omega, 100_000, c,
                    float(special.gammainc(m, c / p.omega)))
                d, _ = stats.kstest(
                    draws,
                    lambda y: special.gammainc(m, np.asarray(y) / p.omega)
                    / mass)
                worst = max(worst, d)
        ok = worst < 0.02
        assert _report(
            "criterion 8 (truncated sampler KS)", ok,
            f"worst KS distance {worst:.4f} over m x mass grid (< 0.02)")


class TestCriterion9SpecialFunctions:
    def test_digamma_and_shape_solver(self):
        xs = np.linspace(0.1, 100, 2000)
        # recurrence-propagated reference: psi(x) = psi(x+k) - sum 1/(x+j)
        # with psi evaluated in the asymptotic regime via mpmath
        worst_dg = 0.0
        for x in np.linspace(0.1, 20, 40):
            k = 30
            ref = mp.digamma(x + k) - mp.fsum(mp.mpf(1) / (x + j)
                                              for j in range(k))
            worst_dg = max(worst_dg, abs(digamma(float(x)) - float(ref)))
        recur = np.max(np.abs(digamma(xs + 1.0) - digamma(xs) - 1.0 / xs))
        approx_err = abs(digamma(1.0, "paper") - digamma(1.0))
        approx_ok = abs(approx_err - abs(-7.0 / 12.0 + EULER_GAMMA)) < 1e-12
        worst_rt = max(abs(solve_shape(digamma(m)) - m) / m
                       for m in np.exp(np.linspace(np.log(0.2),
                                                   np.log(200), 50)))
        ok = (worst_dg < 1e-12 and recur < 1e-12 and approx_ok
              and worst_rt < 1e-8)
        assert _report(
            "criterion 9 (special functions)", ok,
            f"digamma vs propagated reference {worst_dg:.2e} (< 1e-12), "
            f"recurrence {recur:.2e} (< 1e-12), approx error at 1 = "
            f"{approx_err:.6f} (~0.00612), shape round-trip {worst_rt:.2e} "
            "(< 1e-8)")
