import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chanest.ingest import (LOG_DTYPE, bin_by_ld, infer_losses,
                            parse_packet_log, write_packet_log)
from chanest.model import linear_to_db
from chanest.simulator import (MAX_PACKETS, Scenario, censoring_probability,
                               generate_scenario, ground_truth, packet_rows,
                               signal_omega_at, true_params_at)


class TestScenario:
    def test_grid(self):
        sc = Scenario()
        grid = sc.ld_grid
        assert grid.size == 19
        assert grid[0] == 23.0 and grid[-1] == 32.0

    def test_json_round_trip(self):
        sc = Scenario(seed=9, interference_mean_db=-95.0)
        assert Scenario.from_json(sc.to_json()) == sc
        # an integer JSON value for a float field is read as a float
        sc = Scenario.from_json(json.dumps({"m1": 7, "seed": 3}))
        assert type(sc.m1) is float and sc.m1 == 7.0
        assert type(sc.seed) is int

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            Scenario.from_json(json.dumps({"bogus": 1}))

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            Scenario(ld_start=30.0, ld_end=20.0)

    @pytest.mark.parametrize("field", ["c_db", "m1", "pl_a", "ld_step"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, field, value):
        with pytest.raises(ValueError, match=f"{field!r} must be finite"):
            Scenario(**{field: value})

    def test_packet_limit(self):
        # one bin, so the count is n_per_bin alone
        assert Scenario(ld_start=23.0, ld_end=23.0,
                        n_per_bin=MAX_PACKETS).ld_grid.size == 1
        with pytest.raises(ValueError, match="MAX_PACKETS"):
            Scenario(ld_start=23.0, ld_end=23.0, n_per_bin=MAX_PACKETS + 1)
        # 19 bins x 1000: over the limit only with the bins counted
        with pytest.raises(ValueError, match="MAX_PACKETS"):
            Scenario(n_per_bin=MAX_PACKETS // 19 + 1)
        for step in (1e-9, 5e-324):  # ~9e9 and an infinite number of bins
            with pytest.raises(ValueError, match="MAX_PACKETS"):
                Scenario(ld_step=step)


class TestSignalOmega:
    def test_reference_level(self):
        sc = Scenario()
        omega = signal_omega_at(23.0, sc)
        assert 10 * math.log10(sc.m1 * omega) == pytest.approx(-85.0)

    def test_flat_line(self):
        sc = Scenario(pl_b=0.0)
        assert signal_omega_at(23.0, sc) == signal_omega_at(32.0, sc)

    def test_mean_line_from_samples(self):
        # per-bin average of uncensored signal draws follows A - B*ld
        sc = Scenario(mixing_alpha1=1.0, c_db=-1000.0, seed=1)
        bins, truth = generate_scenario(sc), ground_truth(sc)
        for bin_, want in zip(bins, truth.mean1_db):
            got = linear_to_db(bin_.observed.mean())
            assert abs(got - want) < 0.3


class TestGenerateScenario:
    def test_no_censoring(self):
        sc = Scenario(c_db=-1000.0, seed=2)
        bins = generate_scenario(sc)
        assert all(b.r1 == 0 for b in bins)

    def test_pure_signal_ignores_interference_level(self):
        # with mixing_alpha1=1 every retained sample is a signal draw, so the
        # interference level cannot change the dataset
        a = generate_scenario(Scenario(mixing_alpha1=1.0, seed=3))
        b = generate_scenario(Scenario(mixing_alpha1=1.0, seed=3,
                                       interference_mean_db=-50.0))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.observed, y.observed)

    def test_default_scenario_loss_profile(self):
        sc = Scenario(seed=4)
        bins = generate_scenario(sc)
        fracs = [b.loss_fraction for b in bins]
        assert max(fracs) <= 0.5
        # losses grow with distance once censoring kicks in
        assert fracs[-1] > 0.3
        tail = [f for f in fracs if f > 0]
        assert tail == sorted(tail)

    def test_analytic_censoring_probability(self):
        sc = Scenario(seed=5)
        bins = generate_scenario(sc)
        for b, bin_ in enumerate(bins):
            p = censoring_probability(bin_.ld, sc)
            sigma = math.sqrt(sc.n_per_bin * p * (1 - p))
            assert abs(bin_.r1 - sc.n_per_bin * p) <= 3 * sigma + 1e-9

    def test_determinism(self):
        a = generate_scenario(Scenario(seed=6))
        b = generate_scenario(Scenario(seed=6))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.observed, y.observed)
            assert x.r1 == y.r1

    def test_ground_truth_consistency(self):
        sc = Scenario(seed=7)
        truth = ground_truth(sc)
        for ld, phi, m1db in zip(truth.lds, truth.params, truth.mean1_db):
            assert phi == true_params_at(float(ld), sc)
            assert 10 * math.log10(phi.comp1.mean) == pytest.approx(m1db)


class TestPacketRows:
    def test_matches_generate_scenario(self):
        sc = Scenario(seed=8, ld_start=30.0, ld_end=32.0, n_per_bin=200)
        bins = generate_scenario(sc)
        log = packet_rows(sc)
        assert log.dtype == LOG_DTYPE
        assert len(log) == 5 * 200
        assert log["seq"].tolist() == list(range(1, 1001))
        for b, bin_ in enumerate(bins):
            rows = log[b * 200:(b + 1) * 200]
            assert (rows["distance_m"] == 10 ** (bin_.ld / 10)).all()
            rssi = rows["rssi_dbm"][~np.isnan(rows["rssi_dbm"])]
            assert rssi.size == bin_.observed.size
            np.testing.assert_allclose(10 ** (rssi / 10.0), bin_.observed,
                                       rtol=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(step=st.sampled_from([0.25, 0.5, 1.0]),
           ld_start=st.integers(20, 32), n_bins=st.integers(1, 4),
           n_per_bin=st.integers(1, 60),
           m1=st.floats(0.5, 20.0), m2=st.floats(0.5, 60.0),
           alpha1=st.floats(0.0, 1.0), c_db=st.floats(-130.0, -80.0),
           seed=st.integers(0, 2 ** 32))
    def test_log_round_trip_reproduces_bins(self, step, ld_start, n_bins,
                                            n_per_bin, m1, m2, alpha1, c_db,
                                            seed):
        # dyadic steps from an integer start keep every bin edge exact
        sc = Scenario(ld_start=ld_start, ld_end=ld_start + (n_bins - 1) * step,
                      ld_step=step, n_per_bin=n_per_bin, m1=m1, m2=m2,
                      mixing_alpha1=alpha1, c_db=c_db, seed=seed)
        want = generate_scenario(sc)
        text = io.StringIO()
        write_packet_log(text, packet_rows(sc))
        log = parse_packet_log(io.StringIO(text.getvalue()))
        got = bin_by_ld(np.concatenate([log, infer_losses(log)]), step,
                        c_db)
        assert [(b.ld, b.n_total, b.r1) for b in got] == \
            [(b.ld, b.n_total, b.r1) for b in want]
        # the logged dB value carries ~2 ulp from 10*log10, which
        # 10**(x/10) scales by ln(10)/10*|rssi_dbm|, and |rssi_dbm| < 130
        rtol = (math.log(10) / 10 * 130 * 2 + 2) * np.finfo(float).eps
        for g, w in zip(got, want):
            np.testing.assert_allclose(g.observed, w.observed, rtol=rtol)
