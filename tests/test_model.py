import numpy as np
import pytest

from chanest.model import (ESTIMATE_FIELDS, PARAM_FIELDS, CensoredBin,
                           GammaParams, MixtureParams, PathLossLine,
                           db_to_linear, linear_to_db, mixture_mean_db,
                           read_estimates, write_estimates)


class TestConversions:
    def test_zero_dbm_is_one_mw(self):
        assert db_to_linear(0.0) == 1.0
        assert linear_to_db(1.0) == 0.0

    def test_noise_floor_threshold(self):
        assert db_to_linear(-109.0) == pytest.approx(10 ** -10.9)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(-150, 30, 1000)
        np.testing.assert_allclose(linear_to_db(db_to_linear(v)), v,
                                   rtol=1e-12)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)
        with pytest.raises(ValueError):
            linear_to_db(np.array([1.0, -1.0]))


def _phi(alpha1=0.5, m1=7.0, om1=2.0, m2=1.0, om2=5.0):
    return MixtureParams(alpha1, GammaParams(m1, om1), GammaParams(m2, om2))


class TestMixtureParams:
    def test_alpha2_complement(self):
        assert _phi(alpha1=0.3).alpha2 == pytest.approx(0.7)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            _phi(alpha1=1.5)

    def test_row_round_trip(self):
        phi = _phi(alpha1=0.3, m1=6.0, om1=1.5, m2=30.0, om2=0.25)
        assert phi.row() == (0.3, 6.0, 1.5, 30.0, 0.25)
        assert len(phi.row()) == len(PARAM_FIELDS)
        assert MixtureParams.from_row(np.array(phi.row())) == phi
        assert all(type(v) is float
                   for v in MixtureParams.from_row(np.ones(5)).row())


class TestMixtureMeanDb:
    def test_unit_mean(self):
        assert mixture_mean_db(_phi(m1=1.0, om1=1.0), 1) == 0.0

    def test_definition(self):
        phi = _phi(m1=7.0, om1=10 ** -8.5 / 7.0)
        assert mixture_mean_db(phi, 1) == pytest.approx(-85.0)

    def test_monte_carlo_consistency(self):
        phi = _phi()
        draws = np.random.default_rng(1).gamma(phi.comp1.m, phi.comp1.omega,
                                               100_000)
        assert mixture_mean_db(phi, 1) == pytest.approx(
            linear_to_db(draws.mean()), abs=10 * np.log10(1.02))

    def test_rejects_bad_component(self):
        with pytest.raises(ValueError):
            mixture_mean_db(_phi(), 3)


class TestCensoredBin:
    def test_counts(self):
        b = CensoredBin(ld=23.0, observed=[1e-9, 2e-9], n_total=5, r1=3,
                        c_db=-100.0)
        assert b.loss_fraction == pytest.approx(0.6)
        assert b.c_lin == pytest.approx(1e-10)

    def test_rejects_inconsistent_counts(self):
        with pytest.raises(ValueError):
            CensoredBin(ld=23.0, observed=[1e-9], n_total=3, r1=1,
                        c_db=-100.0)

    def test_rejects_sample_at_or_below_threshold(self):
        with pytest.raises(ValueError):
            CensoredBin(ld=23.0, observed=[1e-10], n_total=1, r1=0,
                        c_db=-100.0)


class TestPathLossLine:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PathLossLine(A=np.nan, B=3.0)


class TestEstimateCsv:
    def test_round_trip(self, tmp_path):
        phi = _phi(alpha1=0.4217)
        path = tmp_path / "est.csv"
        with open(path, "w", newline="") as fh:
            write_estimates(fh, [(23.5, phi, 0.125, "ok")])
        rows, statuses = read_estimates(path)
        assert statuses == ["ok"]
        want = {"ld": 23.5, **dict(zip(PARAM_FIELDS, phi.row())),
                "mean1_db": mixture_mean_db(phi, 1),
                "mean2_db": mixture_mean_db(phi, 2), "loss_fraction": 0.125}
        assert tuple(want) == ESTIMATE_FIELDS
        for key, value in want.items():
            assert rows[0][key] == pytest.approx(value, rel=1e-12)

    def test_status_column(self, tmp_path):
        path = tmp_path / "est.csv"
        with open(path, "w", newline="") as fh:
            write_estimates(fh, [(30.0, None, 0.5, "insufficient-data")])
        assert path.read_text().splitlines()[1] == \
            "30.0" + "," * (len(ESTIMATE_FIELDS) - 1) + ",insufficient-data"
        rows, statuses = read_estimates(path)
        assert statuses == ["insufficient-data"]
        assert rows[0]["ld"] == 30.0
        assert np.isnan(rows[0]["m1"])

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "NaN", "x"])
    def test_read_rejects_nonfinite_value(self, tmp_path, value):
        path = tmp_path / "est.csv"
        path.write_text(",".join(ESTIMATE_FIELDS) + ",status\n"
                        "23.0,0.5,7,1,35,1,-85,-97,0.0,ok\n"
                        f"24.0,0.5,7,1,35,1,{value},-97,,ok\n")
        with pytest.raises(ValueError, match="line 3: mean1_db"):
            read_estimates(path)

    def test_read_rejects_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ld,alpha1\n1.0,0.5\n")
        with pytest.raises(ValueError):
            read_estimates(path)
