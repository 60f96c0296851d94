import contextlib
import csv
import importlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanest import cli, ingest, semcm, simulator
from chanest.cli import main
from chanest.model import read_estimates
from chanest.simulator import Scenario


@pytest.fixture
def scenario_config(tmp_path):
    sc = Scenario(ld_start=23.0, ld_end=25.0, ld_step=0.5, n_per_bin=400,
                  seed=12)
    path = tmp_path / "scenario.json"
    path.write_text(sc.to_json())
    return path


def _simulate(tmp_path, scenario_config):
    out = tmp_path / "packets.csv"
    rc = main(["simulate", "--config", str(scenario_config),
               "--out", str(out)])
    assert rc == 0
    return out


class TestSimulate:
    def test_writes_dataset_and_truth(self, tmp_path, scenario_config):
        out = _simulate(tmp_path, scenario_config)
        lines = out.read_text().splitlines()
        assert lines[0] == "seq,distance_m,rssi_dbm"
        assert len(lines) == 1 + 5 * 400
        truth = (tmp_path / "packets.csv.truth.csv").read_text().splitlines()
        assert len(truth) == 1 + 5

    def test_byte_identical_reruns(self, tmp_path, scenario_config):
        a = _simulate(tmp_path, scenario_config).read_bytes()
        b = _simulate(tmp_path, scenario_config).read_bytes()
        assert a == b

    def test_missing_config(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("doc", [
        pytest.param({"bogus": 1}, id="unknown-key"),
        pytest.param(None, id="null"),
        pytest.param([1], id="array"),
        pytest.param({"n_per_bin": "x"}, id="str-int"),
        pytest.param({"seed": 1.5}, id="float-int"),
        pytest.param({"m1": "7"}, id="str-float"),
        pytest.param({"seed": True}, id="bool-int"),
        pytest.param({"m1": float("nan")}, id="nan-float"),
        # ~9e9 grid bins: rejected before the grid is built
        pytest.param({"ld_step": 1e-9}, id="too-many-packets"),
        # an integer that float() cannot hold
        pytest.param({"m1": 10 ** 400}, id="huge-int-float"),
    ])
    def test_bad_config_schema(self, tmp_path, capsys, doc):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "chanest simulate:" in capsys.readouterr().err


class TestEstimate:
    def test_pipeline(self, tmp_path, scenario_config):
        packets = _simulate(tmp_path, scenario_config)
        est = tmp_path / "est.csv"
        trace = tmp_path / "trace.csv"
        rc = main(["estimate", "--input", str(packets), "--c-db", "-109",
                   "--out", str(est), "--trace", str(trace), "--seed", "1"])
        assert rc == 0
        rows, statuses = read_estimates(est)
        assert len(rows) == 5
        assert all(s == "ok" for s in statuses)
        trace_lines = trace.read_text().splitlines()
        assert trace_lines[0].startswith("ld,iteration,")
        assert len(trace_lines) == 1 + 5 * 50
        for line in trace_lines[1:]:
            assert all(math.isfinite(float(v)) for v in line.split(","))

    def test_deterministic(self, tmp_path, scenario_config):
        packets = _simulate(tmp_path, scenario_config)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = main(["estimate", "--input", str(packets), "--c-db", "-109",
                       "--out", str(out), "--seed", "7"])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["estimate", "compare"])
    def test_power_on_threshold_is_censored(self, tmp_path, command):
        # the last RSSI is above --c-db in dB, but its linear power rounds
        # onto the threshold's: a censored row, not a crash
        packets = tmp_path / "p.csv"
        packets.write_text("seq,distance_m,rssi_dbm\n" + "".join(
            f"{s},1000.0,{-90.0 - s}\n" for s in range(1, 20))
            + "20,1000.0,-119.49999999999999\n")
        out = tmp_path / "o.csv"
        rc = main([command, "--input", str(packets), "--c-db", "-119.5",
                   "--out", str(out)])
        assert rc == 0
        with out.open(newline="") as fh:
            row, = csv.DictReader(fh)
        assert row["loss_fraction"] == "0.05"

    def test_missing_input(self, tmp_path):
        rc = main(["estimate", "--input", str(tmp_path / "nope.csv"),
                   "--c-db", "-109", "--out", str(tmp_path / "o.csv")])
        assert rc == 2


class TestFailedBins:
    def test_failed_bins_have_status_rows(self, tmp_path):
        # bin 23: four equal powers, so the start's moment shape raises;
        # bin 24: one received and one lost packet; bin 25: six distinct
        rows = [(2.3, "-80")] * 4 + [(2.4, "-95"), (2.4, "")] + [
            (2.5, str(-90 - 3 * k)) for k in range(6)]
        packets = tmp_path / "p.csv"
        packets.write_text("seq,distance_m,rssi_dbm\n" + "".join(
            f"{s},{10 ** e!r},{r}\n" for s, (e, r) in enumerate(rows, 1)))
        outs = {}
        for command in ("estimate", "compare"):
            out = tmp_path / f"{command}.csv"
            rc = main([command, "--input", str(packets), "--c-db", "-109",
                       "--ld-step", "1", "--out", str(out)])
            assert rc == 0
            with out.open(newline="") as fh:
                outs[command] = list(csv.DictReader(fh))
        statuses = ["numerical-failure", "insufficient-data", "ok"]
        est, cmp_ = outs["estimate"], outs["compare"]
        assert [r["ld"] for r in est] == ["23.0", "24.0", "25.0"]
        assert [r["status"] for r in est] == statuses
        for row in est[:2]:
            assert all(v == "" for k, v in row.items()
                       if k not in ("ld", "status"))
        assert all(math.isfinite(float(v)) for k, v in est[2].items()
                   if k not in ("ld", "status"))
        assert [r["status"] for r in cmp_] == statuses
        assert [r["loss_fraction"] for r in cmp_] == ["0.0", "0.5", "0.0"]
        assert cmp_[0]["sem_m1"] == cmp_[1]["sem_m1"] == ""


class TestMalformedLog:
    @pytest.mark.parametrize("command", ["estimate", "compare"])
    @pytest.mark.parametrize("rows, lines", [
        ("1,200,-90\n10000000000,200,-91\n", "[2, 3]"),  # corrupt seq
        ("1,200,-90\n2,200,inf\n3,200,nan\n", "[3, 4]"),
        ("", "no packet rows"),
        # a byte that is not UTF-8, read back as a lone surrogate
        pytest.param("1,200,-90\n2,200,-9\udcff1\n", "[3]",
                     id="undecodable"),
        pytest.param("1,200,-90\n2,200,4000\n", "[3]", id="rssi-overflow"),
        pytest.param("1,200,-90\n2,200," + "9" * csv.field_size_limit()
                     + "9\n", "line 3: field larger than field limit",
                     id="oversized-field"),
    ])
    def test_exit_code_and_lines(self, tmp_path, monkeypatch, capsys,
                                 command, rows, lines):
        def no_inference(log):
            raise AssertionError("losses inferred from a rejected log")

        monkeypatch.setattr(ingest, "infer_losses", no_inference)
        packets = tmp_path / "packets.csv"
        packets.write_bytes(("seq,distance_m,rssi_dbm\n" + rows).encode(
            errors="surrogateescape"))
        out = tmp_path / "o.csv"
        out.write_text("earlier output\n")
        rc = main([command, "--input", str(packets), "--c-db", "-109",
                   "--out", str(out)])
        assert rc == 2
        assert lines in capsys.readouterr().err
        # a rejected log leaves an existing output untouched
        assert out.read_text() == "earlier output\n"


def _small_log_lines():
    text = io.StringIO()
    ingest.write_packet_log(text, simulator.packet_rows(Scenario(
        ld_start=23.0, ld_end=24.0, n_per_bin=30, seed=5)))
    return text.getvalue().encode().split(b"\r\n")


SMALL_LOG = _small_log_lines()
# RSSI values whose linear power does not fit a float, either sign
HUGE_RSSI = st.floats(ingest.MAX_RSSI_DBM, 1e308, exclude_min=True) \
    | st.floats(-1e308, -ingest.MAX_RSSI_DBM, exclude_max=True)
LINE = st.integers(0, len(SMALL_LOG) - 1)
MUTATION = st.one_of(
    # a byte, or a count of digits over the csv module's field limit (a
    # count keeps the repr of a failing example short)
    st.tuples(st.just("insert"), LINE, st.integers(0, 40), st.sampled_from(
        [b"\xff", b"\x00", b'"', csv.field_size_limit() + 1])),
    st.tuples(st.just("rssi"), LINE, HUGE_RSSI),
    st.tuples(st.just("drop"), LINE),
    st.tuples(st.just("duplicate"), LINE))


def _mutate(lines, mutation):
    kind, at, *arg = mutation
    at = min(at, len(lines) - 1)  # earlier drops shorten the log
    line = lines[at]
    if kind == "insert":
        text = arg[1] if isinstance(arg[1], bytes) else b"7" * arg[1]
        lines[at] = line[:arg[0]] + text + line[arg[0]:]
    elif kind == "rssi":
        lines[at] = line.rpartition(b",")[0] + b"," + repr(arg[0]).encode()
    elif kind == "drop":
        del lines[at]
    else:
        lines.insert(at, line)


class TestAnyMalformedLog:
    """Any mutation of a valid log exits 0 or 2, never with a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(mutations=st.lists(MUTATION, min_size=1, max_size=3))
    def test_exit_code(self, mutations):
        lines = list(SMALL_LOG)
        for mutation in mutations:
            _mutate(lines, mutation)
        with tempfile.TemporaryDirectory() as tmp:
            packets, out = Path(tmp, "packets.csv"), Path(tmp, "o.csv")
            packets.write_bytes(b"\r\n".join(lines))
            out.write_text("earlier output\n")
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err):
                warnings.simplefilter("error")  # a warning fails too
                rc = main(["estimate", "--input", str(packets), "--c-db",
                           "-109", "--iters", "3", "--burn", "1",
                           "--out", str(out)])
            assert rc in (0, 2)
            if rc == 2:
                assert err.getvalue().startswith("chanest estimate:")
                assert out.read_text() == "earlier output\n"


class TestUnwritableOutput:
    @pytest.mark.parametrize("command, flag", [
        ("estimate", "--out"), ("estimate", "--trace"), ("compare", "--out")])
    def test_exit_code(self, tmp_path, scenario_config, capsys, monkeypatch,
                       command, flag):
        packets = _simulate(tmp_path, scenario_config)

        def unreachable(*args):
            raise AssertionError("estimated before opening the outputs")

        # the outputs are opened before any chain runs
        monkeypatch.setattr(semcm, "run_semcm_batch", unreachable)
        outs = {"--out": str(tmp_path / "o.csv"),
                flag: str(tmp_path / "missing" / "x.csv")}
        rc = main([command, "--input", str(packets), "--c-db", "-109",
                   *(arg for item in outs.items() for arg in item)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"chanest {command}:" in err and "missing" in err


class TestCompare:
    def test_columns(self, tmp_path, scenario_config):
        packets = _simulate(tmp_path, scenario_config)
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--input", str(packets), "--c-db", "-109",
                   "--out", str(out), "--seed", "1"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "ld,sem_m1,ml_m,mb_m,loss_fraction,status"
        assert len(lines) == 1 + 5

    def test_huge_power_has_moment_shape(self, tmp_path, scenario_config):
        # a valid 2000 dBm row: its squared power, 1e400 mW^2, is beyond
        # float range
        packets = _simulate(tmp_path, scenario_config)
        lines = packets.read_text().splitlines()
        seq, dist, _ = lines[1].split(",")
        lines[1] = f"{seq},{dist},2000"
        packets.write_text("\n".join(lines) + "\n")
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--input", str(packets), "--c-db", "-109",
                   "--out", str(out), "--seed", "1"])
        assert rc == 0
        with out.open(newline="") as fh:
            row = next(csv.DictReader(fh))
        assert math.isfinite(float(row["mb_m"]))


class TestFit:
    def test_composition_recovers_line(self, tmp_path):
        # interference-free scenario: component 1 identity is unambiguous
        sc = Scenario(ld_start=23.0, ld_end=26.0, ld_step=0.5, n_per_bin=400,
                      mixing_alpha1=1.0, seed=13)
        cfg = tmp_path / "sc.json"
        cfg.write_text(sc.to_json())
        packets = tmp_path / "packets.csv"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(packets)]) == 0
        est = tmp_path / "est.csv"
        main(["estimate", "--input", str(packets), "--c-db", "-109",
              "--out", str(est), "--seed", "1", "--init-m1", "7"])
        fit = tmp_path / "fit.csv"
        rc = main(["fit", "--input", str(est), "--component", "1",
                   "--out", str(fit)])
        assert rc == 0
        header, values = fit.read_text().splitlines()
        assert header == "A,B"
        a, b = map(float, values.split(","))
        assert a == pytest.approx(-16.0, abs=2.0)
        assert b == pytest.approx(3.0, abs=0.3)

    def test_exact_line_input(self, tmp_path):
        est = tmp_path / "est.csv"
        hdr = ("ld,alpha1,m1,omega1,m2,omega2,mean1_db,mean2_db,"
               "loss_fraction,status\n")
        rows = "".join(
            f"{ld},0.5,7,1,35,1,{-16 - 3 * ld},-97,0.0,ok\n"
            for ld in (23.0, 24.0, 25.0))
        est.write_text(hdr + rows)
        rc = main(["fit", "--input", str(est), "--out",
                   str(tmp_path / "f.csv")])
        assert rc == 0
        a, b = map(float, (tmp_path / "f.csv").read_text()
                   .splitlines()[1].split(","))
        assert a == pytest.approx(-16.0, abs=1e-9)
        assert b == pytest.approx(3.0, abs=1e-9)

    def test_single_bin_is_numerical_failure(self, tmp_path):
        est = tmp_path / "est.csv"
        est.write_text("ld,alpha1,m1,omega1,m2,omega2,mean1_db,mean2_db,"
                       "loss_fraction,status\n"
                       "23.0,0.5,7,1,35,1,-85,-97,0.0,ok\n")
        rc = main(["fit", "--input", str(est)])
        assert rc == 3

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_nonfinite_estimate_is_data_error(self, tmp_path, capsys, value):
        est = tmp_path / "est.csv"
        est.write_text("ld,alpha1,m1,omega1,m2,omega2,mean1_db,mean2_db,"
                       "loss_fraction,status\n"
                       "23.0,0.5,7,1,35,1,-85,-97,0.0,ok\n"
                       f"24.0,0.5,7,1,35,1,{value},-97,0.0,ok\n"
                       "25.0,0.5,7,1,35,1,-91,-97,0.0,ok\n")
        rc = main(["fit", "--input", str(est)])
        assert rc == 2
        assert "line 3: mean1_db" in capsys.readouterr().err

    def test_oversized_field_is_data_error(self, tmp_path, capsys):
        est = tmp_path / "est.csv"
        est.write_text("ld,alpha1,m1,omega1,m2,omega2,mean1_db,mean2_db,"
                       "loss_fraction,status\n"
                       "23.0,0.5,7,1,35,1,-85,-97,0.0,ok\n"
                       f"24.0,0.5,7,1,35,1,-88,-97,0.0,{'x' * 200_000}\n")
        rc = main(["fit", "--input", str(est)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "chanest fit: estimates CSV line 3: field larger")

    def test_exclude_interval(self, tmp_path):
        est = tmp_path / "est.csv"
        hdr = ("ld,alpha1,m1,omega1,m2,omega2,mean1_db,mean2_db,"
               "loss_fraction,status\n")
        rows = "".join(
            f"{ld},0.5,7,1,35,1,{-16 - 3 * ld if ld < 26 else 0.0},-97,0.0,ok\n"
            for ld in (23.0, 24.0, 25.0, 27.0))
        est.write_text(hdr + rows)
        rc = main(["fit", "--input", str(est), "--exclude-ld", "26:28",
                   "--out", str(tmp_path / "f.csv")])
        assert rc == 0
        a, b = map(float, (tmp_path / "f.csv").read_text()
                   .splitlines()[1].split(","))
        assert a == pytest.approx(-16.0, abs=1e-9)


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["simulate"])
        assert err.value.code == 1

    @pytest.mark.parametrize("command, flags", [
        pytest.param(command, flags, id=f"{' '.join(flags)}-{command}")
        for command, flags in [
            *((command, flags) for flags in (
                ["--iters", "0"], ["--burn", "51"], ["--burn", "0"],
                ["--iters", "5", "--burn", "6"], ["--ld-step", "0"],
                ["--ld-step", "-0.5"], ["--c-db", "nan"], ["--c-db", "inf"],
                # linear threshold 0 (underflow) and inf (overflow)
                ["--c-db", "-3400"], ["--c-db", "3100"],
                # 10 log10 of the smallest distance / step overflows
                ["--ld-step", "1e-310"],
                ["--init-m1", "-1"], ["--init-m1", "nan"], ["--seed", "-1"])
              for command in ("estimate", "compare")),
            *(("fit", ["--exclude-ld", bounds]) for bounds in (
                "nan:nan", "0:nan", "-inf:30", "1:x", "2:1"))]])
    def test_rejected_estimation_values(self, tmp_path, capsys, command,
                                        flags):
        est_flags = ["--c-db", "-109"] if command != "fit" else []
        with pytest.raises(SystemExit) as err:
            main([command, "--input", str(tmp_path / "p.csv"), *est_flags,
                  "--out", str(tmp_path / "o.csv"), *flags])
        assert err.value.code == 1
        assert "usage:" in capsys.readouterr().err

    def test_rejected_simulate_seed(self, tmp_path, scenario_config):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--config", str(scenario_config),
                  "--out", str(tmp_path / "p.csv"), "--seed", "-1"])
        assert err.value.code == 1


ROOT = Path(__file__).resolve().parents[1]


class TestTracedBenchmark:
    """bench/child.py wraps package functions by name for ``--trace 1``."""

    def test_targets_resolve(self):
        spec = importlib.util.spec_from_file_location(
            "bench_child", ROOT / "bench" / "child.py")
        child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(child)
        for module, attr, *_ in child.TARGETS:
            assert callable(getattr(importlib.import_module(module), attr,
                                    None)), f"{module}.{attr}"
        assert set(cli._COMMANDS) == {"simulate", "estimate", "compare",
                                      "fit"}

    def test_traced_estimate_counts(self, tmp_path, scenario_config):
        packets = _simulate(tmp_path, scenario_config)
        result = tmp_path / "child.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "child.py"), "0", "1",
             str(result), "--", "estimate", "--input", str(packets),
             "--c-db", "-109", "--out", str(tmp_path / "est.csv")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        trace = json.loads(result.read_text())["trace"]
        assert trace["counts"]["ingest.bins"] == 5
        assert trace["calls"]["gamma_core.solve_shape"] >= 50
