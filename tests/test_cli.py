import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chanest import cli, ingest
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

    def test_missing_input(self, tmp_path):
        rc = main(["estimate", "--input", str(tmp_path / "nope.csv"),
                   "--c-db", "-109", "--out", str(tmp_path / "o.csv")])
        assert rc == 2


class TestMalformedLog:
    @pytest.mark.parametrize("command", ["estimate", "compare"])
    @pytest.mark.parametrize("rows, lines", [
        ("1,200,-90\n10000000000,200,-91\n", "[2, 3]"),  # corrupt seq
        ("1,200,-90\n2,200,inf\n3,200,nan\n", "[3, 4]"),
        ("", "no packet rows"),
    ])
    def test_exit_code_and_lines(self, tmp_path, monkeypatch, capsys,
                                 command, rows, lines):
        def no_inference(log):
            raise AssertionError("losses inferred from a rejected log")

        monkeypatch.setattr(ingest, "infer_losses", no_inference)
        packets = tmp_path / "packets.csv"
        packets.write_text("seq,distance_m,rssi_dbm\n" + rows)
        rc = main([command, "--input", str(packets), "--c-db", "-109",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert lines in capsys.readouterr().err


class TestUnwritableOutput:
    @pytest.mark.parametrize("command, flag", [
        ("estimate", "--out"), ("estimate", "--trace"), ("compare", "--out")])
    def test_exit_code(self, tmp_path, scenario_config, capsys, command,
                       flag):
        packets = _simulate(tmp_path, scenario_config)
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
