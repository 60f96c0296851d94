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

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chanest import cli, ingest, semcm, simulator
from chanest.cli import main
from chanest.errors import (DegenerateFitError, InsufficientDataError,
                            NumericalFailureError)
from chanest.model import PARAM_FIELDS, read_estimates
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
        sc = Scenario.from_json(scenario_config.read_text())
        with (tmp_path / "packets.csv.truth.csv").open(newline="") as fh:
            truth = list(csv.DictReader(fh))
        assert [float(row["ld"]) for row in truth] == sc.ld_grid.tolist()
        for row in truth:
            ld, mean1_db = float(row["ld"]), float(row["mean1_db"])
            phi = simulator.true_params_at(ld, sc)
            assert tuple(float(row[f]) for f in PARAM_FIELDS) == phi.row()
            assert mean1_db == sc.pl_a - sc.pl_b * ld
            assert 10 * math.log10(phi.comp1.mean) == pytest.approx(mean1_db)
            assert float(row["mean2_db"]) == sc.interference_mean_db

    def test_byte_identical_reruns(self, tmp_path, scenario_config):
        a = _simulate(tmp_path, scenario_config).read_bytes()
        b = _simulate(tmp_path, scenario_config).read_bytes()
        assert a == b
        # --seed writes what the scenario's own seed would
        outs = []
        for doc, flags in (({}, ["--seed", "5"]), ({"seed": 5}, []),
                           ({}, [])):
            cfg, out = tmp_path / "sc.json", tmp_path / f"{len(outs)}.csv"
            cfg.write_text(json.dumps(doc))
            assert main(["simulate", "--config", str(cfg), "--out", str(out),
                         *flags]) == 0
            outs.append((out.read_bytes(),
                         Path(f"{out}.truth.csv").read_bytes()))
        assert outs[0] == outs[1]
        assert outs[0][0] != outs[2][0]

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

    def test_deeply_nested_config(self, tmp_path, capsys):
        # beyond the json module's recursion limit; json.dumps cannot
        # build it either
        cfg, out = tmp_path / "deep.json", tmp_path / "x.csv"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == \
            "chanest simulate: scenario JSON is nested too deeply\n"
        assert not out.exists()

    @pytest.mark.parametrize("doc, name", [
        ({"pl_a": 4000}, "signal scale"),
        ({"ld_end": 4000, "pl_b": 0}, "distance"),
        ({"m2": 1e-320}, "interference scale"),
        ({"c_db": -4000}, "linear threshold")])
    def test_scenario_beyond_float_range(self, tmp_path, capsys, doc, name):
        cfg, out = tmp_path / "big.json", tmp_path / "x.csv"
        cfg.write_text(json.dumps(doc))
        out.write_text("earlier output\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning fails too
            rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"chanest simulate: scenario {name} must be finite and > 0")
        assert out.read_text() == "earlier output\n"


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

    def test_whitespace_lines_are_blank(self, tmp_path, scenario_config):
        # lines of only spaces or tabs between rows change nothing
        packets = _simulate(tmp_path, scenario_config)
        lines = packets.read_bytes().split(b"\r\n")
        spaced = tmp_path / "spaced.csv"
        spaced.write_bytes(b"\r\n".join(lines[:3] + [b"   ", b"\t"]
                                        + lines[3:]))
        outs = []
        for log in (packets, spaced):
            out = tmp_path / f"{log.stem}.est.csv"
            rc = main(["estimate", "--input", str(log), "--c-db", "-109",
                       "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_byte_order_mark_is_dropped(self, tmp_path, scenario_config):
        # a spreadsheet's "CSV UTF-8" export starts with a BOM
        packets = _simulate(tmp_path, scenario_config)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + packets.read_bytes())
        outs = []
        for log in (packets, marked):
            out = tmp_path / f"{log.stem}.est.csv"
            rc = main(["estimate", "--input", str(log), "--c-db", "-109",
                       "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_matches_library(self, tmp_path):
        # two of the seven bins have fewer than 2 received packets
        sc = Scenario(ld_start=29.0, ld_end=32.0, n_per_bin=5, c_db=-100.0,
                      seed=3)
        cfg, packets, est = (tmp_path / name for name in
                             ("sc.json", "p.csv", "est.csv"))
        cfg.write_text(sc.to_json())
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(packets)]) == 0
        assert main(["estimate", "--input", str(packets), "--c-db", "-100",
                     "--seed", "2", "--out", str(est)]) == 0
        results = semcm.fit_bins(simulator.generate_scenario(sc),
                                 semcm.SemConfig(), 2)
        status = {semcm.SemTrace: "ok",
                  InsufficientDataError: "insufficient-data",
                  DegenerateFitError: "degenerate-fit",
                  NumericalFailureError: "numerical-failure"}
        with est.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == \
            [status[type(res)] for res in results]
        assert "insufficient-data" in [r["status"] for r in rows]
        for row, res in zip(rows, results):
            assert [row[f] for f in PARAM_FIELDS] == (
                [repr(v) for v in res.final.row()]
                if isinstance(res, semcm.SemTrace) else [""] * 5)

    def test_paper_digamma(self, tmp_path, scenario_config):
        packets = _simulate(tmp_path, scenario_config)
        outs = []
        for mode in ("exact", "paper", "paper"):
            out = tmp_path / "est.csv"
            rc = main(["estimate", "--input", str(packets), "--c-db", "-109",
                       "--digamma", mode, "--out", str(out), "--seed", "1"])
            assert rc == 0
            outs.append(out.read_bytes())
        assert read_estimates(out)[1] == ["ok"] * 5
        assert outs[0] != outs[1] == outs[2]

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

    def test_missing_input(self, tmp_path, capsys):
        rc = main(["estimate", "--input", str(tmp_path / "nope.csv"),
                   "--c-db", "-109", "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        # an empty log, or one of comments and blank lines only
        for text in ("", "# a comment\n\n"):
            packets = tmp_path / "p.csv"
            packets.write_text(text)
            capsys.readouterr()
            rc = main(["estimate", "--input", str(packets), "--c-db", "-109",
                       "--out", str(tmp_path / "o.csv")])
            assert rc == 2
            assert capsys.readouterr().err == \
                "chanest estimate: line 1: missing header row\n"

    @pytest.mark.parametrize("command", ["estimate", "compare"])
    def test_history_over_cap(self, tmp_path, scenario_config, capsys,
                              monkeypatch, command):
        packets = _simulate(tmp_path, scenario_config)

        def unreachable(*args):
            raise AssertionError("estimated past the chain-history cap")

        monkeypatch.setattr(semcm, "run_semcm_batch", unreachable)
        out = tmp_path / "o.csv"
        out.write_text("earlier output\n")
        iters = cli.MAX_HISTORY_FLOATS // (5 * 5) + 1  # 5 bins
        rc = main([command, "--input", str(packets), "--c-db", "-109",
                   "--iters", str(iters), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"chanest {command}: 5 bins x {iters} iterations")
        assert out.read_text() == "earlier output\n"


class TestFailedBins:
    @staticmethod
    def _run(tmp_path, rows):
        """Write (log10 distance, RSSI) rows as a log and run estimate and
        compare on it at --ld-step 1; return each command's CSV rows."""
        packets, trace = tmp_path / "p.csv", tmp_path / "trace.csv"
        packets.write_text("seq,distance_m,rssi_dbm\n" + "".join(
            f"{s},{10 ** e!r},{r}\n" for s, (e, r) in enumerate(rows, 1)))
        outs = []
        for command, flags in (("estimate", ["--trace", str(trace)]),
                               ("compare", [])):
            out = tmp_path / f"{command}.csv"
            rc = main([command, "--input", str(packets), "--c-db", "-109",
                       "--ld-step", "1", "--out", str(out), *flags])
            assert rc == 0
            with out.open(newline="") as fh:
                outs.append(list(csv.DictReader(fh)))
        # the trace holds the 50 iterations of each ok bin, and no row of a
        # failed one
        with trace.open(newline="") as fh:
            traced = [row["ld"] for row in csv.DictReader(fh)]
        assert traced == [row["ld"] for row in outs[0]
                          if row["status"] == "ok" for _ in range(50)]
        return outs

    def test_failed_bins_have_status_rows(self, tmp_path):
        # bin 23: four equal powers, so the start's moment shape raises;
        # bin 24: one received and one lost packet; bin 25: six distinct
        rows = [(2.3, "-80")] * 4 + [(2.4, "-95"), (2.4, "")] + [
            (2.5, str(-90 - 3 * k)) for k in range(6)]
        est, cmp_ = self._run(tmp_path, rows)
        statuses = ["numerical-failure", "insufficient-data", "ok"]
        assert [r["ld"] for r in est] == ["23.0", "24.0", "25.0"]
        assert [r["status"] for r in est] == statuses
        for row in est[:2]:
            assert all(v == "" for k, v in row.items()
                       if k not in ("ld", "loss_fraction", "status"))
        assert all(math.isfinite(float(v)) for k, v in est[2].items()
                   if k not in ("ld", "status"))
        assert [r["status"] for r in cmp_] == statuses
        # a failed bin keeps its loss fraction in both files
        for out in (est, cmp_):
            assert [r["loss_fraction"] for r in out] == ["0.0", "0.5", "0.0"]
        assert cmp_[0]["sem_m1"] == cmp_[1]["sem_m1"] == ""

    def test_power_sum_overflow(self, tmp_path):
        # bin 23: eight powers near float max whose sum overflows; the start
        # fails on the infinite mean, and ML- still has a shape
        rows = [(2.3, repr(3078.0 + 0.5 * k)) for k in range(8)] + [
            (2.5, str(-90 - 3 * k)) for k in range(6)]
        est, cmp_ = self._run(tmp_path, rows)
        for out in (est, cmp_):
            assert [r["status"] for r in out] == ["numerical-failure", "ok"]
        # ML- from mpmath at 60 digits on the same float powers
        assert float(cmp_[0]["ml_m"]) == pytest.approx(14.637738490687786,
                                                       rel=1e-12)
        assert cmp_[0]["mb_m"] == "14.591665655574305"

    @pytest.mark.parametrize("rssi, c_db", [
        # the scales of the burn window sum beyond float max
        ([3067.195, 3065.544, 3065.249, 3041.816, 3067.653, 3072.38,
          3065.119, 3061.387, 3061.966, 3079.571], "-100"),
        # an M-step scale update overflows
        ([3066.325, 3079.012, 3063.576, 3063.085, 3024.029, 3067.051,
          3072.876, 3064.573, 3062.868, 3056.648], "-100"),
        # the log means that order the components overflow, then as the
        # first
        ([3061.250129716952, 3081.4729167374776, 3074.2740867684456],
         "3000"),
    ], ids=["burn-window", "m-step", "order"])
    @pytest.mark.parametrize("command", ["estimate", "compare"])
    def test_near_ceiling_bin(self, tmp_path, capsys, command, rssi, c_db):
        packets, out = tmp_path / "p.csv", tmp_path / "o.csv"
        packets.write_text("seq,distance_m,rssi_dbm\n" + "".join(
            f"{s},100.0,{r!r}\n" for s, r in enumerate(rssi, 1)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([command, "--input", str(packets), "--c-db", c_db,
                       "--seed", "1", "--out", str(out)])
        assert rc == 0 and not caught
        assert capsys.readouterr().err == ""
        with out.open(newline="") as fh:
            assert [r["status"] for r in csv.DictReader(fh)] == \
                ["numerical-failure"]

    @pytest.mark.parametrize("command", ["estimate", "compare"])
    def test_huge_start_shape(self, tmp_path, scenario_config, command):
        # the start's shape 1e308 times ln(omega) overflows in the E-step
        packets = _simulate(tmp_path, scenario_config)
        out = tmp_path / "o.csv"
        rc = main([command, "--input", str(packets), "--c-db", "-109",
                   "--init-m1", "1e308", "--out", str(out)])
        assert rc == 0
        with out.open(newline="") as fh:
            assert [r["status"] for r in csv.DictReader(fh)] == \
                ["numerical-failure"] * 5


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
# the distance field of each bin of SMALL_LOG
BIN_DISTANCES = sorted({line.split(b",")[1] for line in SMALL_LOG[1:] if line})
MUTATION = st.one_of(
    # a byte, or a count of digits over the csv module's field limit (a
    # count keeps the repr of a failing example short)
    st.tuples(st.just("insert"), LINE, st.integers(0, 40), st.sampled_from(
        [b"\xff", b"\x00", b'"', csv.field_size_limit() + 1])),
    st.tuples(st.just("rssi"), LINE, HUGE_RSSI),
    # every received RSSI of one bin drawn from [3000, MAX_RSSI_DBM] by a
    # generator of this seed
    st.tuples(st.just("ceiling"), st.sampled_from(BIN_DISTANCES),
              st.integers(0, 2 ** 32 - 1)),
    st.tuples(st.just("drop"), LINE),
    st.tuples(st.just("duplicate"), LINE))


def _mutate(lines, mutation):
    kind, at, *arg = mutation
    if kind == "ceiling":
        rng = np.random.default_rng(arg[0])
        for i, fields in enumerate(line.split(b",") for line in lines):
            if len(fields) == 3 and fields[1] == at and fields[2]:
                rssi = rng.uniform(3000.0, ingest.MAX_RSSI_DBM)
                lines[i] = b",".join([*fields[:2], repr(rssi).encode()])
        return
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
    """Any mutation of a valid log exits 0 or 2 from estimate and compare,
    never with a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(mutations=st.lists(MUTATION, min_size=1, max_size=3))
    # a near-ceiling bin with one inferred loss whose M-step scale update
    # overflows
    @example(mutations=[("ceiling", BIN_DISTANCES[2], 1297), ("drop", 62)])
    def test_exit_code(self, mutations):
        lines = list(SMALL_LOG)
        for mutation in mutations:
            _mutate(lines, mutation)
        with tempfile.TemporaryDirectory() as tmp:
            packets, out = Path(tmp, "packets.csv"), Path(tmp, "o.csv")
            packets.write_bytes(b"\r\n".join(lines))
            for command in ("estimate", "compare"):
                out.write_text("earlier output\n")
                err = io.StringIO()
                with warnings.catch_warnings(), \
                        contextlib.redirect_stderr(err):
                    warnings.simplefilter("error")  # a warning fails too
                    rc = main([command, "--input", str(packets), "--c-db",
                               "-109", "--iters", "3", "--burn", "1",
                               "--out", str(out)])
                assert rc in (0, 2)
                if rc == 2:
                    assert err.getvalue().startswith(f"chanest {command}:")
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

    def test_each_baseline_on_its_own(self, tmp_path):
        # two powers an ulp apart: ml_minus_shape reads a huge shape and
        # mb_shape raises on zero variance, which empties its field only
        packets, out = tmp_path / "p.csv", tmp_path / "cmp.csv"
        packets.write_text("seq,distance_m,rssi_dbm\n1,200,-83.66107178320007"
                           "\n2,200,-83.66107178320006\n")
        rc = main(["compare", "--input", str(packets), "--c-db", "-109",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[1] \
            == "23.0,,140737488355328.16,,0.0,numerical-failure"


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

    def test_exact_line_input(self, tmp_path, capsys):
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
        # without --out the line goes to stdout as --out writes it
        assert main(["fit", "--input", str(est)]) == 0
        assert capsys.readouterr() == ((tmp_path / "f.csv").read_text(), "")
        rc = main(["fit", "--input", str(est), "--out",
                   str(tmp_path / "missing" / "f.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("chanest fit:") and "missing" in err

    def test_single_bin_is_numerical_failure(self, tmp_path):
        est = tmp_path / "est.csv"
        est.write_text("ld,alpha1,m1,omega1,m2,omega2,mean1_db,mean2_db,"
                       "loss_fraction,status\n"
                       "23.0,0.5,7,1,35,1,-85,-97,0.0,ok\n")
        rc = main(["fit", "--input", str(est)])
        assert rc == 3

    def test_overflowing_line_is_numerical_failure(self, tmp_path, capsys):
        # finite estimates whose slope, 2e308, overflows
        est = tmp_path / "est.csv"
        est.write_text("ld,alpha1,m1,omega1,m2,omega2,mean1_db,mean2_db,"
                       "loss_fraction,status\n"
                       "1.0,0.5,7,1,35,1,1e308,-97,0.0,ok\n"
                       "2.0,0.5,7,1,35,1,-1e308,-97,0.0,ok\n")
        rc = main(["fit", "--input", str(est)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("chanest fit:")

    @pytest.mark.parametrize("ld, value, field", [
        ("24.0", "inf", "mean1_db"), ("24.0", "-inf", "mean1_db"),
        ("24.0", "nan", "mean1_db"),
        # every row the package writes has an ld: an empty one is no NaN
        ("", "-88", "ld"),
    ], ids=["inf", "-inf", "nan", "empty-ld"])
    def test_nonfinite_estimate_is_data_error(self, tmp_path, capsys, ld,
                                              value, field):
        est = tmp_path / "est.csv"
        est.write_text("ld,alpha1,m1,omega1,m2,omega2,mean1_db,mean2_db,"
                       "loss_fraction,status\n"
                       "23.0,0.5,7,1,35,1,-85,-97,0.0,ok\n"
                       f"{ld},0.5,7,1,35,1,{value},-97,0.0,ok\n"
                       "25.0,0.5,7,1,35,1,-91,-97,0.0,ok\n")
        rc = main(["fit", "--input", str(est)])
        assert rc == 2
        assert f"line 3: {field}" in capsys.readouterr().err

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
        # off the line, but failed or without a mean: fit skips both
        rows += ("29.0,0.5,7,1,35,1,0.0,-97,0.5,numerical-failure\n"
                 "30.0,0.5,7,1,35,1,,-97,0.0,ok\n")
        est.write_text(hdr + rows)
        rc = main(["fit", "--input", str(est), "--exclude-ld", "26:28",
                   "--out", str(tmp_path / "f.csv")])
        assert rc == 0
        a, b = map(float, (tmp_path / "f.csv").read_text()
                   .splitlines()[1].split(","))
        assert a == pytest.approx(-16.0, abs=1e-9)
        assert b == pytest.approx(3.0, abs=1e-9)


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

    @pytest.mark.parametrize("trace", ["o.csv", "sub/../o.csv", "link.csv",
                                       "hard.csv"])
    def test_trace_naming_out(self, tmp_path, capsys, monkeypatch, trace):
        # refused before any file is opened: --out keeps its bytes
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "o.csv"
        out.write_bytes(b"kept\r\n")
        (tmp_path / "link.csv").symlink_to(out)
        os.link(out, tmp_path / "hard.csv")
        with pytest.raises(SystemExit) as err:
            main(["estimate", "--input", "p.csv", "--c-db", "-109",
                  "--out", str(out), "--trace", trace])
        assert err.value.code == 1
        assert "--trace and --out name the same file" \
            in capsys.readouterr().err
        assert out.read_bytes() == b"kept\r\n"

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

    def test_traced_sampler_draws(self, tmp_path):
        # deep bins lose packets, so every S-step imputes each bin's r1
        sc = Scenario(ld_start=30.0, ld_end=32.0, ld_step=0.5, n_per_bin=400,
                      seed=12)
        config = tmp_path / "scenario.json"
        config.write_text(sc.to_json())
        packets, est = _simulate(tmp_path, config), tmp_path / "est.csv"
        result = tmp_path / "child.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "child.py"), "0", "1",
             str(result), "--", "estimate", "--input", str(packets),
             "--c-db", repr(sc.c_db), "--iters", "10", "--burn", "5",
             "--out", str(est)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        _, statuses = read_estimates(est)
        assert statuses == ["ok"] * 5
        r1 = sum(bin_.r1 for bin_ in simulator.generate_scenario(sc))
        assert r1 > 0
        trace = json.loads(result.read_text())["trace"]
        assert trace["counts"]["gamma_core.sample_truncated_gamma.draws"] \
            == 10 * r1
        assert trace["self_s"]["gamma_core.sample_truncated_gamma"] > 0


class TestEntryPoint:
    """The CLI as a process of its own, as a user runs it."""

    @staticmethod
    def _python(*args):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # stdout to a pipe stays block-buffered, so it must survive exit
        env.pop("PYTHONUNBUFFERED", None)
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_import_freezes_heap(self):
        proc = self._python("-c", (
            "import gc\n"
            "import chanest\n"
            "print(gc.get_freeze_count())\n"
            "import chanest.cli\n"
            "print(len(gc.get_objects()), gc.get_freeze_count())\n"))
        assert proc.returncode == 0, proc.stderr
        library, command = proc.stdout.splitlines()
        # the package alone leaves a library user's GC alone
        assert int(library) == 0
        tracked, frozen = map(int, command.split())
        assert tracked * 10 < frozen

    def test_outputs_match_in_process(self, tmp_path, scenario_config,
                                      capsys):
        runs = {}
        for how in ("process", "in-process"):
            d = tmp_path / how
            d.mkdir()
            packets, est = d / "packets.csv", d / "est.csv"
            est_flags = ["--input", str(packets), "--c-db", "-109",
                         "--iters", "20", "--burn", "5"]
            commands = [
                ["simulate", "--config", str(scenario_config),
                 "--out", str(packets)],
                ["estimate", *est_flags, "--out", str(est),
                 "--trace", str(d / "trace.csv")],
                ["compare", *est_flags, "--out", str(d / "cmp.csv")],
                ["fit", "--input", str(est)]]
            stdout = []
            for argv in commands:
                if how == "process":
                    proc = self._python("-m", "chanest.cli", *argv)
                    assert proc.returncode == 0, proc.stderr
                    out = proc.stdout
                else:
                    assert main(argv) == 0
                    out = capsys.readouterr().out
                stdout.append(out)
            runs[how] = ({name: (d / name).read_bytes() for name in (
                "packets.csv", "packets.csv.truth.csv", "est.csv",
                "trace.csv", "cmp.csv")}, stdout)
        assert runs["process"] == runs["in-process"]
        *quiet, line = runs["process"][1]
        assert quiet == ["", "", ""]
        a, b = line.removeprefix("A,B\n").removesuffix("\n").split(",")
        assert line == f"A,B\n{float(a)!r},{float(b)!r}\n"

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity",
                                    lambda pid: ())(0)) < 2,
                        reason="needs 2 CPUs to split the SEM lane groups")
    def test_outputs_match_on_one_cpu(self, tmp_path):
        # 4 bins x 34 000 packets, partly censored: two lane groups where 2
        # CPUs are free
        sc = Scenario(ld_start=29.5, ld_end=31.0, ld_step=0.5,
                      n_per_bin=34_000, seed=5)
        assert 4 * sc.n_per_bin >= 2 * semcm.GROUP_MIN_SAMPLES
        assert sc.n_per_bin >= semcm.BIN_MIN_SAMPLES
        config, packets = tmp_path / "scenario.json", tmp_path / "packets.csv"
        config.write_text(sc.to_json())
        assert main(["simulate", "--config", str(config),
                     "--out", str(packets)]) == 0
        one_cpu = min(os.sched_getaffinity(0))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        runs = {}
        for cpus in ("one", "all"):
            d = tmp_path / cpus
            d.mkdir()
            flags = ["--input", str(packets), "--c-db", repr(sc.c_db),
                     "--iters", "20", "--burn", "5"]
            for argv in (["estimate", *flags, "--out", str(d / "est.csv"),
                          "--trace", str(d / "trace.csv")],
                         ["compare", *flags, "--out", str(d / "cmp.csv")]):
                proc = subprocess.run(
                    [sys.executable, "-m", "chanest.cli", *argv], env=env,
                    capture_output=True, text=True, timeout=120,
                    preexec_fn=(lambda: os.sched_setaffinity(0, {one_cpu}))
                    if cpus == "one" else None)
                assert proc.returncode == 0, proc.stderr
            runs[cpus] = {name: (d / name).read_bytes()
                          for name in ("est.csv", "trace.csv", "cmp.csv")}
        assert runs["one"] == runs["all"]
        assert read_estimates(tmp_path / "all" / "est.csv")[1] == ["ok"] * 4
