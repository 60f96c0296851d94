"""Reduced-size smoke run of the benchmark, checked against BENCHMARK.json.

    python3 -m pytest bench/smoke.py

Shrinks every workload's scenario, runs all of them untraced and traced,
and checks that each prints every metric of BENCHMARK.json with its unit and
passes its output checks. The file name keeps it out of the default pytest
collection, so the package's own suite does not run it.
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

SMALL = {
    "default": {"n_per_bin": 200},
    "dense": {"n_per_bin": 400, "ld_end": 25.0},
    "fine": {"n_per_bin": 100, "ld_end": 24.0},
}


def test_spec_lists_the_workloads_and_end_to_end_metrics():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        "setup_s", "pipeline_s", "simulate_s", "estimate_s", "compare_s",
        "estimate_pkt_per_s", "peak_rss_mb", "bins_ok_frac", "mean1_db_mae",
        "m1_log_err", "pathloss_B_err"]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_reports_every_metric(trace, kind, capsys,
                                            monkeypatch):
    for name, wl in list(run.WORKLOADS.items()):
        monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(
            wl, scenario={**wl.scenario, **SMALL[name]}))
    rc = run.main(["--workload", "all", "--seed", "5", "--seconds", "1",
                   "--trace", str(trace)])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()
             if line.startswith("{")]
    assert rc == 0
    results = {r["workload"]: r for r in lines if "workload" in r}
    assert set(results) == set(run.WORKLOADS)
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1
        assert {m: v["unit"] for m, v in result["metrics"].items()} == units
        if trace == 0:
            assert result["metrics"]["bins_ok_frac"]["value"] == 1.0
    assert lines[-1]["correct"] and "workload" not in lines[-1]


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "default", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
