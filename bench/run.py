"""Benchmark of the chanest CLI pipeline: simulate -> estimate -> compare -> fit.

    python3 bench/run.py --workload {default,dense,fine,all} --seed N \\
        --seconds S --trace {0,1}

Run it from anywhere inside a source checkout; it needs only ``src/`` and
numpy/scipy. One closed-loop client runs one command at a time, each in a
fresh interpreter (``bench/child.py``) with BLAS/OpenMP threads pinned to 1,
and starts the next pipeline when the last one is done. Pipelines repeat
until ``--seconds`` is used up; timings are medians over them. Every
pipeline's outputs are checked; a failed check prints the reason on stderr,
marks the result incorrect and exits 1.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
span self times and counts of alternate pipelines run traced. The last
stdout line is one JSON object: correct, attempted, failed, metrics. Why
each workload exists is in ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import csv
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Accuracy seed k of a run is seed + k * SUB_SEED_STRIDE; k = 0 is the seed.
SUB_SEED_STRIDE = 1000
clock = time.monotonic  # CLOCK_MONOTONIC, the clock child.py reports in


@dataclass(frozen=True)
class Workload:
    scenario: dict        # Scenario fields over the defaults, seed excluded
    strip_losses: bool    # drop empty-RSSI rows: losses become seq gaps
    accuracy_seeds: int   # scenario seeds the accuracy metrics average over


WORKLOADS = {
    # the paper's scenario, 19 bins x 1000: scalar per-call SEM overhead
    "default": Workload({}, False, 8),
    # 19 bins x 20000 with losses only as gaps: ingest and array work
    "dense": Workload({"n_per_bin": 20000}, True, 2),
    # 91 bins x 200 at ld_step 0.1: per-bin and per-iteration overhead
    "fine": Workload({"ld_step": 0.1, "n_per_bin": 200}, False, 3),
}

CMP_FIELDS = ["ld", "sem_m1", "ml_m", "mb_m", "loss_fraction", "status"]
SEM_LAYERS = ("semcm.run_semcm", "semcm.init_heuristic", "semcm.s_step",
              "semcm.e_step_observed", "semcm.e_step_censored",
              "semcm.m_step", "gamma_core.solve_shape",
              "gamma_core.sample_truncated_gamma")
SELF_TIMED = ("cli.cmd_simulate", "simulator.packet_rows",
              "simulator.generate_scenario", "ingest.parse_packet_log",
              "ingest.infer_losses", "ingest.bin_by_ld") + SEM_LAYERS + (
              "baselines.mb_shape", "baselines.ml_minus_shape",
              "cli.cmd_compare", "model.write_estimates",
              "model.read_estimates", "baselines.lse_line_fit",
              "cli.cmd_estimate")
COUNTED = ("simulator.rows", "ingest.rows", "cli.log_bytes",
           "ingest.loss_events", "ingest.bins",
           "gamma_core.sample_truncated_gamma.draws", "semcm.iterations")


class CheckFailed(Exception):
    """An output check failed; the run is incorrect."""


def child_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(argv, trace, work):
    """Run ``chanest ARGV`` in a fresh interpreter; return its record, with
    ``wall_s`` = wall time from parser-ready to process exit."""
    result = os.path.join(work, "child.json")
    spawn = clock()
    proc = subprocess.run(
        [sys.executable, CHILD, repr(spawn), "1" if trace else "0", result,
         "--", *argv],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    end = clock()
    if proc.returncode != 0:
        raise CheckFailed(f"chanest {argv[0]} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    with open(result) as fh:
        rec = json.load(fh)
    rec["wall_s"] = end - rec["ready"]
    return rec


def strip_losses(path):
    """Drop the explicit loss rows, as a receiver log would lack them.
    Returns the number of loss events ingest can see: those between the
    first and the last received sequence number."""
    with open(path, newline="") as fh:
        header, *rows = fh.read().splitlines()
    lost = [row.endswith(",") for row in rows]
    kept = [row for row, gone in zip(rows, lost) if not gone]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([header, *kept]) + "\r\n")
    first = lost.index(False)
    last = len(lost) - lost[::-1].index(False)
    return sum(lost[first:last])


def estimation_argv(command, sc, packets, out):
    return [command, "--input", packets, "--c-db", repr(sc.c_db),
            "--ld-step", repr(sc.ld_step), "--seed", str(sc.seed),
            "--out", out]


def run_pipeline(wl, sc, work, trace):
    """One pass of simulate -> estimate -> compare -> fit on scenario sc."""
    files = {name: os.path.join(work, name) for name in
             ("scenario.json", "packets.csv", "est.csv", "cmp.csv",
              "line.csv")}
    files["truth.csv"] = files["packets.csv"] + ".truth.csv"
    with open(files["scenario.json"], "w") as fh:
        fh.write(sc.to_json())
    recs = {"simulate": run_child(
        ["simulate", "--config", files["scenario.json"],
         "--out", files["packets.csv"]], trace, work)}
    visible_losses = 0
    if wl.strip_losses:
        visible_losses = strip_losses(files["packets.csv"])
    recs["estimate"] = run_child(
        estimation_argv("estimate", sc, files["packets.csv"], files["est.csv"]),
        trace, work)
    recs["compare"] = run_child(
        estimation_argv("compare", sc, files["packets.csv"], files["cmp.csv"]),
        trace, work)
    recs["fit"] = run_child(["fit", "--input", files["est.csv"],
                             "--out", files["line.csv"]], trace, work)
    return {"recs": recs, "files": files, "visible_losses": visible_losses,
            "pipeline_s": sum(r["wall_s"] for r in recs.values())}


def read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def check_outputs(sc, files, estimate_fields):
    """Check one pipeline's CSVs; return bin counts and accuracy."""
    n_bins = sc.ld_grid.size
    header, est = read_csv(files["est.csv"])
    if header[:len(estimate_fields)] != list(estimate_fields) \
            or "status" not in header:
        raise CheckFailed(f"estimates header {header}")
    if len(est) != n_bins:
        raise CheckFailed(f"{len(est)} estimate rows for {n_bins} bins")
    est = [dict(zip(header, row)) for row in est]
    header, cmp_ = read_csv(files["cmp.csv"])
    if header != CMP_FIELDS or len(cmp_) != n_bins:
        raise CheckFailed(f"compare CSV: header {header}, {len(cmp_)} rows")
    for e, c in zip(est, (dict(zip(header, row)) for row in cmp_)):
        if float(e["ld"]) != float(c["ld"]) or e["m1"] != c["sem_m1"] \
                or e["status"] != c["status"]:
            raise CheckFailed(f"compare differs from estimate at ld {e['ld']}")
    header, truth = read_csv(files["truth.csv"])
    if len(truth) != n_bins:
        raise CheckFailed(f"{len(truth)} truth rows for {n_bins} bins")
    truth = [dict(zip(header, row)) for row in truth]
    header, line = read_csv(files["line.csv"])
    if header != ["A", "B"] or len(line) != 1:
        raise CheckFailed(f"line CSV: {header} {line}")
    b_hat = float(line[0][1])

    ok = [(e, t) for e, t in zip(est, truth) if e["status"] == "ok"]
    for e, t in ok:
        if abs(float(e["ld"]) - float(t["ld"])) > sc.ld_step / 2:
            raise CheckFailed(f"estimate ld {e['ld']} vs truth ld {t['ld']}")
    if not ok or not math.isfinite(b_hat):
        raise CheckFailed("no usable estimate")
    failed = sum(e["status"] != "ok" for e in est) \
        + sum(c[-1] != "ok" for c in cmp_)
    return {
        "bins": 2 * n_bins, "bins_failed": failed,
        "mean1_db_mae": statistics.fmean(
            abs(float(e["mean1_db"]) - float(t["mean1_db"])) for e, t in ok),
        "m1_log_err": statistics.median(
            abs(math.log(float(e["m1"]) / float(t["m1"]))) for e, t in ok),
        "pathloss_B_err": abs(b_hat - sc.pl_b),
    }


def trace_summary(pipe):
    """Sum one traced pipeline's spans and counts over its four commands."""
    self_s, calls, counts = {}, {}, {}
    untraced = 0.0
    for command, rec in pipe["recs"].items():
        tr = rec["trace"]
        for name, v in tr["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + v
        for name, v in tr["calls"].items():
            calls[name] = calls.get(name, 0) + v
        for name, v in tr["counts"].items():
            if name == "loss_events_per_call":
                for n in v:
                    if n != pipe["visible_losses"]:
                        raise CheckFailed(
                            f"{command}: ingest inferred {n} loss events, "
                            f"expected {pipe['visible_losses']}")
            else:
                counts[name] = counts.get(name, 0) + v
        rest = rec["main_s"] - sum(tr["self_s"].values())
        if rest < -1e-6:
            raise CheckFailed(f"{command}: span self times exceed wall time")
        untraced += rest
    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMED}
    out.update({name: counts.get(name, 0) for name in COUNTED})
    out["gamma_core.solve_shape.calls"] = calls.get("gamma_core.solve_shape", 0)
    m_calls = calls.get("semcm.m_step", 0)
    out["semcm.m_step.calls"] = m_calls
    out["semcm.m_step.useful_ratio"] = \
        counts.get("semcm.m_step.accepted", 0) / m_calls if m_calls else 0.0
    out["cli.main.untraced_s"] = untraced
    return out


UNITS = {"_s": "s", "calls": "count", "draws": "count", "rows": "count",
         "events": "count", "bins": "count", "iterations": "count",
         "bytes": "B", "ratio": "ratio"}


def unit_of(name):
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def measure(wl, seed, seconds, trace, work, estimate_fields):
    """Closed loop of pipelines for ``seconds``; returns (metrics, bins
    attempted, bins failed)."""
    from chanest.simulator import Scenario

    def scenario(k):
        return Scenario(**wl.scenario, seed=seed + k * SUB_SEED_STRIDE)

    # compile the package's bytecode before timing: users do not pay it
    subprocess.run([sys.executable, "-c", "import chanest.cli"],
                   env=child_env(), cwd=ROOT, check=True,
                   timeout=CHILD_TIMEOUT_S)
    # Traced runs alternate untraced and traced passes on one input; plain
    # runs cycle through the accuracy seeds. Either way the first seed comes
    # round again, and its estimates must then be byte-identical.
    n_seeds = 1 if trace else wl.accuracy_seeds
    pipes, estimates, start = [], {}, clock()
    while True:
        k = len(pipes)
        sc = scenario(k % n_seeds)
        pipe = run_pipeline(wl, sc, work, trace and k % 2 == 1)
        pipe["check"] = check_outputs(sc, pipe["files"], estimate_fields)
        pipe["traced"] = trace and k % 2 == 1
        pipes.append(pipe)
        with open(pipe["files"]["est.csv"], "rb") as fh:
            produced = fh.read()
        if estimates.setdefault(sc.seed, produced) != produced:
            raise CheckFailed(f"estimates for seed {sc.seed} changed "
                              "between two runs on the same input")
        print(f"pipeline {k}: seed {sc.seed} traced {pipe['traced']} "
              f"{pipe['pipeline_s']:.3f} s; " + ", ".join(
                  f"{c} {r['main_s']:.3f} s" for c, r in pipe["recs"].items()),
              file=sys.stderr)
        elapsed = clock() - start
        if len(pipes) > n_seeds and elapsed / len(pipes) + elapsed > seconds:
            break

    attempted = sum(p["check"]["bins"] for p in pipes)
    failed = sum(p["check"]["bins_failed"] for p in pipes)
    plain = [p for p in pipes if not p["traced"]]
    if trace:
        traced = [trace_summary(p) for p in pipes if p["traced"]]
        metrics = {name: statistics.median(t[name] for t in traced)
                   for name in traced[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(p["pipeline_s"] for p in pipes if p["traced"])
            - statistics.median(p["pipeline_s"] for p in plain))
        sem = max(SEM_LAYERS, key=lambda n: metrics[f"{n}.self_s"])
        print(f"largest SEM layer: {sem}; parse_packet_log / solve_shape "
              f"self time = {metrics['ingest.parse_packet_log.self_s']:.3f} / "
              f"{metrics['gamma_core.solve_shape.self_s']:.3f} s")
        return ({name: {"value": v, "unit": unit_of(name)}
                 for name, v in sorted(metrics.items())}, attempted, failed)

    def med(command, key):
        return statistics.median(p["recs"][command][key] for p in plain)

    first = [p["check"] for p in plain[:wl.accuracy_seeds]]
    sc0 = scenario(0)
    packets = sc0.ld_grid.size * sc0.n_per_bin
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for p in plain
                                      for r in p["recs"].values()), "s"),
        "pipeline_s": (statistics.median(p["pipeline_s"] for p in plain), "s"),
        "simulate_s": (med("simulate", "main_s"), "s"),
        "estimate_s": (med("estimate", "main_s"), "s"),
        "compare_s": (med("compare", "main_s"), "s"),
        "estimate_pkt_per_s": (packets / med("estimate", "main_s"), "pkt/s"),
        "peak_rss_mb": (statistics.median(
            max(r["maxrss_kb"] for r in p["recs"].values()) * 1024 / 1e6
            for p in plain), "MB"),
        "bins_ok_frac": (1.0 - failed / attempted, "ratio"),
    }
    for name, unit in (("mean1_db_mae", "dB"), ("m1_log_err", "ln-ratio"),
                       ("pathloss_B_err", "dB/dB")):
        metrics[name] = (statistics.fmean(c[name] for c in first), unit)
    print("accuracy per seed: " + json.dumps([
        {"seed": seed + k * SUB_SEED_STRIDE,
         **{n: c[n] for n in ("mean1_db_mae", "m1_log_err", "pathloss_B_err")}}
        for k, c in enumerate(first)]))
    return ({name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            attempted, failed)


def environment():
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": {var: "1" for var in THREAD_VARS},
            "src_lines": src_lines}


def run_workload(name, seed, seconds, trace, estimate_fields):
    """Measure one workload; returns its result object."""
    work = tempfile.mkdtemp(prefix=f".bench_work-{name}-", dir=ROOT)
    try:
        metrics, attempted, failed = measure(
            WORKLOADS[name], seed, seconds, trace, work, estimate_fields)
        return {"correct": True, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    except (CheckFailed, subprocess.SubprocessError) as exc:
        print(f"{name}: check failed: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chanest", "cli.py")):
        print(f"no chanest sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from chanest.model import ESTIMATE_FIELDS

    print(json.dumps({"env": environment()}))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace), ESTIMATE_FIELDS)
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    result = results[names[0]] if len(names) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items()
                    for m, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
