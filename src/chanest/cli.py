"""Command-line driver: simulate -> estimate -> compare -> fit, all emitting
plot-ready CSV."""
from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys

import numpy as np

from . import baselines, ingest, model, semcm, simulator
from .errors import (ChanestError, DegenerateFitError, DegenerateSamplesError,
                     InsufficientDataError, ParseError, RankDeficientFitError)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_exclude(text):
    lo, _, hi = text.partition(":")
    try:
        lo, hi = _finite_float(lo), _finite_float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("expected LO:HI")
    if hi < lo:
        raise argparse.ArgumentTypeError("expected LO <= HI")
    return lo, hi


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number: {text}")
    return value


def _positive_float(text):
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a number > 0: {text}")
    return value


def _ld_step(text):
    value = _positive_float(text)
    # the bin index of a distance d, 10 log10(d) / step, must stay finite
    # down to the smallest subnormal d, where 10 log10(d) is about -3233.06
    if math.isinf(10.0 * math.log10(math.ulp(0.0)) / value):
        raise argparse.ArgumentTypeError(
            f"expected a step above about 1.8e-305: {text}")
    return value


def _threshold_db(text):
    value = _finite_float(text)
    with np.errstate(over="ignore"):
        if not 0.0 < model.db_to_linear(value) < math.inf:
            raise argparse.ArgumentTypeError(
                f"expected a threshold with a finite linear power > 0: {text}")
    return value


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1: {text}")
    return value


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0: {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="chanest",
                description="Censored Gamma-mixture channel estimation")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic packet log")
    sim.add_argument("--config", required=True, help="scenario JSON")
    sim.add_argument("--out", required=True, help="packet-log CSV path")
    sim.add_argument("--seed", type=_seed, default=None,
                     help="override the scenario seed")

    est = sub.add_parser("estimate", help="per-bin mixture estimates")
    _estimation_flags(est)
    est.add_argument("--out", required=True, help="estimates CSV path")
    est.add_argument("--trace", default=None,
                     help="optional per-iteration trace CSV path")

    cmp_ = sub.add_parser("compare", help="SEM vs ML-/MB shape per bin")
    _estimation_flags(cmp_)
    cmp_.add_argument("--out", required=True, help="comparison CSV path")

    fit = sub.add_parser("fit", help="path-loss line through bin estimates")
    fit.add_argument("--input", required=True, help="estimates CSV")
    fit.add_argument("--component", type=int, choices=(1, 2), default=1)
    fit.add_argument("--exclude-ld", type=_parse_exclude, default=None,
                     metavar="LO:HI", help="ld interval to mask out")
    fit.add_argument("--out", default=None, help="output CSV (default stdout)")
    return p


def _estimation_flags(sp):
    sp.add_argument("--input", required=True, help="packet-log CSV")
    sp.add_argument("--c-db", type=_threshold_db, required=True,
                    help="censoring threshold in dBm")
    sp.add_argument("--ld-step", type=_ld_step, default=0.5)
    sp.add_argument("--iters", type=_positive_int, default=50)
    sp.add_argument("--burn", type=_positive_int, default=10,
                    help="burn window, at most --iters")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--init-m1", type=_positive_float, default=None)
    sp.add_argument("--digamma", choices=semcm.DIGAMMA_MODES, default="exact")


def _data_error(command, exc) -> int:
    print(f"chanest {command}: {exc}", file=sys.stderr)
    return EXIT_DATA


def cmd_simulate(args) -> int:
    try:
        with open(args.config) as fh:
            sc = simulator.Scenario.from_json(fh.read())
        if args.seed is not None:
            sc = simulator.Scenario(**{**sc.__dict__, "seed": args.seed})
        with open(args.out, "w", newline="") as fh:
            ingest.write_packet_log(fh, simulator.packet_rows(sc))
        truth = simulator.ground_truth(sc)
        table = np.column_stack([truth.lds, [p.row() for p in truth.params],
                                 truth.mean1_db, truth.mean2_db])
        with open(args.out + ".truth.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["ld", *model.PARAM_FIELDS, "mean1_db", "mean2_db"])
            w.writerows(map(repr, row) for row in table.tolist())
    except (OSError, ValueError) as exc:
        return _data_error("simulate", exc)
    return EXIT_OK


def _load_bins(args):
    # undecodable bytes reach the parser, which reports their rows
    with open(args.input, newline="", encoding="utf-8",
              errors="surrogateescape") as fh:
        log = ingest.parse_packet_log(fh)
    return ingest.bin_by_ld(np.concatenate([log, ingest.infer_losses(log)]),
                            args.ld_step, args.c_db)


def _failure_status(exc) -> str:
    if isinstance(exc, InsufficientDataError):
        return "insufficient-data"
    if isinstance(exc, DegenerateFitError):
        return "degenerate-fit"
    return "numerical-failure"


def _estimate_bins(bins, args):
    """Run the SEM chains of all bins as one batch. Returns one
    ``(bin, trace, status)`` per bin; a failed bin has no trace and its
    failure as the status."""
    config = semcm.SemConfig(iterations=args.iters, burn_window=args.burn,
                             digamma_mode=args.digamma)
    outcomes, inits = [None] * len(bins), {}
    for b, bin_ in enumerate(bins):
        try:
            inits[b] = semcm.init_heuristic(bin_, args.init_m1)
        except (ChanestError, ValueError) as exc:
            outcomes[b] = exc
    traces = semcm.run_semcm_batch(
        [bins[b] for b in inits], list(inits.values()), config,
        [simulator.bin_rng(args.seed, b) for b in inits])
    for b, trace in zip(inits, traces):
        outcomes[b] = trace
    return [(bin_, out, "ok") if isinstance(out, semcm.SemTrace)
            else (bin_, None, _failure_status(out))
            for bin_, out in zip(bins, outcomes)]


def cmd_estimate(args) -> int:
    try:
        bins = _load_bins(args)
        # opened before estimating, so that an unwritable path fails fast
        with open(args.out, "w", newline="") as out, \
                (open(args.trace, "w", newline="") if args.trace
                 else contextlib.nullcontext()) as trace_fh:
            results = _estimate_bins(bins, args)
            model.write_estimates(out, [
                (bin_.ld, None if trace is None else trace.final,
                 bin_.loss_fraction, status)
                for bin_, trace, status in results])
            if trace_fh:
                w = csv.writer(trace_fh)
                w.writerow(["ld", "iteration", *model.PARAM_FIELDS])
                for bin_, trace, _ in results:
                    if trace is None:
                        continue
                    for it, row in enumerate(trace.iterates.tolist(), 1):
                        w.writerow([repr(bin_.ld), it, *map(repr, row)])
    except (OSError, ParseError) as exc:
        return _data_error("estimate", exc)
    return EXIT_OK


def cmd_compare(args) -> int:
    try:
        bins = _load_bins(args)
        with open(args.out, "w", newline="") as fh:
            results = _estimate_bins(bins, args)
            w = csv.writer(fh)
            w.writerow(["ld", "sem_m1", "ml_m", "mb_m", "loss_fraction",
                        "status"])
            for bin_, trace, status in results:
                try:
                    ml = repr(baselines.ml_minus_shape(bin_.observed))
                    mb = repr(baselines.mb_shape(bin_.observed))
                except (DegenerateSamplesError, ValueError):
                    ml = mb = ""
                sem_m1 = "" if trace is None else repr(trace.final.comp1.m)
                w.writerow([repr(bin_.ld), sem_m1, ml, mb,
                            repr(bin_.loss_fraction), status])
    except (OSError, ParseError) as exc:
        return _data_error("compare", exc)
    return EXIT_OK


def cmd_fit(args) -> int:
    try:
        rows, statuses = model.read_estimates(args.input)
    except (OSError, ValueError) as exc:
        return _data_error("fit", exc)
    key = "mean1_db" if args.component == 1 else "mean2_db"
    lds, values = [], []
    for row, status in zip(rows, statuses):
        if status != "ok" or math.isnan(row[key]):
            continue
        if args.exclude_ld and args.exclude_ld[0] <= row["ld"] <= args.exclude_ld[1]:
            continue
        lds.append(row["ld"])
        values.append(row[key])
    try:
        line = baselines.lse_line_fit(lds, values)
    except RankDeficientFitError as exc:
        print(f"chanest fit: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    out = f"A,B\n{line.A!r},{line.B!r}\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(out)
        except OSError as exc:
            return _data_error("fit", exc)
    else:
        sys.stdout.write(out)
    return EXIT_OK


_COMMANDS = {"simulate": cmd_simulate, "estimate": cmd_estimate,
             "compare": cmd_compare, "fit": cmd_fit}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("estimate", "compare") and args.burn > args.iters:
        parser.error(f"--burn {args.burn} exceeds --iters {args.iters}")
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
