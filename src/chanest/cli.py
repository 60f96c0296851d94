"""Command-line driver: simulate -> estimate -> compare -> fit, all emitting
plot-ready CSV."""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import gc
import math
import os
import sys

import numpy as np

from . import baselines, ingest, model, semcm, simulator
from .errors import ChanestError

# Importing numpy and scipy leaves some 40 000 objects tracked by the
# cyclic GC, which every full collection walks, the one at interpreter exit
# included. They live as long as the process, so move them to the permanent
# generation, which no collection walks. Done here, once per import, and
# not in the package's __init__, so that a library user's GC is left alone;
# and with no gc.collect() first, which costs more than it saves.
gc.freeze()

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
# Most floats that the SEM chain history of estimate or compare may hold,
# bins x --iters x 5 parameters: 2**27 float64, 1 GiB
MAX_HISTORY_FLOATS = 1 << 27


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
    sem = semcm.SemConfig()
    sp.add_argument("--input", required=True, help="packet-log CSV")
    sp.add_argument("--c-db", type=_threshold_db, required=True,
                    help="censoring threshold in dBm")
    sp.add_argument("--ld-step", type=_ld_step, default=0.5)
    sp.add_argument("--iters", type=int, default=sem.iterations)
    sp.add_argument("--burn", type=int, default=sem.burn_window,
                    help="burn window, at most --iters")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--init-m1", type=_positive_float, default=None)
    sp.add_argument("--digamma", choices=semcm.DIGAMMA_MODES,
                    default=sem.digamma_mode)


def _data_error(command, exc) -> int:
    print(f"chanest {command}: {exc}", file=sys.stderr)
    return EXIT_DATA


def cmd_simulate(args) -> int:
    try:
        with open(args.config) as fh:
            sc = simulator.Scenario.from_json(fh.read())
        if args.seed is not None:
            sc = dataclasses.replace(sc, seed=args.seed)
        with open(args.out, "w", newline="") as fh:
            ingest.write_packet_log(fh, simulator.packet_rows(sc))
        grid = sc.ld_grid
        table = np.column_stack([
            grid, [simulator.true_params_at(ld, sc).row()
                   for ld in grid.tolist()],
            sc.pl_a - sc.pl_b * grid,
            np.full(grid.size, sc.interference_mean_db)])
        with open(args.out + ".truth.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["ld", *model.PARAM_FIELDS, "mean1_db", "mean2_db"])
            w.writerows(map(repr, row) for row in table.tolist())
    except (OSError, ValueError) as exc:
        return _data_error("simulate", exc)
    return EXIT_OK


def _estimation_command(args, paths, write) -> int:
    """Fit the binned log; hand ``write`` a ``(bin, trace | None, status)``
    row per bin, then an open file, or None, per entry of ``paths``."""
    try:
        # utf-8-sig drops a leading BOM; the parser reports undecodable rows
        with open(args.input, newline="", encoding="utf-8-sig",
                  errors="surrogateescape") as fh:
            log = ingest.parse_packet_log(fh)
        bins = ingest.bin_by_ld(np.concatenate(
            [log, ingest.infer_losses(log)]), args.ld_step, args.c_db)
        history = len(bins) * args.iters * len(model.PARAM_FIELDS)
        if history > MAX_HISTORY_FLOATS:
            raise ChanestError(
                f"{len(bins)} bins x {args.iters} iterations need a chain "
                f"history above MAX_HISTORY_FLOATS = {MAX_HISTORY_FLOATS} "
                "floats")
        with contextlib.ExitStack() as stack:
            # opened before fitting, so that an unwritable path fails fast
            outs = [path and stack.enter_context(open(path, "w", newline=""))
                    for path in paths]
            results = semcm.fit_bins(bins, args.sem, args.seed, args.init_m1)
            write([(bin_, res, "ok") if isinstance(res, semcm.SemTrace)
                   else (bin_, None, res.status)
                   for bin_, res in zip(bins, results)], *outs)
    except (OSError, ChanestError) as exc:
        return _data_error(args.command, exc)
    return EXIT_OK


def _write_estimates(results, out, trace_fh):
    model.write_estimates(out, [
        (bin_.ld, None if trace is None else trace.final, bin_.loss_fraction,
         status) for bin_, trace, status in results])
    if trace_fh:
        w = csv.writer(trace_fh)
        w.writerow(["ld", "iteration", *model.PARAM_FIELDS])
        for bin_, trace, _ in results:
            if trace is None:
                continue
            for it, row in enumerate(trace.iterates.tolist(), 1):
                w.writerow([repr(bin_.ld), it, *map(repr, row)])


def _write_comparison(results, out):
    w = csv.writer(out)
    w.writerow(["ld", "sem_m1", "ml_m", "mb_m", "loss_fraction", "status"])
    for bin_, trace, status in results:
        shapes = []  # each baseline's own, empty only where it raises
        for shape in (baselines.ml_minus_shape, baselines.mb_shape):
            try:
                shapes.append(repr(shape(bin_.observed)))
            except ValueError:
                shapes.append("")
        sem_m1 = "" if trace is None else repr(trace.final.comp1.m)
        w.writerow([repr(bin_.ld), sem_m1, *shapes, repr(bin_.loss_fraction),
                    status])


def cmd_estimate(args) -> int:
    return _estimation_command(args, (args.out, args.trace), _write_estimates)


def cmd_compare(args) -> int:
    return _estimation_command(args, (args.out,), _write_comparison)


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
    # fewer than 2 distinct ld, or finite estimates whose line overflows
    except ValueError as exc:
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
    if args.command in ("estimate", "compare"):
        try:
            args.sem = semcm.SemConfig(args.iters, args.burn, args.digamma)
        except ValueError as exc:
            parser.error(f"--iters {args.iters} --burn {args.burn}: {exc}")
    # refused before any file is opened: both handles would truncate it
    if args.command == "estimate" and args.trace \
            and os.path.realpath(args.trace) == os.path.realpath(args.out):
        parser.error(f"--trace and --out name the same file: {args.out}")
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
