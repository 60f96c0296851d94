"""Run one chanest CLI command in this fresh interpreter and report timings.

    python3 bench/child.py SPAWN_T TRACE RESULT_JSON -- ARGV...

SPAWN_T is the parent's ``time.monotonic()`` just before it started this
process; on Linux that clock is CLOCK_MONOTONIC, shared by all processes,
so ``setup_s`` spans interpreter start-up, ``import chanest.cli`` and
building the parser. With TRACE=1 the public functions of the package are
wrapped where their callers look them up, and the span self times and
counts go into RESULT_JSON next to the untraced timings. The exit code is
the command's own.
"""
import collections
import importlib
import json
import os
import sys
import time

clock = time.monotonic


def _len_of(key):
    def count(counts, out, args, kwargs):
        counts[key] += len(out)
    return count


def _log_bytes(counts, out, args, kwargs):
    counts["ingest.rows"] += len(out)
    counts["cli.log_bytes"] += os.fstat(args[0].fileno()).st_size


def _losses(counts, out, args, kwargs):
    counts["ingest.loss_events"] += len(out)
    counts.setdefault("loss_events_per_call", []).append(len(out))


def _draws(counts, out, args, kwargs):
    size = args[3] if len(args) > 3 else kwargs.get("size")
    counts["gamma_core.sample_truncated_gamma.draws"] += 1 if size is None \
        else int(size)


def _accepted(counts, out, args, kwargs):
    counts["semcm.m_step.accepted"] += 1


def _iterations(counts, out, args, kwargs):
    counts["semcm.iterations"] += len(out.iterates)


# (module that the caller looks the name up in, attribute, span name,
# counter run on each successful return). The span name is the defining
# module plus the function.
TARGETS = (
    ("chanest.simulator", "packet_rows", "simulator.packet_rows",
     _len_of("simulator.rows")),
    ("chanest.simulator", "generate_scenario", "simulator.generate_scenario",
     None),
    ("chanest.ingest", "parse_packet_log", "ingest.parse_packet_log",
     _log_bytes),
    ("chanest.ingest", "infer_losses", "ingest.infer_losses", _losses),
    ("chanest.ingest", "bin_by_ld", "ingest.bin_by_ld", _len_of("ingest.bins")),
    ("chanest.semcm", "run_semcm", "semcm.run_semcm", _iterations),
    ("chanest.semcm", "init_heuristic", "semcm.init_heuristic", None),
    ("chanest.semcm", "s_step", "semcm.s_step", None),
    ("chanest.semcm", "e_step_observed", "semcm.e_step_observed", None),
    ("chanest.semcm", "e_step_censored", "semcm.e_step_censored", None),
    ("chanest.semcm", "m_step", "semcm.m_step", _accepted),
    ("chanest.semcm", "solve_shape", "gamma_core.solve_shape", None),
    ("chanest.semcm", "sample_truncated_gamma",
     "gamma_core.sample_truncated_gamma", _draws),
    ("chanest.baselines", "mb_shape", "baselines.mb_shape", None),
    ("chanest.baselines", "ml_minus_shape", "baselines.ml_minus_shape", None),
    ("chanest.baselines", "lse_line_fit", "baselines.lse_line_fit", None),
    ("chanest.model", "write_estimates", "model.write_estimates", None),
    ("chanest.model", "read_estimates", "model.read_estimates", None),
)


class Tracer:
    """Spans kept in memory as (name, start, end, parent index)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = collections.defaultdict(int)

    def wrap(self, fn, name, count=None):
        spans, stack = self.spans, self.stack
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if count is not None:
                count(counts, out, args, kwargs)
            return out
        return traced

    def install(self, cli):
        for module, attr, name, count in TARGETS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(getattr(mod, attr), name, count))
        # main() dispatches through this table, not the module attributes
        for command, fn in list(cli._COMMANDS.items()):
            cli._COMMANDS[command] = self.wrap(fn, f"cli.cmd_{command}")

    def summary(self):
        """Self time (duration minus direct children) and calls per name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls = {}, {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
        return {"self_s": self_s, "calls": calls, "counts": dict(self.counts)}


def main():
    spawn_t, trace, result_path = float(sys.argv[1]), sys.argv[2], sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]
    from chanest import cli
    cli.build_parser()
    ready = clock()

    import resource  # after the set-up clock: chanest never loads it
    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install(cli)
    start = clock()
    rc = cli.main(argv)
    main_s = clock() - start
    result = {"ready": ready, "setup_s": ready - spawn_t, "main_s": main_s,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
