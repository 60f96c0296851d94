"""Stochastic EM for the left-censored two-component Gamma mixture.

One iteration is E (responsibilities for received and censored samples),
S (draw component labels and impute censored values from the truncated
conditional) and M (closed-form weight/scale updates plus a digamma root
solve for the shapes). The chain is ergodic rather than convergent, so the
point estimate is the average over a trailing burn window.

The chains of many bins advance in lockstep: each step works on a
``BinBatch`` with one ``MixtureBatch`` of parameters, and one
``solve_shape`` call gives the shapes of every bin. Bin b keeps lane b for
the whole run, a failed bin with NaN parameters. It draws only from its
own generator and no lane's arithmetic reads another bin, so a bin's chain
is the same whichever bins share its batch; a single-bin run is a batch of
one.
"""
from __future__ import annotations

import concurrent.futures
import contextvars
import os
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import baselines
from .errors import (DegenerateFitError, InsufficientDataError,
                     NumericalFailureError)
from .gamma_core import DIGAMMA_MODES, sample_truncated_gamma, solve_shape
from .model import CensoredBin, GammaParams, MixtureParams, db_to_linear

EMPTY_COMPONENT_RETRIES = 10
# lowest mixing weight the M-step stores for either component
ALPHA_FLOOR = 0.02
# fit_bins runs lane groups on threads only while each group holds at least
# GROUP_MIN_SAMPLES samples (observed + censored) and the mean bin
# BIN_MIN_SAMPLES: below either, Python work under the GIL outweighs overlap
GROUP_MIN_SAMPLES = 1 << 16
BIN_MIN_SAMPLES = 1 << 10


@dataclass(frozen=True)
class SemConfig:
    iterations: int = 50
    burn_window: int = 10
    digamma_mode: str = "exact"

    def __post_init__(self):
        if not (1 <= self.burn_window <= self.iterations):
            raise ValueError("need 1 <= burn_window <= iterations")
        if self.digamma_mode not in DIGAMMA_MODES:
            raise ValueError(f"unknown digamma mode {self.digamma_mode!r}")


@dataclass
class SemTrace:
    """Per-iteration parameter history of one run."""

    iterates: np.ndarray    # (iterations, 5): one PARAM_FIELDS row each
    final: MixtureParams    # burn-window mean


@dataclass(frozen=True)
class BinBatch:
    """Bins laid end to end. Bin b owns the next ``n_obs[b]`` entries of
    ``x`` (its received linear powers, in order) and of ``lnx = ln x``;
    ``owner`` holds the bin index of each of those samples. Bin b also has
    ``r1[b]`` censored samples below ``c_lin[b]``."""

    ld: np.ndarray
    x: np.ndarray
    lnx: np.ndarray
    owner: np.ndarray
    n_obs: np.ndarray
    r1: np.ndarray
    c_lin: np.ndarray

    @classmethod
    def of(cls, bins) -> "BinBatch":
        x = np.concatenate([b.observed for b in bins] + [np.empty(0)])
        n_obs = np.array([b.observed.size for b in bins], np.intp)
        return cls(ld=np.array([b.ld for b in bins], dtype=float), x=x,
                   lnx=np.log(x), owner=np.repeat(np.arange(len(bins)), n_obs),
                   n_obs=n_obs, r1=np.array([b.r1 for b in bins], np.intp),
                   c_lin=np.array([b.c_lin for b in bins], dtype=float))


@dataclass(frozen=True)
class MixtureBatch:
    """Mixture parameters of a batch of bins: ``rows`` has shape (B, 5), one
    ``PARAM_FIELDS`` row per bin."""

    rows: np.ndarray
    # read-only views: (B,) and (B, 2), column j for component j + 1
    alpha1 = property(lambda self: self.rows[:, 0])
    m = property(lambda self: self.rows[:, 1::2])
    omega = property(lambda self: self.rows[:, 2::2])

    @classmethod
    def of(cls, params) -> "MixtureBatch":
        return cls(np.array([p.row() for p in params], float).reshape(-1, 5))


def e_step_observed(bins: BinBatch, phi: MixtureBatch) -> np.ndarray:
    """P(component 1 | received sample) for every sample of the batch; NaN
    where both weighted component densities underflow or a term overflows.

    Per bin, the log-ratio of the two weighted densities is
    c + dm * ln x - dw * x: only its three coefficients are formed per bin
    and spread over the samples.
    """
    n = bins.n_obs
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        const = np.log(np.column_stack([phi.alpha1, 1.0 - phi.alpha1])) \
            - special.gammaln(phi.m) - phi.m * np.log(phi.omega)
        inv = 1.0 / phi.omega
        d = np.repeat(const[:, 0] - const[:, 1], n)
        term = np.repeat(phi.m[:, 0] - phi.m[:, 1], n)
        term *= bins.lnx
        d += term
        term = np.repeat(inv[:, 0] - inv[:, 1], n)
        term *= bins.x
        d -= term
    return special.expit(d, out=d)


def e_step_censored(bins: BinBatch, phi: MixtureBatch):
    """P(component 1 | sample censored below c_lin) per bin, NaN where
    neither component has mass below the threshold, and the masses
    P(m_j, c_lin / omega_j) themselves, shape (B, 2)."""
    mass = special.gammainc(phi.m, bins.c_lin[:, None] / phi.omega)
    w = np.column_stack([phi.alpha1, 1.0 - phi.alpha1]) * mass
    with np.errstate(divide="ignore", invalid="ignore"):
        return w[:, 0] / (w[:, 0] + w[:, 1]), mass


def s_step(bins: BinBatch, phi: MixtureBatch, rngs):
    """Draw labels for every sample and impute the censored values.

    Bin b draws from ``rngs[b]`` only, in one pass: each attempt at its
    labels draws random(n_obs + r1), the first n_obs doubles for the
    observed labels and the last r1 for the censored ones, k1 of which take
    component 1, and a bin left with an empty component draws again, up to
    ``EMPTY_COMPONENT_RETRIES`` attempts in all. It then imputes component
    1's k1 censored values, then component 2's r1 - k1, each by
    ``gamma_core.sample_truncated_gamma`` with the component's truncated
    mass from ``e_step_censored``; a bin whose mass is too small for it
    fails. Returns ``(z_obs, z_cens, y_cens)``: the labels (True =
    component 1) of the observed samples, then the labels and imputed
    values of the censored ones, r1[b] for bin b in bin order; and a dict
    from each bin that failed to the error that ends its chain. A failed
    bin's labels are meaningless and its imputed values lie in (0, c_lin].
    """
    t_obs = e_step_observed(bins, phi)
    t_cens, mass = e_step_censored(bins, phi)
    failed = {}
    for b in np.unique(bins.owner[np.isnan(t_obs)]).tolist():
        failed[b] = NumericalFailureError(
            f"bin ld={bins.ld[b]}: both component densities underflowed at "
            "some sample")
    for b in np.flatnonzero((bins.r1 > 0) & ~np.isfinite(t_cens)).tolist():
        failed.setdefault(b, NumericalFailureError(
            f"bin ld={bins.ld[b]}: no component carries mass below the "
            "censoring threshold"))

    z_obs = np.zeros(bins.x.size, bool)
    y_cens = np.repeat(bins.c_lin, bins.r1)
    z_cens = np.zeros(y_cens.size, bool)
    o1 = c1 = 0
    for b, (n, r1, t1, masses, m, omega, c) in enumerate(zip(
            bins.n_obs.tolist(), bins.r1.tolist(), t_cens.tolist(),
            mass.tolist(), phi.m.tolist(), phi.omega.tolist(),
            bins.c_lin.tolist())):
        o0, o1, c0, c1 = o1, o1 + n, c1, c1 + r1
        if b in failed:
            continue
        rng, z = rngs[b], z_obs[o0:o1]
        for _ in range(EMPTY_COMPONENT_RETRIES):
            u = rng.random(n + r1)
            np.less(u[:n], t_obs[o0:o1], out=z)
            k1 = np.count_nonzero(u[n:] < t1)
            # censored labels of both components need no observed count
            if 0 < k1 < r1 or 0 < np.count_nonzero(z) + k1 < n + r1:
                break
        else:
            failed[b] = DegenerateFitError(
                f"bin ld={bins.ld[b]}: a component stayed empty after "
                f"{EMPTY_COMPONENT_RETRIES} redraws")
            continue
        if not r1:
            continue
        z_cens[c0:c0 + k1] = True
        for j, (a, e) in enumerate(((c0, c0 + k1), (c0 + k1, c1))):
            if e == a:
                continue
            try:
                y_cens[a:e] = sample_truncated_gamma(rng, m[j], omega[j],
                                                     e - a, c, masses[j])
            except NumericalFailureError:
                failed[b] = NumericalFailureError(
                    f"bin ld={bins.ld[b]}: component {j + 1} has mass "
                    f"{masses[j]:.3g} below the threshold")
                break
    return (z_obs, z_cens, y_cens), failed


def m_step(bins: BinBatch, completed, phi_prev: MixtureBatch,
           config: SemConfig) -> MixtureBatch:
    """Update (alpha, omega, m) of every bin from the completion of s_step.

    Scales use the previous shapes (omega_i = omega_im / m_i^prev); the new
    shapes then solve digamma(m) = weighted mean of ln(x / omega_i^new), in
    one ``solve_shape`` call for the batch. Scale updates use the unclamped
    weights; only the stored alpha is clamped into
    [ALPHA_FLOOR, 1 - ALPHA_FLOOR]. A component whose shape update is
    undefined gets a NaN shape, and one without samples a NaN scale too; a
    component's update reads no other component.
    """
    z_obs, z_cens, y_cens = completed
    n = bins.n_obs.size
    # sums per (bin, component) over key 2 * bin + (0 for component 1)
    key_obs = 2 * bins.owner + ~z_obs
    key_cens = 2 * np.repeat(np.arange(n), bins.r1) + ~z_cens

    def per_component(w_obs, w_cens):
        return (np.bincount(key_obs, w_obs, 2 * n)
                + np.bincount(key_cens, w_cens, 2 * n)).reshape(n, 2)

    counts = per_component(None, None)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        omega = per_component(bins.x, y_cens) / counts / phi_prev.m
        log_mean = per_component(bins.lnx, np.log(y_cens)) / counts \
            - np.log(omega)
        # NaN for a bin without samples, which has failed already
        alpha1 = np.clip(counts[:, 0] / (bins.n_obs + bins.r1), ALPHA_FLOOR,
                         1.0 - ALPHA_FLOOR)
    solvable = np.isfinite(log_mean)
    m = np.full(log_mean.shape, np.nan)
    m[solvable] = solve_shape(log_mean[solvable], config.digamma_mode)
    return MixtureBatch(np.column_stack(
        [alpha1, m[:, 0], omega[:, 0], m[:, 1], omega[:, 1]]))


def _ordered(phi: MixtureBatch, prev: MixtureBatch) -> MixtureBatch:
    # keep labels consistent across iterations: per bin, pick the
    # orientation whose components moved least (in log mean / log shape)
    # from the previous iterate, so traces and burn averages track one
    # physical component. A mean beyond float range gives an inf or NaN
    # distance, which never swaps.
    def dist(i, j):  # new component i against previous component j
        return np.abs(mean[:, i] - mean0[:, j]) \
            + np.abs(shape[:, i] - shape0[:, j])

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mean, shape = np.log(phi.m * phi.omega), np.log(phi.m)
        mean0, shape0 = np.log(prev.m * prev.omega), np.log(prev.m)
        swap = dist(0, 1) + dist(1, 0) < dist(0, 0) + dist(1, 1)
    swapped = phi.rows[:, [0, 3, 4, 1, 2]]  # the components exchanged
    swapped[:, 0] = 1.0 - swapped[:, 0]
    return MixtureBatch(np.where(swap[:, None], swapped, phi.rows))


def _invalid_lanes(rows: np.ndarray) -> list:
    """Lanes of parameter rows with a shape or scale not finite and > 0."""
    valid = (rows[:, 1:] > 0) & (rows[:, 1:] < np.inf)
    return np.flatnonzero(~valid.all(axis=1)).tolist()


def _too_few_samples(bin_: CensoredBin):
    """The error of a bin with fewer than 2 observed samples, else None."""
    if bin_.observed.size < 2:
        return InsufficientDataError(
            f"bin ld={bin_.ld}: need >= 2 observed samples, "
            f"got {bin_.observed.size}")


def run_semcm_batch(bins, inits, config: SemConfig, rngs) -> list:
    """Run the E/S/M chains of many bins in lockstep, bin b from ``inits[b]``
    with generator ``rngs[b]``.

    Returns one entry per bin: its ``SemTrace``, or the first error that
    ended its chain (``InsufficientDataError``, ``DegenerateFitError`` when
    a component stayed empty, otherwise ``NumericalFailureError``; the
    S-step's when both steps fail in one iteration). Bin b keeps lane b of
    the batch throughout: a bin that fails, before iteration 1 or in a step,
    gets a NaN parameter row, which the S-step fails before any draw and the
    M-step leaves unsolved, and the other bins run on unchanged.
    """
    out = [_too_few_samples(bin_) for bin_ in bins]
    batch, phi = BinBatch.of(bins), MixtureBatch.of(inits)
    phi.rows[[b for b, exc in enumerate(out) if exc]] = np.nan
    history = np.empty((len(bins), config.iterations, 5))
    for it in range(config.iterations):
        completed, failed = s_step(batch, phi, rngs)
        nxt = m_step(batch, completed, phi, config)
        for b in _invalid_lanes(nxt.rows):
            failed.setdefault(b, NumericalFailureError(
                f"bin ld={batch.ld[b]}: M-step gave a shape or scale that "
                "is not finite and > 0"))
        for b, exc in failed.items():
            out[b] = out[b] or exc
        nxt.rows[list(failed)] = np.nan
        phi = _ordered(nxt, phi)
        history[:, it] = phi.rows

    # reduce each parameter's window as one contiguous 1-D run, np.mean's
    # pairwise sum (summing across rows rounds otherwise); finite values
    # may still sum beyond float max
    tail = np.ascontiguousarray(
        history[:, -config.burn_window:].transpose(0, 2, 1))
    with np.errstate(over="ignore"):
        final = tail.mean(axis=2)
    for b in _invalid_lanes(final):
        out[b] = out[b] or NumericalFailureError(
            f"bin ld={batch.ld[b]}: burn-window mean has a shape or scale "
            "that is not finite and > 0")
    for b in [b for b, exc in enumerate(out) if exc is None]:
        out[b] = SemTrace(history[b], MixtureParams.from_row(final[b]))
    return out


def run_semcm(bin_: CensoredBin, init: MixtureParams, config: SemConfig,
              rng: np.random.Generator) -> SemTrace:
    """Run the full E/S/M chain of one bin (a batch of one) and return the
    trace with its burn-window mean; raises the error that ended the
    chain."""
    result, = run_semcm_batch([bin_], [init], config, [rng])
    if isinstance(result, SemTrace):
        return result
    raise result


def init_heuristic(bin_: CensoredBin,
                   m1_guess: float | None = None) -> MixtureParams:
    """Starting point: moment-based (or supplied) signal shape, Rayleigh-like
    interference (m = 1), both means anchored at the observed sample mean
    with the interference offset +3 dB to break symmetry."""
    exc = _too_few_samples(bin_)
    if exc:
        raise exc
    with np.errstate(over="ignore"):  # an infinite mean fails GammaParams
        mean = float(bin_.observed.mean())
    m1 = float(m1_guess) if m1_guess is not None else baselines.mb_shape(
        bin_.observed)
    comp1 = GammaParams(m=m1, omega=mean / m1)
    comp2 = GammaParams(m=1.0, omega=mean * db_to_linear(3.0))
    return MixtureParams(alpha1=0.5, comp1=comp1, comp2=comp2)


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def fit_bins(bins, config: SemConfig, seed: int,
             init_m1: float | None = None) -> list:
    """Fit every bin, bin b from ``init_heuristic(bins[b], init_m1)`` with
    ``default_rng([seed, b])``. Returns per bin its ``SemTrace`` or the
    ``InsufficientDataError``, ``DegenerateFitError`` or
    ``NumericalFailureError`` that ended it (a start that fails on equal
    samples or an overflowed mean is the last). Bin i of those with a start
    runs in lane group i mod k, one ``run_semcm_batch`` each, group 0 on
    this thread and the others on pool threads in copies of this context
    (so numpy's error state holds there): k is the CPU count, capped by the
    bins and the ``*_MIN_SAMPLES`` floors. No result depends on k."""
    out, inits = [None] * len(bins), {}
    for b, bin_ in enumerate(bins):
        try:
            inits[b] = init_heuristic(bin_, init_m1)
        except InsufficientDataError as exc:
            out[b] = exc
        except ValueError as exc:
            out[b] = NumericalFailureError(f"bin ld={bin_.ld}: {exc}")
    lanes = list(inits)
    samples = sum(bins[b].n_total for b in lanes)
    k = 1 if samples < BIN_MIN_SAMPLES * len(lanes) else max(1, min(
        _cpu_count(), len(lanes), samples // GROUP_MIN_SAMPLES))
    groups = [lanes[g::k] for g in range(k)]

    def run(group):
        return run_semcm_batch(
            [bins[b] for b in group], [inits[b] for b in group], config,
            [np.random.default_rng([seed, b]) for b in group])

    if k == 1:
        results = [run(lanes)]
    else:
        with concurrent.futures.ThreadPoolExecutor(k - 1) as pool:
            rest = [pool.submit(contextvars.copy_context().run, run, group)
                    for group in groups[1:]]
            results = [run(groups[0]), *(f.result() for f in rest)]
    for group, traces in zip(groups, results):
        for b, trace in zip(group, traces):
            out[b] = trace
    return out
