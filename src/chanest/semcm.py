"""Stochastic EM for the left-censored two-component Gamma mixture.

One iteration is E (responsibilities for received and censored samples),
S (draw component labels and impute censored values from the truncated
conditional) and M (closed-form weight/scale updates plus a digamma root
solve for the shapes). The chain is ergodic rather than convergent, so the
point estimate is the average over a trailing burn window.

The chains of many bins advance in lockstep: each step works on a
``BinBatch`` with one ``MixtureBatch`` of parameters, and one
``solve_shape`` call gives the shapes of every bin. Bin b draws only from
its own generator and no lane's arithmetic reads another bin, so a bin's
chain is the same whichever bins share its batch; a single-bin run is a
batch of one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from . import baselines
from .errors import (DegenerateCensorMassError, DegenerateFitError,
                     DegenerateLikelihoodError, EmptyComponentError,
                     InsufficientDataError, TruncationMassUnderflowError)
from .gamma_core import (DIGAMMA_MODES, TRUNCATION_MASS_FLOOR, GammaParams,
                         solve_shape, truncated_gamma_ppf)
# not called here: bench/child.py traces the sampler under this module's name
from .gamma_core import sample_truncated_gamma  # noqa: F401
from .model import CensoredBin, MixtureParams, db_to_linear

EMPTY_COMPONENT_RETRIES = 10


@dataclass(frozen=True)
class SemConfig:
    iterations: int = 50
    burn_window: int = 10
    alpha_floor: float = 0.02
    digamma_mode: str = "exact"

    def __post_init__(self):
        if not (1 <= self.burn_window <= self.iterations):
            raise ValueError("need 1 <= burn_window <= iterations")
        if not (0.0 < self.alpha_floor < 0.5):
            raise ValueError("need 0 < alpha_floor < 0.5")
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
        c_lin = np.array([b.c_lin for b in bins], dtype=float)
        if not np.all((c_lin > 0) & (c_lin < np.inf)):
            raise ValueError("c_lin must be finite and > 0")
        x = np.concatenate([b.observed for b in bins] + [np.empty(0)])
        n_obs = np.array([b.observed.size for b in bins], np.intp)
        return cls(ld=np.array([b.ld for b in bins], dtype=float), x=x,
                   lnx=np.log(x), owner=np.repeat(np.arange(len(bins)), n_obs),
                   n_obs=n_obs, r1=np.array([b.r1 for b in bins], np.intp),
                   c_lin=c_lin)

    def __len__(self) -> int:
        return self.n_obs.size

    def take(self, keep):
        """The bins where the mask ``keep`` holds, with the masks it selects
        over the observed and the censored samples."""
        obs, cens = np.repeat(keep, self.n_obs), np.repeat(keep, self.r1)
        n_obs = self.n_obs[keep]
        return BinBatch(ld=self.ld[keep], x=self.x[obs], lnx=self.lnx[obs],
                        owner=np.repeat(np.arange(n_obs.size), n_obs),
                        n_obs=n_obs, r1=self.r1[keep],
                        c_lin=self.c_lin[keep]), obs, cens


@dataclass(frozen=True)
class MixtureBatch:
    """Mixture parameters of a batch of bins: ``alpha1`` has shape (B,),
    ``m`` and ``omega`` shape (B, 2) with column j for component j + 1."""

    alpha1: np.ndarray
    m: np.ndarray
    omega: np.ndarray

    @classmethod
    def of(cls, params) -> "MixtureBatch":
        rows = np.array([p.row() for p in params], float).reshape(-1, 5)
        return cls(rows[:, 0].copy(), rows[:, 1::2].copy(),
                   rows[:, 2::2].copy())

    def take(self, keep) -> "MixtureBatch":
        return MixtureBatch(self.alpha1[keep], self.m[keep], self.omega[keep])


@dataclass(frozen=True)
class CompletedAssignment:
    """One stochastic completion of a batch: labels (True = component 1) of
    the observed samples, in ``BinBatch.x`` order, and of the imputed
    censored values. Bin b's censored samples are the next ``r1[b]``
    entries of ``z_cens`` and ``y_cens``."""

    z_obs: np.ndarray
    z_cens: np.ndarray
    y_cens: np.ndarray


def e_step_observed(bins: BinBatch, phi: MixtureBatch) -> np.ndarray:
    """P(component 1 | received sample) for every sample of the batch; NaN
    where both weighted component densities underflow.

    Per bin, the log-ratio of the two weighted densities is
    c + dm * ln x - dw * x: only its three coefficients are formed per bin
    and spread over the samples.
    """
    n = bins.n_obs
    with np.errstate(divide="ignore", invalid="ignore"):
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

    Bin b draws from ``rngs[b]`` only, in the order random(n_obs),
    random(r1), random(k1), random(k2), where k_j censored samples took
    label j; a bin left with an empty component draws again, up to
    ``EMPTY_COMPONENT_RETRIES`` times in all. Returns the completion and a
    dict from the index of each bin that failed to the error that ends its
    chain. A failed bin's entries in the completion are meaningless.
    """
    t_obs = e_step_observed(bins, phi)
    t_cens, mass = e_step_censored(bins, phi)
    n = len(bins)
    failed = {}
    owner = bins.owner
    for b in np.unique(owner[np.isnan(t_obs)]).tolist():
        failed[b] = DegenerateLikelihoodError(
            f"bin ld={bins.ld[b]}: both component densities underflowed at "
            "some sample")
    for b in np.flatnonzero((bins.r1 > 0) & ~np.isfinite(t_cens)).tolist():
        failed.setdefault(b, DegenerateCensorMassError(
            f"bin ld={bins.ld[b]}: no component carries mass below the "
            "censoring threshold"))

    obs_end, cens_end = np.cumsum(bins.n_obs), np.cumsum(bins.r1)
    spans = list(zip((obs_end - bins.n_obs).tolist(), obs_end.tolist(),
                     (cens_end - bins.r1).tolist(), bins.r1.tolist(),
                     t_cens.tolist(), mass.tolist()))
    u_obs, u_cens = np.zeros(bins.x.size), np.zeros(int(bins.r1.sum()))
    k1 = np.zeros(n, np.intp)
    todo = [b for b in range(n) if b not in failed]
    with np.errstate(invalid="ignore"):
        for _ in range(EMPTY_COMPONENT_RETRIES):
            for b in todo:
                o0, o1, c0, r1, t1, masses = spans[b]
                rng = rngs[b]
                rng.random(out=u_obs[o0:o1])
                if not r1:
                    continue
                k = k1[b] = np.count_nonzero(rng.random(r1) < t1)
                for j, (a, e) in enumerate(((c0, c0 + k), (c0 + k, c0 + r1))):
                    if e == a:
                        continue
                    if masses[j] < TRUNCATION_MASS_FLOOR:
                        failed[b] = TruncationMassUnderflowError(
                            f"bin ld={bins.ld[b]}: component {j + 1} has "
                            f"mass {masses[j]:.3g} below the threshold")
                        break
                    rng.random(out=u_cens[a:e])
            z_obs = u_obs < t_obs
            n1 = np.bincount(owner, weights=z_obs, minlength=n) + k1
            n2 = bins.n_obs + bins.r1 - n1
            todo = [b for b in todo
                    if b not in failed and (n1[b] == 0 or n2[b] == 0)]
            if not todo:
                break
    for b in todo:
        failed[b] = DegenerateFitError(
            f"bin ld={bins.ld[b]}: a component stayed empty after "
            f"{EMPTY_COMPONENT_RETRIES} redraws")

    # each bin's censored draws hold component 1's k1 values, then the rest
    per_comp = np.column_stack([k1, bins.r1 - k1]).ravel()
    y_cens = truncated_gamma_ppf(
        u_cens, np.repeat(phi.m.ravel(), per_comp),
        np.repeat(phi.omega.ravel(), per_comp),
        np.repeat(bins.c_lin, bins.r1), np.repeat(mass.ravel(), per_comp))
    z_cens = np.arange(u_cens.size) < np.repeat(cens_end - bins.r1 + k1,
                                                bins.r1)
    return CompletedAssignment(z_obs, z_cens, y_cens), failed


def m_step(bins: BinBatch, completed: CompletedAssignment,
           phi_prev: MixtureBatch, config: SemConfig,
           on_empty: str = "error") -> MixtureBatch:
    """Update (alpha, omega, m) of every bin from its completed sample.

    Scales use the previous shapes (omega_i = omega_im / m_i^prev); the new
    shapes then solve digamma(m) = weighted mean of ln(x / omega_i^new), in
    one ``solve_shape`` call for the batch. Scale updates use the unclamped
    weights; only the stored alpha is clamped away from {0, 1}. A bin whose
    update is undefined gets NaN parameters. A component without samples
    raises ``EmptyComponentError``, or with ``on_empty="keep"`` keeps its
    previous parameters.
    """
    n = len(bins)
    if completed.z_obs.shape != bins.x.shape \
            or completed.z_cens.shape != (int(bins.r1.sum()),):
        raise ValueError("completed assignment inconsistent with bin counts")
    # sums per (bin, component) over key 2 * bin + (0 for component 1)
    key_obs = 2 * bins.owner + ~completed.z_obs
    key_cens = 2 * np.repeat(np.arange(n), bins.r1) + ~completed.z_cens

    def per_component(w_obs, w_cens):
        return (np.bincount(key_obs, w_obs, 2 * n)
                + np.bincount(key_cens, w_cens, 2 * n)).reshape(n, 2)

    counts = per_component(None, None)
    empty = counts == 0
    if empty.any() and on_empty != "keep":
        raise EmptyComponentError(
            f"component(s) got no samples in {int(empty.any(1).sum())} bins")
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = per_component(bins.x, completed.y_cens) / counts / phi_prev.m
        log_mean = per_component(bins.lnx, np.log(completed.y_cens)) / counts \
            - np.log(omega)
    solvable = np.isfinite(log_mean)
    m = np.full(log_mean.shape, np.nan)
    m[solvable] = solve_shape(log_mean[solvable], config.digamma_mode)
    if on_empty == "keep":
        m = np.where(empty, phi_prev.m, m)
        omega = np.where(empty, phi_prev.omega, omega)
    alpha1 = np.clip(counts[:, 0] / (bins.n_obs + bins.r1),
                     config.alpha_floor, 1.0 - config.alpha_floor)
    return MixtureBatch(alpha1, m, omega)


def _ordered(phi: MixtureBatch, prev: MixtureBatch) -> MixtureBatch:
    # keep labels consistent across iterations: per bin, pick the
    # orientation whose components moved least (in log mean / log shape)
    # from the previous iterate, so traces and burn averages track one
    # physical component
    mean, shape = np.log(phi.m * phi.omega), np.log(phi.m)
    mean0, shape0 = np.log(prev.m * prev.omega), np.log(prev.m)

    def dist(i, j):  # new component i against previous component j
        return np.abs(mean[:, i] - mean0[:, j]) \
            + np.abs(shape[:, i] - shape0[:, j])

    swap = dist(0, 1) + dist(1, 0) < dist(0, 0) + dist(1, 1)
    return MixtureBatch(np.where(swap, 1.0 - phi.alpha1, phi.alpha1),
                        np.where(swap[:, None], phi.m[:, ::-1], phi.m),
                        np.where(swap[:, None], phi.omega[:, ::-1], phi.omega))


def run_semcm_batch(bins, inits, config: SemConfig, rngs) -> list:
    """Run the E/S/M chains of many bins in lockstep, bin b from ``inits[b]``
    with generator ``rngs[b]``.

    Returns one entry per bin: its ``SemTrace``, or the error that ended its
    chain (``InsufficientDataError``, ``DegenerateFitError`` when a
    component stayed empty, otherwise a numerical failure). A failed bin
    leaves the batch; the other bins run on unchanged.
    """
    out = [None] * len(bins)
    live = []
    for b, bin_ in enumerate(bins):
        if bin_.observed.size < 2:
            out[b] = InsufficientDataError(
                f"bin ld={bin_.ld}: need >= 2 observed samples, "
                f"got {bin_.observed.size}")
        else:
            live.append(b)
    batch = BinBatch.of([bins[b] for b in live])
    phi = MixtureBatch.of([inits[b] for b in live])
    rngs = [rngs[b] for b in live]
    history = np.empty((len(bins), config.iterations, 5))

    def drop(failed):
        # record the failures; returns the mask of the bins that go on
        nonlocal batch, phi, live, rngs
        keep = np.ones(len(live), bool)
        for i, exc in failed.items():
            out[live[i]] = exc
            keep[i] = False
        batch, obs, cens = batch.take(keep)
        phi = phi.take(keep)
        live = [b for b, k in zip(live, keep) if k]
        rngs = [r for r, k in zip(rngs, keep) if k]
        return keep, obs, cens

    for it in range(config.iterations):
        completed, failed = s_step(batch, phi, rngs)
        if failed:
            _, obs, cens = drop(failed)
            completed = CompletedAssignment(completed.z_obs[obs],
                                            completed.z_cens[cens],
                                            completed.y_cens[cens])
        nxt = m_step(batch, completed, phi, config)
        valid = (nxt.m > 0) & (nxt.m < np.inf) & (nxt.omega > 0) \
            & (nxt.omega < np.inf)
        bad = np.flatnonzero(~valid.all(axis=1)).tolist()
        if bad:
            keep, _, _ = drop({i: ValueError(
                f"bin ld={batch.ld[i]}: M-step gave a shape or scale that "
                "is not finite and > 0") for i in bad})
            nxt = nxt.take(keep)
        phi = _ordered(nxt, phi)
        # PARAM_FIELDS order: alpha1, then (m, omega) of each component
        history[live, it, 0] = phi.alpha1
        history[live, it, 1::2] = phi.m
        history[live, it, 2::2] = phi.omega

    for b in live:
        # reduce each parameter's window as one contiguous 1-D run: that is
        # np.mean's pairwise sum; a row-by-row (axis=0) sum rounds otherwise
        tail = np.ascontiguousarray(history[b, -config.burn_window:].T)
        out[b] = SemTrace(history[b],
                          MixtureParams.from_row(tail.mean(axis=1)))
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
    if bin_.observed.size < 2:
        raise InsufficientDataError("need >= 2 observed samples")
    mean = float(bin_.observed.mean())
    m1 = float(m1_guess) if m1_guess is not None else baselines.mb_shape(
        bin_.observed)
    comp1 = GammaParams(m=m1, omega=mean / m1)
    comp2 = GammaParams(m=1.0, omega=mean * db_to_linear(3.0))
    return MixtureParams(alpha1=0.5, comp1=comp1, comp2=comp2)
