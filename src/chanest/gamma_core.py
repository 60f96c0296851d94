"""Gamma-family special functions, shape root solver and truncated sampler.

Everything here works in the linear power domain (mW). Random draws take an
explicit ``numpy.random.Generator`` so callers own reproducibility.
"""
from __future__ import annotations

import numpy as np
from scipy import special

from .errors import NumericalFailureError

EULER_GAMMA = 0.5772156649015329

# Below this the truncated tail cannot be represented in double precision.
TRUNCATION_MASS_FLOOR = 1e-300
# Truncated masses at or above this are sampled by rejection, below it by
# inverse CDF (see sample_truncated_gamma).
REJECTION_MASS = 0.5
TINY = np.finfo(float).tiny

DIGAMMA_MODES = ("exact", "paper")
# Minka (2002): digamma^-1(L) ~ exp(L) + 1/2 for L >= this, else
# -1 / (L - digamma(1)); Newton from there converges in a few steps (at most
# 5 exact, 10 paper over L in [-700, 700]).
MINKA_SPLIT = -2.22
NEWTON_STEPS = 50
# relative residual at which a solve_shape lane stops
SHAPE_TOL = 1e-12


def digamma(x, mode: str = "exact"):
    """Digamma, exact or (any other mode) the paper's 3-term approximation
    log(x) - 1/(2x) - 1/(12x^2): the shape solver's kernel, unvalidated."""
    # the asymptotic form is written in 1/x so that it neither overflows nor
    # warns for huge x
    if mode == "exact":
        return special.digamma(x)
    r = 1.0 / x
    return np.log(x) - r * (0.5 + r / 12.0)


def _psi_deriv(x, mode: str):
    if mode == "exact":
        return special.zeta(2.0, x)  # trigamma
    r = 1.0 / x
    return r * (1.0 + r * (0.5 + r / 6.0))


def solve_shape(L, mode: str = "exact"):
    """Solve digamma(m) = L for m > 0, elementwise over a scalar or array L.

    Digamma (either mode) is strictly increasing and concave on (0, inf)
    with range (-inf, inf), so every lane has a unique root. Newton starts
    from Minka's (2002) inverse-digamma approximation, and a lane stops as
    soon as |digamma(m) - L| <= SHAPE_TOL * max(1, |L|): its root never
    depends on the other lanes. An L above ln(float max) ~ 709.78 has no
    finite root and gives inf.
    """
    L = np.asarray(L, dtype=float)
    if not np.all(np.isfinite(L)):
        raise ValueError("L must be finite")
    if mode not in DIGAMMA_MODES:
        raise ValueError(f"unknown digamma mode {mode!r}")
    with np.errstate(over="ignore", divide="ignore"):
        m = np.where(L >= MINKA_SPLIT, np.exp(L) + 0.5,
                     -1.0 / (L + EULER_GAMMA)).ravel()
    target = L.ravel()
    lane = np.flatnonzero(np.isfinite(m))
    for _ in range(NEWTON_STEPS):
        x, want = m[lane], target[lane]
        f = digamma(x, mode) - want
        moving = np.abs(f) > SHAPE_TOL * np.maximum(1.0, np.abs(want))
        lane, x = lane[moving], x[moving]
        if not lane.size:
            break
        m[lane] = x - f[moving] / _psi_deriv(x, mode)
    out = m.reshape(L.shape)
    return float(out) if out.ndim == 0 else out


def sample_truncated_gamma(rng: np.random.Generator, m: float, omega: float,
                           size: int, c: float, mass: float) -> np.ndarray:
    """``size`` draws from Gamma(m, omega) conditioned on y <= c, given the
    truncated mass P(m, c / omega); clipped into [tiny, c].

    With ``mass >= REJECTION_MASS`` it proposes from the untruncated Gamma
    in blocks sized from 1 / mass and keeps the first ``size`` proposals
    with y <= c, in draw order: at most 2 proposals per value on average,
    each far cheaper than one inverse CDF. Below that it takes the inverse
    CDF of ``size`` uniforms, whose cost does not grow as the mass shrinks.
    Before any draw, a ``c`` that is not finite and > 0 raises ValueError
    and a mass below ``TRUNCATION_MASS_FLOOR`` (or NaN) NumericalFailureError.
    """
    if not 0.0 < c < np.inf:
        raise ValueError(f"c must be finite and > 0, got {c}")
    if not mass >= TRUNCATION_MASS_FLOOR:
        raise NumericalFailureError(
            f"truncated mass {mass:.3g} is below {TRUNCATION_MASS_FLOOR}")
    if not size:
        return np.empty(0)
    if mass < REJECTION_MASS:
        y = omega * special.gammaincinv(m, rng.random(size) * mass)
        return np.maximum(np.minimum(y, c), TINY)
    kept, need = [], size
    while need > 0:
        # the expected yield exceeds need by 4 sqrt(need) + 4, at least 4
        # standard deviations, so a second block is rare
        y = rng.gamma(m, omega, int((need + 4.0 * need ** 0.5 + 4.0) / mass))
        y = y[y <= c][:need]
        kept.append(y)
        need -= y.size
    y = kept[0] if len(kept) == 1 else np.concatenate(kept)
    return np.maximum(y, TINY, out=y)
