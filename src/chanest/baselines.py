"""Reference estimators: approximate-ML and moment-based Gamma shape fits on
received samples only, plus the least-squares path-loss line."""
from __future__ import annotations

import math

import numpy as np

from .model import PathLossLine


def _validate_samples(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    if np.any(x <= 0) or np.any(~np.isfinite(x)):
        raise ValueError("samples must be finite and > 0")
    return x


def ml_minus_shape(samples) -> float:
    """Approximate single-component ML shape from received powers.

    m = (6 + sqrt(36 + 48*d)) / (24*d) with d = ln(sample mean) - mean(ln x).
    """
    x = _validate_samples(samples)
    with np.errstate(over="ignore"):
        mean = float(x.mean())
    if mean == math.inf:  # d is the same for x scaled by a power of two
        x = np.ldexp(x, -np.frexp(x.max())[1])
        mean = float(x.mean())
    delta = math.log(mean) - float(np.log(x).mean())
    if delta <= 0.0:
        raise ValueError("zero log-dispersion: shape is infinite")
    return (6.0 + math.sqrt(36.0 + 48.0 * delta)) / (24.0 * delta)


def mb_shape(samples) -> float:
    """Moment-based shape: inverse normalized variance of the power,
    mu^2 / (mu2 - mu^2) from the first two sample moments."""
    x = _validate_samples(samples)
    # scaling by a power of two into (0, 1) is exact and leaves the ratio
    # as it was, but keeps the squares of a power near float max finite
    x = np.ldexp(x, -np.frexp(x.max())[1])
    mu = float(x.mean())
    mu2 = float((x * x).mean())
    var = mu2 - mu * mu
    if var <= 0.0:
        raise ValueError("zero sample variance: shape is infinite")
    return mu * mu / var


def lse_line_fit(ld, values) -> PathLossLine:
    """Ordinary least squares of values (dB) on ld, in the A - B*ld
    convention. Needs at least 2 distinct ld values."""
    ld = np.asarray(ld, dtype=float)
    if np.unique(ld).size < 2:
        raise ValueError("need >= 2 distinct ld values")
    design = np.column_stack([np.ones_like(ld), -ld])
    coef, *_ = np.linalg.lstsq(design, np.asarray(values, dtype=float),
                               rcond=None)
    return PathLossLine(A=float(coef[0]), B=float(coef[1]))
