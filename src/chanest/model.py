"""Domain types for mixtures, censored bins and estimates, plus dB helpers.

Estimation runs entirely in the linear power domain (mW); dB shows up only
at I/O boundaries.
"""
from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

# one mixture as a row of floats, the layout of every parameter CSV column
PARAM_FIELDS = ("alpha1", "m1", "omega1", "m2", "omega2")
ESTIMATE_FIELDS = ("ld", *PARAM_FIELDS, "mean1_db", "mean2_db",
                   "loss_fraction")


def db_to_linear(v):
    """dBm -> mW."""
    v = np.asarray(v, dtype=float)
    out = 10.0 ** (v / 10.0)
    return float(out) if out.ndim == 0 else out


def linear_to_db(p):
    """mW -> dBm. Requires p > 0."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        raise ValueError("linear power must be > 0")
    out = 10.0 * np.log10(p)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GammaParams:
    """One mixture component: shape ``m`` and scale ``omega`` (mW).

    Mean power in the linear domain is ``m * omega``.
    """

    m: float
    omega: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and self.m > 0):
            raise ValueError(f"shape must be finite and > 0, got {self.m}")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"scale must be finite and > 0, got {self.omega}")

    @property
    def mean(self) -> float:
        return self.m * self.omega


@dataclass(frozen=True)
class MixtureParams:
    """Two-component Gamma mixture, comp2 weighted 1 - alpha1. In a
    scenario's truth comp1 is the signal and comp2 the interference; in an
    SEM estimate comp1 is the component that started as comp1."""

    alpha1: float
    comp1: GammaParams
    comp2: GammaParams

    def __post_init__(self):
        if not (0.0 <= self.alpha1 <= 1.0):
            raise ValueError(f"alpha1 must be in [0, 1], got {self.alpha1}")

    def row(self) -> tuple:
        """The parameters in ``PARAM_FIELDS`` order."""
        return (self.alpha1, self.comp1.m, self.comp1.omega, self.comp2.m,
                self.comp2.omega)

    @classmethod
    def from_row(cls, row) -> "MixtureParams":
        alpha1, m1, omega1, m2, omega2 = map(float, row)
        return cls(alpha1, GammaParams(m1, omega1), GammaParams(m2, omega2))


@dataclass(frozen=True)
class CensoredBin:
    """One distance bin: received linear powers plus the censored count.

    ``observed`` holds only received samples, all strictly above the
    threshold ``c_lin`` (mW); ``r1`` packets were lost. A bin that is not
    so, or whose ``observed`` is not a 1-D array of finite powers, ``r1``
    not an integer (never a bool), ``ld`` not finite or ``c_lin`` not
    finite and > 0, raises ValueError.
    """

    ld: float
    observed: np.ndarray
    r1: int
    c_lin: float

    def __post_init__(self):
        obs = np.asarray(self.observed, dtype=float)
        object.__setattr__(self, "observed", obs)
        if obs.ndim != 1 or not np.all(np.isfinite(obs)):
            raise ValueError("observed must be a 1-D array of finite powers")
        if isinstance(self.r1, bool) or not isinstance(self.r1,
                                                       numbers.Integral):
            raise ValueError(f"r1 must be an integer, got {self.r1!r}")
        if self.r1 < 0:
            raise ValueError(f"r1 must be >= 0, got {self.r1}")
        if not math.isfinite(self.ld):
            raise ValueError(f"ld must be finite, got {self.ld!r}")
        if not 0.0 < self.c_lin < math.inf:
            raise ValueError("c_lin must be finite and > 0, got "
                             f"{self.c_lin!r}")
        if np.any(obs <= self.c_lin):
            raise ValueError("observed samples must be strictly above the "
                             "censoring threshold")

    @property
    def n_total(self) -> int:
        return self.observed.size + self.r1

    @property
    def loss_fraction(self) -> float:
        return self.r1 / self.n_total if self.n_total else 0.0


@dataclass(frozen=True)
class PathLossLine:
    """Straight-line median path loss: value(ld) = A - B * ld."""

    A: float
    B: float

    def __post_init__(self):
        if not (math.isfinite(self.A) and math.isfinite(self.B)):
            raise ValueError("A and B must be finite")


def write_estimates(fh, rows):
    """Write the per-bin estimates CSV to the text file ``fh`` (opened with
    ``newline=""``) from ``(ld, params, loss_fraction, status)`` rows,
    deriving the dBm component means. ``params`` is None for a failed bin,
    whose parameter and mean fields stay empty."""
    w = csv.writer(fh)
    w.writerow(ESTIMATE_FIELDS + ("status",))
    blank = [""] * (len(ESTIMATE_FIELDS) - 2)
    for ld, params, loss_fraction, status in rows:
        values = blank if params is None else [repr(float(v)) for v in (
            *params.row(), linear_to_db(params.comp1.mean),
            linear_to_db(params.comp2.mean))]
        w.writerow([repr(float(ld)), *values, repr(float(loss_fraction)),
                    status])


def _estimate_field(rec, name, line):
    text = rec[name]
    if not text:  # empty, or missing from a short row
        if name == "ld":  # every row write_estimates writes has one
            raise ValueError(f"estimates CSV line {line}: ld is empty")
        return math.nan
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"estimates CSV line {line}: {name} = {text!r} is "
                         "not a finite number")
    return value


def read_estimates(path):
    """Read an estimates CSV back into (list of dict rows, statuses). An
    empty field other than ``ld`` reads as NaN; an empty ``ld``, any other
    value that is not a finite number, or a field longer than the ``csv``
    module's limit, raises ValueError naming its line."""
    rows, statuses = [], []
    with open(path, newline="") as fh:
        r = csv.DictReader(fh)
        try:
            missing = set(ESTIMATE_FIELDS) - set(r.fieldnames or ())
            if missing:
                raise ValueError(
                    f"estimates CSV missing columns: {sorted(missing)}")
            for rec in r:
                statuses.append(rec.get("status", "ok"))
                rows.append({f: _estimate_field(rec, f, r.line_num)
                             for f in ESTIMATE_FIELDS})
        except csv.Error as exc:
            # DictReader.line_num lags a row that failed to parse
            raise ValueError(f"estimates CSV line {r.reader.line_num}: "
                             f"{exc}") from None
    return rows, statuses
