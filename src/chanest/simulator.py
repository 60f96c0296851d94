"""Synthetic censored-mixture scenarios: attenuating signal component,
constant-median interference, per-index mixing, left-censoring at a noise
floor. Simulated data leaves through the same packet-log format that the
ingest side reads, so both paths share one pipeline."""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from .ingest import LOG_DTYPE, bin_by_ld
from .model import CensoredBin, GammaParams, MixtureParams, db_to_linear

# Most packets (grid bins x n_per_bin) a scenario may hold; the largest
# benchmark scenario has 380 000. A larger one is rejected before any
# array is sized from it.
MAX_PACKETS = 10_000_000


@dataclass(frozen=True)
class Scenario:
    """Simulation configuration. The signal mean line in dBm is
    pl_a - pl_b * ld; the interference mean is flat over distance.

    A value that is not a finite number of its field's type (an integer for
    ``n_per_bin`` and ``seed``; never a bool) raises ValueError, and so does
    a distance, a component scale or a linear threshold that the fields
    imply and that is not a finite number > 0. A float field is stored as a
    ``float``."""

    ld_start: float = 23.0
    ld_end: float = 32.0
    ld_step: float = 0.5
    n_per_bin: int = 1000
    m1: float = 7.0
    m2: float = 35.0
    pl_a: float = -16.0
    pl_b: float = 3.0
    interference_mean_db: float = -97.0
    mixing_alpha1: float = 0.5
    c_db: float = -109.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind = numbers.Integral if f.type == "int" else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"scenario field {f.name!r} must be of "
                                 f"type {f.type}, got {value!r}")
            try:
                value = int(value) if f.type == "int" else float(value)
            except OverflowError:
                raise ValueError(f"scenario field {f.name!r} is an integer "
                                 "beyond float range") from None
            if not math.isfinite(value):
                raise ValueError(f"scenario field {f.name!r} must be finite, "
                                 f"got {value!r}")
            object.__setattr__(self, f.name, value)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.ld_end < self.ld_start or self.ld_step <= 0:
            raise ValueError("empty or invalid ld grid")
        if self.n_per_bin < 1:
            raise ValueError("n_per_bin must be >= 1")
        steps = (self.ld_end - self.ld_start) / self.ld_step
        if steps >= MAX_PACKETS \
                or (round(steps) + 1) * self.n_per_bin > MAX_PACKETS:
            raise ValueError(f"scenario has more than MAX_PACKETS = "
                             f"{MAX_PACKETS} packets (grid bins x n_per_bin)")
        for name in ("m1", "m2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"scenario field {name!r} must be > 0")
        if not (0.0 <= self.mixing_alpha1 <= 1.0):
            raise ValueError("mixing_alpha1 must be in [0, 1]")
        # linear in dB over the grid, so its two ends bound each of these
        ends = np.array([self.ld_start, self.ld_end])
        with np.errstate(over="ignore"):
            implied = {
                "distance": 10.0 ** (ends / 10.0),
                "signal scale": db_to_linear(self.pl_a - self.pl_b * ends)
                / self.m1,
                "interference scale": db_to_linear(self.interference_mean_db)
                / self.m2,
                "linear threshold": db_to_linear(self.c_db)}
        for name, value in implied.items():
            if not np.all((value > 0) & (value < np.inf)):
                raise ValueError(f"scenario {name} must be finite and > 0, "
                                 f"got {np.asarray(value).tolist()}")

    @property
    def ld_grid(self) -> np.ndarray:
        n = int(round((self.ld_end - self.ld_start) / self.ld_step)) + 1
        grid = self.ld_start + self.ld_step * np.arange(n)
        return grid[grid <= self.ld_end + 1e-9]

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a JSON object of Scenario fields. Anything else, a document
        nested too deeply to parse, an unknown key or a value ``Scenario``
        itself rejects raises ValueError."""
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("scenario JSON is nested too deeply") from None
        if not isinstance(doc, dict):
            raise ValueError("scenario JSON must be an object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        return cls(**doc)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def true_params_at(ld: float, sc: Scenario) -> MixtureParams:
    """A bin's true mixture: signal mean m1*omega1 on the path-loss line."""
    return MixtureParams(
        sc.mixing_alpha1,
        GammaParams(sc.m1, db_to_linear(sc.pl_a - sc.pl_b * ld) / sc.m1),
        GammaParams(sc.m2, db_to_linear(sc.interference_mean_db) / sc.m2))


def generate_scenario(sc: Scenario) -> list[CensoredBin]:
    """The censored bins that ``estimate`` fits for the scenario's log; the
    truth of bin b is ``true_params_at(sc.ld_grid[b], sc)``."""
    return bin_by_ld(packet_rows(sc), sc.ld_step, sc.c_db)


def packet_rows(sc: Scenario) -> np.ndarray:
    """The packet log of a scenario, one ``LOG_DTYPE`` row per transmitted
    packet; bin b draws from ``default_rng([sc.seed, b])``, and a packet
    below the threshold has NaN RSSI."""
    n = sc.n_per_bin
    log = np.empty(n * sc.ld_grid.size, LOG_DTYPE)
    log["seq"] = np.arange(1, log.size + 1)
    for b, ld in enumerate(sc.ld_grid.tolist()):
        rng = np.random.default_rng([sc.seed, b])
        phi = true_params_at(ld, sc)
        signal = rng.gamma(phi.comp1.m, phi.comp1.omega, n)
        interf = rng.gamma(phi.comp2.m, phi.comp2.omega, n)
        mixed = np.where(rng.random(n) < sc.mixing_alpha1, signal, interf)
        rows = log[b * n:(b + 1) * n]
        rows["distance_m"] = 10.0 ** (ld / 10.0)
        rows["rssi_dbm"] = 10.0 * np.log10(mixed, out=np.full(n, np.nan),
                                           where=mixed > db_to_linear(sc.c_db))
    return log
