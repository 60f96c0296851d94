"""Synthetic censored-mixture scenarios: attenuating signal component,
constant-median interference, per-index mixing, left-censoring at a noise
floor. Simulated data leaves through the same packet-log format that the
ingest side reads, so both paths share one pipeline."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .ingest import LOG_DTYPE
from .model import CensoredBin, GammaParams, MixtureParams, db_to_linear

# Most packets (grid bins x n_per_bin) a scenario may hold; the largest
# benchmark scenario has 380 000. A larger one is rejected before any
# array is sized from it.
MAX_PACKETS = 10_000_000


@dataclass(frozen=True)
class Scenario:
    """Simulation configuration. The signal mean line in dBm is
    pl_a - pl_b * ld; the interference mean is flat over distance."""

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
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"scenario field {f.name!r} must be finite, "
                                 f"got {value!r}")
        if self.ld_end < self.ld_start or self.ld_step <= 0:
            raise ValueError("empty or invalid ld grid")
        if self.n_per_bin < 1:
            raise ValueError("n_per_bin must be >= 1")
        steps = (self.ld_end - self.ld_start) / self.ld_step
        if steps >= MAX_PACKETS \
                or (round(steps) + 1) * self.n_per_bin > MAX_PACKETS:
            raise ValueError(f"scenario has more than MAX_PACKETS = "
                             f"{MAX_PACKETS} packets (grid bins x n_per_bin)")
        if self.m1 <= 0 or self.m2 <= 0:
            raise ValueError("shapes must be > 0")
        if not (0.0 <= self.mixing_alpha1 <= 1.0):
            raise ValueError("mixing_alpha1 must be in [0, 1]")

    @property
    def ld_grid(self) -> np.ndarray:
        n = int(round((self.ld_end - self.ld_start) / self.ld_step)) + 1
        grid = self.ld_start + self.ld_step * np.arange(n)
        return grid[grid <= self.ld_end + 1e-9]

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a JSON object of Scenario fields; anything else, an unknown
        key or a value that is not a number of the field's type (``int``
        for ``n_per_bin`` and ``seed``) raises ValueError, as does any value
        ``Scenario`` itself rejects. An integer given for a float field
        becomes a float; one beyond float range raises ValueError."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("scenario JSON must be an object")
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(doc) - set(types)
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        values = {}
        for name, value in doc.items():
            kinds = int if types[name] == "int" else (int, float)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"scenario field {name!r} must be a "
                                 f"{types[name]}, got {value!r}")
            try:
                values[name] = value if kinds is int else float(value)
            except OverflowError:
                raise ValueError(f"scenario field {name!r} is an integer "
                                 "beyond float range") from None
        return cls(**values)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


@dataclass(frozen=True)
class GroundTruth:
    """Per-bin true parameters of a scenario: its truth CSV and the
    oracle of checks on simulated data."""

    lds: np.ndarray
    params: list  # MixtureParams per bin
    mean1_db: np.ndarray
    mean2_db: np.ndarray


def signal_omega_at(ld: float, sc: Scenario) -> float:
    """Signal scale at a bin: mean m1*omega1 sits on the path-loss line."""
    return db_to_linear(sc.pl_a - sc.pl_b * ld) / sc.m1


def interference_omega(sc: Scenario) -> float:
    return db_to_linear(sc.interference_mean_db) / sc.m2


def bin_rng(seed: int, bin_index: int) -> np.random.Generator:
    """Per-bin generator independent of scheduling order."""
    return np.random.default_rng([seed, bin_index])


def true_params_at(ld: float, sc: Scenario) -> MixtureParams:
    return MixtureParams(
        alpha1=sc.mixing_alpha1,
        comp1=GammaParams(m=sc.m1, omega=signal_omega_at(ld, sc)),
        comp2=GammaParams(m=sc.m2, omega=interference_omega(sc)))


def _draw_bin(sc: Scenario, bin_index: int, ld: float):
    """Per-packet mixture values for one bin plus the keep (received) mask."""
    rng = bin_rng(sc.seed, bin_index)
    signal = rng.gamma(sc.m1, signal_omega_at(ld, sc), sc.n_per_bin)
    interf = rng.gamma(sc.m2, interference_omega(sc), sc.n_per_bin)
    take_signal = rng.random(sc.n_per_bin) < sc.mixing_alpha1
    mixed = np.where(take_signal, signal, interf)
    keep = mixed > db_to_linear(sc.c_db)
    return mixed, keep


def ground_truth(sc: Scenario) -> GroundTruth:
    """The true parameters of every bin of a scenario; draws nothing."""
    grid = sc.ld_grid
    return GroundTruth(
        lds=grid,
        params=[true_params_at(ld, sc) for ld in grid.tolist()],
        mean1_db=sc.pl_a - sc.pl_b * grid,
        mean2_db=np.full(grid.size, sc.interference_mean_db))


def generate_scenario(sc: Scenario) -> list[CensoredBin]:
    """The censored bins of a scenario; ``ground_truth(sc)`` is their truth."""
    bins = []
    for b, ld in enumerate(sc.ld_grid.tolist()):
        mixed, keep = _draw_bin(sc, b, ld)
        obs = mixed[keep]
        bins.append(CensoredBin(ld=ld, observed=obs, n_total=sc.n_per_bin,
                                r1=sc.n_per_bin - obs.size, c_db=sc.c_db))
    return bins


def censoring_probability(ld: float, sc: Scenario) -> float:
    """Analytic P(sample below threshold) for one bin."""
    from scipy.special import gammainc  # only this oracle needs scipy here
    c = db_to_linear(sc.c_db)
    phi = true_params_at(ld, sc)
    return (phi.alpha1 * gammainc(phi.comp1.m, c / phi.comp1.omega)
            + phi.alpha2 * gammainc(phi.comp2.m, c / phi.comp2.omega))


def packet_rows(sc: Scenario) -> np.ndarray:
    """The packet log of a scenario, one ``LOG_DTYPE`` row per transmitted
    packet, drawn identically to ``generate_scenario``; a packet below the
    threshold has NaN RSSI."""
    n = sc.n_per_bin
    log = np.empty(n * sc.ld_grid.size, LOG_DTYPE)
    log["seq"] = np.arange(1, log.size + 1)
    for b, ld in enumerate(sc.ld_grid):
        mixed, keep = _draw_bin(sc, b, float(ld))
        rows = log[b * n:(b + 1) * n]
        rows["distance_m"] = 10.0 ** (float(ld) / 10.0)
        rows["rssi_dbm"] = 10.0 * np.log10(mixed, out=np.full(n, np.nan),
                                           where=keep)
    return log
