"""Channel parameter estimation from left-censored Gamma-mixture RSSI data."""

from .model import (CensoredBin, GammaParams, MixtureParams, PathLossLine,
                    db_to_linear, linear_to_db, mixture_mean_db)
from .semcm import (SemConfig, SemTrace, init_heuristic, run_semcm,
                    run_semcm_batch)
from .simulator import Scenario, generate_scenario

__all__ = [
    "CensoredBin", "GammaParams", "MixtureParams", "PathLossLine", "Scenario",
    "SemConfig", "SemTrace", "db_to_linear", "generate_scenario",
    "init_heuristic", "linear_to_db", "mixture_mean_db", "run_semcm",
    "run_semcm_batch",
]

__version__ = "0.1.0"
