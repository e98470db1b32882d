"""Experiment harness: configuration, scripted scenarios, sweeps, acceptance."""

from .acceptance import verify
from .builders import build_direct_unit, network_from_forest
from .config import (ExperimentConfig, SEED_ENV_VAR, config_from_json,
                     config_to_json, default_config_json, load_config)
from .scenarios import SCENARIOS, run_scenario
from .sweeps import ALL_FIRING_GROWTH, sweep

__all__ = [
    "ALL_FIRING_GROWTH",
    "ExperimentConfig",
    "SCENARIOS",
    "SEED_ENV_VAR",
    "build_direct_unit",
    "config_from_json",
    "config_to_json",
    "default_config_json",
    "load_config",
    "network_from_forest",
    "run_scenario",
    "sweep",
    "verify",
]
