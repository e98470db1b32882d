"""Experiment harness: configuration, scripted scenarios, sweeps, acceptance."""

from .acceptance import verify
from .builders import build_direct_unit, network_from_forest
from .config import ExperimentConfig, config_from_json, config_to_json, load_config
from .scenarios import SCENARIOS, run_scenario
from .sweeps import ALL_FIRING_GROWTH, sweep
