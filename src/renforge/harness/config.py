"""Experiment configuration: a single JSON document with explicit defaults."""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

from ..errors import ConfigurationError, check_int, check_number, check_str
from ..growth import GrowthConfig
from .artifacts import read_lines

SEED_ENV_VAR = "RENFORGE_SEED"

KNOWN_SCHEDULES = ("all_firing", "random_subset")

# A direct unit takes about 0.5-0.6 KB per input, so a sweep of this many
# inputs holds some 0.6 GB; a larger entry would allocate until it fails.
MAX_SWEEP_INPUTS = 10 ** 6


@dataclass
class ExperimentConfig:
    seed: int = 0
    scenario: str = "fig2_growth"
    growth: GrowthConfig = field(default_factory=GrowthConfig)
    schedule: str = "all_firing"
    schedule_probability: float = 0.5   # used by the random_subset schedule
    max_ticks: int = 500
    output_dir: str = "out"
    sweep_inputs: list[int] = field(default_factory=lambda: [10, 25, 50])
    sweep_thresholds: list[float] = field(default_factory=lambda: [5.0])

    def __post_init__(self):
        error = ConfigurationError
        check_int(self.seed, "seed", error)
        check_str(self.scenario, "scenario", error)
        if self.schedule not in KNOWN_SCHEDULES:
            raise ConfigurationError(
                f"unknown schedule {self.schedule!r}; expected one of {KNOWN_SCHEDULES}")
        check_number(self.schedule_probability, "schedule_probability", error, 0, 1)
        check_int(self.max_ticks, "max_ticks", error, 1)
        if not check_str(self.output_dir, "output_dir", error) or "\0" in self.output_dir:
            raise error(f"output_dir must be a non-empty string without NUL, "
                        f"got {self.output_dir!r}")
        if not isinstance(self.growth, GrowthConfig):
            raise error(f"growth must be a GrowthConfig, got {self.growth!r}")
        for name, values in (("sweep_inputs", self.sweep_inputs),
                             ("sweep_thresholds", self.sweep_thresholds)):
            if not isinstance(values, list) or not values:
                raise error(f"{name} must be a non-empty list, got {values!r}")
        for i, count in enumerate(self.sweep_inputs):
            check_int(count, f"sweep_inputs[{i}]", error, 1, MAX_SWEEP_INPUTS)
        for i, threshold in enumerate(self.sweep_thresholds):
            check_number(threshold, f"sweep_thresholds[{i}]", error, 0, brackets="(]")


def config_to_json(config: ExperimentConfig) -> str:
    return json.dumps(dataclasses.asdict(config), indent=2, allow_nan=False) + "\n"


def default_config_json() -> str:
    return config_to_json(ExperimentConfig())


def config_from_json(text: str) -> ExperimentConfig:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError("config must be a JSON object")
    unknown = set(doc) - {f.name for f in dataclasses.fields(ExperimentConfig)}
    if unknown:
        raise ConfigurationError(f"unknown configuration keys: {sorted(unknown)}")
    try:
        if "growth" in doc:
            doc["growth"] = GrowthConfig(**doc["growth"])
        return ExperimentConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad configuration value: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Read a config file; the seed env var overrides the file's seed."""
    config = config_from_json("".join(read_lines(path, ConfigurationError)))
    override = os.environ.get(SEED_ENV_VAR)
    if override is not None:
        try:
            config.seed = int(override)
        except ValueError as exc:
            raise ConfigurationError(
                f"{SEED_ENV_VAR} must be an integer, got {override!r}") from exc
    return config
