"""Experiment configuration: a single JSON document with explicit defaults."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from ..core_net import FIRING_TOLERANCE
from ..errors import ConfigurationError, check_int, check_number, check_str
from ..growth import GrowthConfig
from .artifacts import read_lines

# A direct unit takes about 0.5-0.6 KB per input, so a sweep of this many
# inputs holds some 0.6 GB; a larger entry would allocate until it fails.
MAX_SWEEP_INPUTS = 10 ** 6


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    scenario: str = "fig2_growth"
    growth: GrowthConfig = field(default_factory=GrowthConfig)
    schedule_probability: float = 1.0   # each input's chance to fire on a tick
    max_ticks: int = 500
    output_dir: str = "out"
    sweep_inputs: tuple[int, ...] = (10, 25, 50)
    sweep_thresholds: tuple[float, ...] = (5.0,)

    def __post_init__(self):
        error = ConfigurationError
        check_int(self.seed, "seed", error)
        check_str(self.scenario, "scenario", error)
        check_number(self.schedule_probability, "schedule_probability", error, 0, 1)
        check_int(self.max_ticks, "max_ticks", error, 1)
        if not check_str(self.output_dir, "output_dir", error) or "\0" in self.output_dir:
            raise error(f"output_dir must be a non-empty string without NUL, "
                        f"got {self.output_dir!r}")
        if not isinstance(self.growth, GrowthConfig):
            raise error(f"growth must be a GrowthConfig, got {self.growth!r}")
        # A list is kept as a tuple, so a built config's entries stay checked.
        for name in ("sweep_inputs", "sweep_thresholds"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not values:
                raise error(f"{name} must be a non-empty list or tuple, got {values!r}")
            object.__setattr__(self, name, tuple(values))
        for i, count in enumerate(self.sweep_inputs):
            check_int(count, f"sweep_inputs[{i}]", error, 1, MAX_SWEEP_INPUTS)
        for i, threshold in enumerate(self.sweep_thresholds):
            check_number(threshold, f"sweep_thresholds[{i}]", error, FIRING_TOLERANCE,
                         brackets="(]")


def config_to_json(config: ExperimentConfig) -> str:
    return json.dumps(dataclasses.asdict(config), indent=2, allow_nan=False) + "\n"


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
    growth = doc.get("growth", {})
    if not isinstance(growth, dict):
        raise ConfigurationError("growth must be a JSON object")
    unknown = set(growth) - {f.name for f in dataclasses.fields(GrowthConfig)}
    if unknown:
        raise ConfigurationError(f"unknown growth keys: {sorted(unknown)}")
    try:
        doc["growth"] = GrowthConfig(**growth)
        return ExperimentConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad configuration value: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Read a config file; the file alone sets the run."""
    return config_from_json("".join(read_lines(path, ConfigurationError)))
