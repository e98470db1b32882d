"""Golden artifacts and pinned output digests.

The seed-7 artifact pass (all registered scenarios plus a 3-sample
all-firing sweep) is the one the acceptance suite's determinism criterion
runs twice.  Here each file's SHA-256 is compared with a pin recorded
before any refactor, so the pins hold one version to another's outputs.
The pass is written out here rather than taken from the acceptance
module's private helpers, so that a change there cannot move what the pins
cover.  ``pins.json`` also holds, per workload, the digest of a pass at
benchmark size for the default seed and for one held-out seed.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from renforge.harness import ExperimentConfig, SCENARIOS, run_scenario, sweep
from renforge.harness.sweeps import ALL_FIRING_GROWTH

PINS_PATH = Path(__file__).with_name("pins.json")
ARTIFACT_SEED = 7


def load_pins() -> dict:
    with open(PINS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def artifact_hashes(scratch: Path) -> dict[str, str]:
    """SHA-256 of every file the seed-7 artifact pass writes, by relative path."""
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        root = Path(tmp)
        for name in sorted(SCENARIOS):
            run_scenario(ExperimentConfig(seed=ARTIFACT_SEED, scenario=name,
                                          output_dir=str(root / name)))
        sweep(ExperimentConfig(seed=ARTIFACT_SEED, scenario="fig2_growth",
                               growth=ALL_FIRING_GROWTH,
                               output_dir=str(root / "sweep")), 3)
        return {path.relative_to(root).as_posix():
                hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(root.rglob("*")) if path.is_file()}


def artifact_mismatches(hashes: dict[str, str], pinned: dict[str, str]) -> list[str]:
    """Paths whose digest differs from its pin, or that only one side has."""
    return sorted(path for path in set(hashes) | set(pinned)
                  if hashes.get(path) != pinned.get(path))
