"""Golden hashes: the seed-7 artifact pass matches the pinned digests.

The acceptance suite's determinism criterion only shows that one version
agrees with itself.  The pins in ``perfbench/pins.json`` were recorded
before any refactor, so matching them shows that a change left every
scenario and sweep artifact byte-identical across versions.
"""

import hashlib
import json
from pathlib import Path

from renforge.harness import ALL_FIRING_GROWTH, ExperimentConfig, SCENARIOS, run_scenario, sweep

PINS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "pins.json"


def test_seed7_artifacts_match_golden_pins(tmp_path):
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    seed = pins["artifact_seed"]
    for name in sorted(SCENARIOS):
        run_scenario(ExperimentConfig(seed=seed, scenario=name,
                                      output_dir=str(tmp_path / name)))
    sweep(ExperimentConfig(seed=seed, scenario="fig2_growth", growth=ALL_FIRING_GROWTH,
                           output_dir=str(tmp_path / "sweep")), 3)
    hashes = {path.relative_to(tmp_path).as_posix():
              hashlib.sha256(path.read_bytes()).hexdigest()
              for path in sorted(tmp_path.rglob("*")) if path.is_file()}
    assert hashes == pins["artifacts"]
