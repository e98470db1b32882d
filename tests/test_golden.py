"""Golden hashes: the seed-7 artifact pass matches the pinned digests.

The acceptance suite's determinism criterion only shows that one version
agrees with itself.  The pins in ``perfbench/pins.json`` were recorded
before any refactor, so matching them shows that a change left every
scenario and sweep artifact byte-identical across versions.
"""

import hashlib
import json
from pathlib import Path

import pytest

from renforge import ClusterNet, ConceptForest, Network
from renforge.harness import ALL_FIRING_GROWTH, ExperimentConfig, SCENARIOS, run_scenario, sweep

PINS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "pins.json"
PINS = json.loads(PINS_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The directory the seed-7 artifact pass wrote into."""
    root = tmp_path_factory.mktemp("artifacts")
    seed = PINS["artifact_seed"]
    for name in sorted(SCENARIOS):
        run_scenario(ExperimentConfig(seed=seed, scenario=name,
                                      output_dir=str(root / name)))
    sweep(ExperimentConfig(seed=seed, scenario="fig2_growth", growth=ALL_FIRING_GROWTH,
                           output_dir=str(root / "sweep")), 3)
    return root


def test_seed7_artifacts_match_golden_pins(artifacts):
    hashes = {path.relative_to(artifacts).as_posix():
              hashlib.sha256(path.read_bytes()).hexdigest()
              for path in sorted(artifacts.rglob("*")) if path.is_file()}
    assert hashes == PINS["artifacts"]


@pytest.mark.parametrize("name, kind", [
    ("fig2_growth/network.json", Network), ("fig3_cluster/cluster.json", ClusterNet),
    ("fig4_trees/forest.json", ConceptForest), ("fig6_stack/cluster.json", ClusterNet),
    ("fig6_stack/forest.json", ConceptForest), ("fig6_stack/network.json", Network),
])
def test_golden_structures_load_and_write_back(artifacts, name, kind):
    text = (artifacts / name).read_text(encoding="utf-8")
    assert kind.from_json(text).to_json() + "\n" == text
