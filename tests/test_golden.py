"""Golden hashes: the seed-7 artifact pass matches the pinned digests.

The acceptance suite's determinism criterion only shows that one version
agrees with itself.  The pins in ``perfbench/pins.json`` were recorded
before any refactor, so matching them shows that a change left every
scenario and sweep artifact byte-identical across versions.  Those cover
the growth windows of 8 ticks and fig2's 20; the run pins below, recorded
the same way, cover windows of 1, 3 and 256 ticks.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from renforge import ClusterNet, ConceptForest, GrowthConfig, Network, run_until_balanced
from renforge.harness import (ALL_FIRING_GROWTH, ExperimentConfig, SCENARIOS, build_direct_unit,
                              run_scenario, sweep)

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


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("window, probability, pins", [
    (1, 0.9, ("43052c3797521229", "58a5138f8ab2b279", "881adf6223285e29")),
    (3, 0.6, ("d964cedfc68395b5", "8d574eb25a1f1d88", "478ff8d586ecb148")),
    (256, 0.6, ("0a512466b4251699", "ab8851e1ce0563e5", "07f8e62ef5a98714")),
])
def test_random_drive_runs_match_golden_pins(window, probability, pins):
    # Each input fires with ``probability`` on each tick; a low bud
    # threshold makes buds join and paths close or reduce in every run.
    net, inputs, _ = build_direct_unit(30, 4.0)
    draw = random.Random(1).random
    report = run_until_balanced(
        net, lambda tick: frozenset(i for i in inputs if draw() < probability),
        GrowthConfig(bud_threshold=0.5, window=window), 280)
    events = [[e.kind, e.tick, list(e.affected)] for e in report.events]
    assert (_digest(json.dumps(report.to_doc(), sort_keys=True)), _digest(json.dumps(events)),
            _digest(net.to_json())) == pins
