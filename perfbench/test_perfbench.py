"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402  (needs the sources on sys.path first)
import run  # noqa: E402
import workloads  # noqa: E402
from renforge import growth  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_end_to_end_metric_is_emitted_with_its_unit(name):
    result = bench.measure(name, 3, 0.1, trace=False, small=True)
    assert result["correct"] and result["failed"] == 0
    emitted = {key: metric["unit"] for key, metric in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_emits_every_per_layer_metric(name):
    result = bench.measure(name, 3, 0.1, trace=True, small=True)
    assert result["correct"]
    emitted = {key: metric["unit"] for key, metric in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert any(line.startswith("spans written to") for line in result["info"])


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES) == list(run.NAMES)


def test_gate_fails_on_an_altered_output(monkeypatch):
    workload = workloads.make("sweep_saturated", small=True)
    gate = bench.Gate(pin=None)
    gate.judge(bench.one_pass(workload, 3)["outcome"].units)
    assert gate.failed == 0

    original = growth.close_paths

    def nudged(network, state, group, tick):
        events = original(network, state, group, tick)
        network.synapses[group[0]].open_fraction += 1e-12
        return events

    monkeypatch.setattr(growth, "close_paths", nudged)
    gate.judge(bench.one_pass(workload, 3)["outcome"].units)
    assert gate.failed > 0


def test_wrong_pins_fail_the_run():
    pins = bench.load_pins()
    pins["workloads"] = {"stack": {"3": "0" * 64}}
    result = bench.measure("stack", 3, 0.1, trace=False, small=True, pins=pins)
    assert not result["correct"]
    assert result["failed"] >= workloads.make("stack", small=True).ops

    pins = bench.load_pins()
    pins["workloads"] = {}
    first = sorted(pins["artifacts"])[0]
    pins["artifacts"][first] = "0" * 64
    result = bench.measure("refined_drive", 3, 0.1, trace=False, small=True, pins=pins)
    assert not result["correct"] and result["failed"] == 1
    assert any(first in note for note in result["notes"])


def test_tail_keeps_ten_samples_above():
    assert bench.tail(range(1, 1001)) == (99.0, 990)
    assert bench.tail(range(1, 101)) == (90.0, 90)
    assert bench.tail(range(1, 6)) == (100.0, 5)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "stack", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
