"""Golden hashes of the narrative demos' output.

Each demo prints a deterministic story; the pins below are the SHA-256 of
its stdout, recorded before the memoized network views landed.  A change
that alters a demo's output on purpose must re-pin it here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PINS = {
    "01_threshold_units.py":
        "0555be2ba537eb4f5b56e3096a2a6c9f187b581c8145150823420bde139824b8",
    "02_excess_feedback.py":
        "2c4f93c9c883336d612eae7f58efbdbe7426afb51bd5e39031fd05737ba4990a",
    "03_growth_rewiring.py":
        "e96284d3feea70ffe2b79ba1934e5bac999c942d75b9ebc7d47f0f8c7bf228d8",
    "04_concept_trees.py":
        "8761608e536d0084e716cbaf62d2f3bc3648f140f64d0143cbd7061b85858eae",
    "05_event_clustering.py":
        "b955098cf80b306b5cc6ebb7ada560bc09d37403811bed1ff3a5943eabc716ba",
    "06_resonance_search.py":
        "b18cdfaf05e882a79a77a6103edf08e372d1f6bc1c2ca9f0f4b177d1012d4131",
    "07_full_stack.py":
        "3dd987a81131964b575e357ceba88df7a1bd5d38da64537b8c045c168d8c27f7",
}


def test_every_demo_is_pinned():
    assert sorted(PINS) == sorted(path.name for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(PINS))
def test_demo_stdout_matches_pin(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                          env=env, capture_output=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == PINS[name]
