"""Built-in acceptance suite: exact-value and property checks at desk scale.

Every criterion is deterministic; A5, A6 and A8 read the summaries of the
scenarios that ship.  ``verify`` prints one pass/fail line per criterion and
the tally, and returns nonzero on any failure.  Two runs print the same.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import tempfile
from pathlib import Path

from ..core_net import Network
from ..feedback import average_excess, resistance_profile
from ..growth import run_until_balanced
from ..refined import RefinedSpec, expand_weighted, min_firing_set_size
from ..symbolic_cluster import ClusterNet
from .builders import build_direct_unit
from .config import ExperimentConfig
from .scenarios import FIG3_EVENTS, SCENARIOS, run_scenario
from .sweeps import ALL_FIRING_GROWTH, sweep


def _scenario(name: str, **settings) -> dict:
    """The summary of scenario ``name`` at seed 0, its artifacts written to
    a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        return run_scenario(ExperimentConfig(seed=0, scenario=name,
                                             output_dir=tmp, **settings))


def _a1_refined_minimum() -> tuple[bool, str]:
    """Closed-form minimum firing set equals exhaustive enumeration."""
    spec = RefinedSpec(input_count=25, group_size=5, group_threshold=4,
                       main_threshold=4)
    computed = min_firing_set_size(spec)
    best = None
    for counts in itertools.product(range(6), repeat=5):
        if sum(1 for c in counts if c >= 4) >= 4:
            total = sum(counts)
            if best is None or total < best:
                best = total
    passed = computed == 16 and best == 16
    return passed, f"formula={computed} enumeration={best} expected=16"


def _a2_excess_values() -> tuple[bool, str]:
    """Worked per-input excess values are exact."""
    first = average_excess(10, 5, 10)
    second = average_excess(50, 5, 50)
    passed = abs(first - 0.5) <= 1e-12 and abs(second - 0.9) <= 1e-12
    return passed, f"(10,5,10)->{first} (50,5,50)->{second}"


def _a3_resistance_profile() -> tuple[bool, str]:
    profile = resistance_profile(5, 10)
    expected = [5, 10, 15, 20, 25, 30, 35, 40, 45, 50]
    return profile == expected, f"profile={profile}"


def _a4_weighted_expansion() -> tuple[bool, str]:
    """Expanded multiplicity edges fire exactly like weighted units."""
    rng = random.Random(0xA4)
    mismatches = 0
    patterns_checked = 0
    for _ in range(200):
        n = rng.randint(1, 12)
        weights = [rng.randint(1, 4) for _ in range(n)]
        threshold = rng.randint(1, sum(weights))
        net = Network()
        inputs = [net.add_neuron(1.0) for _ in range(n)]
        main = net.add_neuron(float(threshold))
        for nid, weight in zip(inputs, weights):
            expand_weighted(net, nid, main, weight)
        for mask in range(1 << n):
            net.reset_dynamics()
            driven = [inputs[i] for i in range(n) if mask >> i & 1]
            record = net.step(driven)
            weighted_sum = sum(weights[i] for i in range(n) if mask >> i & 1)
            if (main in record.fired) != (weighted_sum >= threshold):
                mismatches += 1
            patterns_checked += 1
    return mismatches == 0, f"networks=200 patterns={patterns_checked} mismatches={mismatches}"


def _a5_tree_split() -> tuple[bool, str]:
    """The scripted corpus splits into two linked trees and stays searchable."""
    summary = _scenario("fig4_trees")
    links, count_rule = summary["links"], summary["count_rule_valid"]
    paths = [p for p in summary["query_paths"] if p["complete"]]
    crossing = any(p["links_crossed"] == 1 for p in paths)
    passed = (summary["trees"] == 2
              and links == [{"from": "cat", "to": "drank", "label": "M"}]
              and count_rule and len(paths) == 1 and crossing)
    return passed, (f"trees={summary['trees']} links={len(links)} count_rule={count_rule} "
                    f"complete_paths={len(paths)} crossing={crossing}")


def _a6_growth_rewiring() -> tuple[bool, str]:
    """The scripted rewiring closes group paths, reduces the independent one,
    and reaches balance."""
    summary = _scenario("fig2_growth", max_ticks=200)
    fractions = sorted(p["open_fraction"] for p in summary["original_paths"])
    closed = sum(1 for f in fractions if f == 0.0)
    reduced = sum(1 for f in fractions if 0.0 < f < 1.0)
    independent_fraction = next(
        p["open_fraction"] for p in summary["original_paths"]
        if p["source"] == summary["independent_input"])
    ticks = summary["ticks_to_balance"]
    passed = (summary["intermediaries_created"] >= 1
              and closed == 2 and reduced == 1
              and 0.0 < independent_fraction < 1.0
              and ticks is not None and ticks <= 200)
    return passed, (f"intermediaries={summary['intermediaries_created']} "
                    f"closed={closed} reduced={reduced} ticks_to_balance={ticks}")


def _a7_fuzzy_feedback() -> tuple[bool, str]:
    """A pre-existing hidden node is reinforced iff its inputs are contained
    in the fuzzy-presented event set."""
    rng = random.Random(0xA7)
    pool = [f"f{i}" for i in range(8)]
    counterexamples = 0
    checks = 0
    for _ in range(1000):
        net = ClusterNet()
        for _ in range(rng.randint(0, 5)):
            size = rng.randint(1, 4)
            net.present_event(rng.sample(pool, size))
        before = {hid: node.weight for hid, node in net.hidden.items()}
        event = frozenset(rng.sample(pool, rng.randint(1, 5)))
        net.present_event(event, fuzzy=True)
        for hid, old_weight in before.items():
            reinforced = net.hidden[hid].weight > old_weight
            expected = net.hidden[hid].inputs <= event
            if reinforced != expected:
                counterexamples += 1
            checks += 1
    return counterexamples == 0, (f"pairs=1000 node_checks={checks} "
                                  f"counterexamples={counterexamples}")


def _a8_retrieval() -> tuple[bool, str]:
    """Reverse retrieval returns the scripted feature sets, weight-ordered."""
    summary = _scenario("fig3_cluster")
    retrieved = summary["retrieve_gc0"]
    expected = [[sorted(event), 1.0] for event in FIG3_EVENTS]
    passed = retrieved == expected and summary["global_concepts"] == 1
    sets = [inputs for inputs, _ in retrieved]
    return passed, f"globals={summary['global_concepts']} retrieved={sets}"


def _a9_convergence() -> tuple[bool, str]:
    """All-firing direct units balance within budget with reduced excess."""
    details = []
    passed = True
    for n_inputs in (10, 25, 50):
        net, inputs, _main = build_direct_unit(n_inputs, 5.0)
        report = run_until_balanced(net, frozenset(inputs), ALL_FIRING_GROWTH,
                                    max_ticks=500)
        ok = (report.ticks_to_balance is not None
              and report.final_max_excess < report.initial_max_excess)
        passed = passed and ok
        details.append(f"N={n_inputs}:ticks={report.ticks_to_balance}"
                       f",excess={report.initial_max_excess:.3f}"
                       f"->{report.final_max_excess:.3f}")
    return passed, " ".join(details)


def _artifact_pass(seed: int, outdir: Path) -> None:
    for name in sorted(SCENARIOS):
        run_scenario(ExperimentConfig(seed=seed, scenario=name,
                                      output_dir=str(outdir / name)))
    sweep_config = ExperimentConfig(seed=seed, scenario="fig2_growth",
                                    growth=ALL_FIRING_GROWTH,
                                    output_dir=str(outdir / "sweep"))
    sweep(sweep_config, 3)


def _hash_tree(root: Path) -> dict[str, str]:
    hashes = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            hashes[str(path.relative_to(root))] = digest
    return hashes


def _a10_determinism() -> tuple[bool, str]:
    """Two full scenario-plus-sweep passes with one seed are byte-identical."""
    with tempfile.TemporaryDirectory() as first, \
            tempfile.TemporaryDirectory() as second:
        _artifact_pass(7, Path(first))
        _artifact_pass(7, Path(second))
        hashes_a = _hash_tree(Path(first))
        hashes_b = _hash_tree(Path(second))
    aggregate = hashlib.sha256(
        "".join(f"{name}:{digest}" for name, digest in sorted(hashes_a.items()))
        .encode("utf-8")).hexdigest()
    passed = hashes_a == hashes_b and len(hashes_a) > 0
    return passed, f"files={len(hashes_a)} identical={hashes_a == hashes_b} sha={aggregate[:12]}"


CRITERIA = [
    ("A1", "refined-unit minimum firing set", _a1_refined_minimum),
    ("A2", "per-input excess worked values", _a2_excess_values),
    ("A3", "backward resistance profile", _a3_resistance_profile),
    ("A4", "weighted-expansion firing equivalence", _a4_weighted_expansion),
    ("A5", "tree split, link, and cross-tree search", _a5_tree_split),
    ("A6", "scripted growth rewiring and balance", _a6_growth_rewiring),
    ("A7", "fuzzy regional reinforcement soundness", _a7_fuzzy_feedback),
    ("A8", "global-concept reverse retrieval", _a8_retrieval),
    ("A9", "convergence sweep sanity", _a9_convergence),
    ("A10", "full-run determinism", _a10_determinism),
]


def verify() -> int:
    """Print one pass/fail line per criterion and the tally; returns 0 when
    every criterion passes."""
    passed = 0
    for criterion, description, check in CRITERIA:
        ok, detail = check()
        passed += ok
        print(f"{criterion:<4} {'PASS' if ok else 'FAIL':<4} {description}: {detail}")
    print(f"result: {passed}/{len(CRITERIA)} criteria passed")
    return 0 if passed == len(CRITERIA) else 1
