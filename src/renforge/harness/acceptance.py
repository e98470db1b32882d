"""Built-in acceptance suite: exact-value and property checks at desk scale.

Every criterion is self-contained and deterministic; ``verify`` runs them
all, prints one pass/fail line each, and reports a nonzero exit status on
any failure.  Two runs produce identical reports.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path

from ..concept_forest import ConceptForest, tokenize
from ..core_net import Network
from ..feedback import average_excess, resistance_profile
from ..growth import run_until_balanced
from ..refined import RefinedSpec, expand_weighted, min_firing_set_size
from ..symbolic_cluster import ClusterNet
from .builders import build_direct_unit
from .config import ExperimentConfig
from .scenarios import FIG3_EVENTS, FIG4_LINES, FIG4_QUERY, SCENARIOS, run_scenario
from .sweeps import ALL_FIRING_GROWTH, sweep


@dataclass(frozen=True)
class CriterionResult:
    criterion: str
    description: str
    passed: bool
    detail: str


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
    forest = ConceptForest()
    for line in FIG4_LINES:
        forest.insert_sequence(tokenize(line))
    link_ok = (len(forest.links) == 1
               and forest.links[0].from_node.label == "cat"
               and forest.links[0].to_root.label == "drank"
               and forest.links[0].label == "M")
    paths = [p for p in forest.search(tokenize(FIG4_QUERY)) if p.complete]
    crossing = any(p.links_crossed == 1 for p in paths)
    passed = (len(forest.trees) == 2 and link_ok
              and forest.count_rule_holds() and len(paths) == 1 and crossing)
    return passed, (f"trees={len(forest.trees)} links={len(forest.links)} "
                    f"count_rule={forest.count_rule_holds()} "
                    f"complete_paths={len(paths)} crossing={crossing}")


def _a6_growth_rewiring() -> tuple[bool, str]:
    """The scripted rewiring closes group paths, reduces the independent one,
    and reaches balance."""
    with tempfile.TemporaryDirectory() as tmp:
        config = ExperimentConfig(seed=0, scenario="fig2_growth",
                                  output_dir=tmp, max_ticks=200)
        summary = run_scenario(config)
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
                    f"closed={closed} reduced={reduced} "
                    f"ticks_to_balance={ticks}")


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
    net = ClusterNet()
    for event in FIG3_EVENTS:
        net.present_event(event)
    retrieved = net.retrieve(0)
    expected = [(frozenset(event), 1.0) for event in FIG3_EVENTS]
    passed = retrieved == expected and len(net.global_concepts) == 1
    sets = [sorted(inputs) for inputs, _ in retrieved]
    return passed, f"globals={len(net.global_concepts)} retrieved={sets}"


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


def run_acceptance() -> list[CriterionResult]:
    results = []
    for criterion, description, check in CRITERIA:
        passed, detail = check()
        results.append(CriterionResult(criterion, description, passed, detail))
    return results


def render_report(results) -> str:
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"{result.criterion:<4} {status:<4} "
                     f"{result.description}: {result.detail}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"result: {passed}/{len(results)} criteria passed")
    return "\n".join(lines)


def verify() -> int:
    """Print the acceptance report; returns 0 when every criterion passes."""
    results = run_acceptance()
    print(render_report(results))
    return 0 if all(r.passed for r in results) else 1
