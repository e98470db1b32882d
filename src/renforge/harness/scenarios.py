"""Scripted scenarios: growth rewiring, tree splitting, event clustering,
and the three-level integration demo.

Each scenario writes its artifacts (metrics CSV, event CSV, final network
or structure JSON, summary JSON) into the configured output directory and
returns the summary.  Outputs carry no timestamps, so a given config and
seed always produce byte-identical files.

The scripted scenarios pin their own dynamics constants: the schedule
timing and the growth constants form one coherent script, recorded in the
summary.  The config's growth settings govern the sweep command instead.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from ..concept_forest import ConceptForest, tokenize
from ..errors import ConfigurationError
from ..growth import (GrowthConfig, INTERMEDIARY_CREATED, float_total,
                      run_until_balanced)
from ..resonance import report_csv_rows, report_to_json, resonate
from ..symbolic_cluster import ClusterNet
from .artifacts import write_csv, write_json_doc, write_text
from .builders import build_direct_unit, network_from_forest
from .config import ExperimentConfig

METRICS_HEADER = ["tick", "fired_count", "total_excess", "turbulence_total",
                  "intermediaries_created", "balanced_flag"]
EVENTS_HEADER = ["tick", "kind", "ids"]

# Three inputs into one over-driven target: two fire only with the group,
# the third also completes clean transmissions, so its path survives with a
# reduced fraction while the group paths close completely.
FIG2_GROWTH = GrowthConfig(bud_threshold=5.0, window=20, cofire_agreement=0.9,
                           offpattern_decay=0.5, force_per_segment=0.1)
FIG2_PERIOD = 20

FIG4_LINES = ["black cat sat mat", "black cat drank milk",
              "drank milk", "drank milk"]
FIG4_QUERY = "black cat drank milk"

FIG3_EVENTS = [("c0", "c1", "c2"), ("c1", "c2", "c3"), ("c2", "c3", "c4")]


def run_fig2_growth(config: ExperimentConfig, outdir: Path) -> dict:
    net, inputs, main = build_direct_unit(3, 1.0)
    original_synapses = [s.id for s in net.incoming(main)]
    independent = inputs[2]
    group = set(inputs)

    def schedule(tick):
        phase = tick % FIG2_PERIOD
        if phase == 0:
            return {independent}
        if phase % 2 == 0:
            return group
        return frozenset()

    metrics_rows = []
    events_rows = []
    created = 0

    def on_tick(record, state, events, balanced):
        nonlocal created
        created += sum(1 for e in events if e.kind == INTERMEDIARY_CREATED)
        metrics_rows.append([record.tick, len(record.fired),
                             float_total(record.rejections.values()),
                             state.total_turbulence(), created, int(balanced)])
        for event in events:
            events_rows.append([event.tick, event.kind,
                                ";".join(str(i) for i in event.affected)])

    report = run_until_balanced(net, schedule, FIG2_GROWTH, config.max_ticks,
                                on_tick=on_tick)
    write_csv(outdir / "metrics.csv", METRICS_HEADER, metrics_rows)
    write_csv(outdir / "events.csv", EVENTS_HEADER, events_rows)
    write_text(outdir / "network.json", net.to_json() + "\n")
    return {
        # Kept so the summary's bytes hold: an intermediary demands its whole group.
        "growth": {**dataclasses.asdict(FIG2_GROWTH), "threshold_policy": "all"},
        "main_neuron": main,
        "independent_input": independent,
        "original_paths": [{"synapse": sid, "source": net.synapses[sid].pre,
                            "open_fraction": net.synapses[sid].open_fraction}
                           for sid in original_synapses],
        "balanced": report.ticks_to_balance is not None,
        **report.to_doc(),
    }


def run_fig4_trees(config: ExperimentConfig, outdir: Path) -> dict:
    forest = ConceptForest()
    forest.ingest_lines(FIG4_LINES)
    write_text(outdir / "forest.json", forest.to_json() + "\n")
    paths = forest.search(tokenize(FIG4_QUERY))
    return {
        "corpus": FIG4_LINES,
        "trees": len(forest.trees),
        "links": [{"from": link.from_node.label, "to": link.to_root.label,
                   "label": link.label} for link in forest.links],
        "count_rule_valid": forest.count_rule_holds(),
        "query": FIG4_QUERY,
        "query_paths": [{"segments": [[ti, list(labels)]
                                      for ti, labels in path.segments],
                         "links_crossed": path.links_crossed,
                         "complete": path.complete} for path in paths],
    }


def run_fig3_cluster(config: ExperimentConfig, outdir: Path) -> dict:
    net = ClusterNet()
    for event in FIG3_EVENTS:
        net.present_event(event)
    write_text(outdir / "cluster.json", net.to_json() + "\n")
    retrieval = [[sorted(inputs), weight] for inputs, weight in net.retrieve(0)]
    return {
        "events": [sorted(e) for e in FIG3_EVENTS],
        "hidden_nodes": len(net.hidden),
        "global_concepts": len(net.global_concepts),
        "retrieve_gc0": retrieval,
    }


def run_fig6_stack(config: ExperimentConfig, outdir: Path) -> dict:
    """Three-level composition: corpus -> trees, tree labels -> cluster
    events, tree graph -> resonance search from the bases."""
    forest = ConceptForest()
    forest.ingest_lines(FIG4_LINES)
    write_text(outdir / "forest.json", forest.to_json() + "\n")

    cluster = ClusterNet()
    for line in FIG4_LINES:
        cluster.present_event(tokenize(line))
    write_text(outdir / "cluster.json", cluster.to_json() + "\n")

    net, labels, roots = network_from_forest(forest)
    write_text(outdir / "network.json", net.to_json() + "\n")
    report = resonate(net, roots)
    write_text(outdir / "resonance.json", report_to_json(report) + "\n")
    rows = report_csv_rows(report)
    write_csv(outdir / "resonance.csv", rows[0], rows[1:])

    retrieval = [[sorted(inputs), weight] for inputs, weight in cluster.retrieve(0)]
    return {
        "corpus": FIG4_LINES,
        "trees": len(forest.trees),
        "cluster_globals": len(cluster.global_concepts),
        "retrieve_gc0": retrieval,
        "seeds": [labels[nid] for nid in roots],
        "terminals_hit": sorted(labels[nid] for nid in report.terminals_hit),
        "recognized_edges": len(report.recognized_path),
        "completed": True,
    }


SCENARIOS = {
    "fig2_growth": run_fig2_growth,
    "fig4_trees": run_fig4_trees,
    "fig3_cluster": run_fig3_cluster,
    "fig6_stack": run_fig6_stack,
}


def run_scenario(config: ExperimentConfig) -> dict:
    """Execute a registered scenario and write its artifacts to disk; the
    summary gains the config's scenario name and seed."""
    runner = SCENARIOS.get(config.scenario)
    if runner is None:
        raise ConfigurationError(
            f"unknown scenario {config.scenario!r}; "
            f"registered: {sorted(SCENARIOS)}")
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {"scenario": config.scenario, "seed": config.seed,
               **runner(config, outdir)}
    write_json_doc(outdir / "summary.json", summary)
    return summary
