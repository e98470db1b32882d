"""Command-line entry point for scenarios, sweeps, trees, clustering, and
the acceptance suite."""

from __future__ import annotations

import argparse
import json
import sys

from .concept_forest import ConceptForest, tokenize
from .errors import RenforgeError
from .harness import (ExperimentConfig, config_to_json, load_config, run_scenario,
                      sweep, verify)
from .harness.artifacts import read_lines, write_text
from .symbolic_cluster import ClusterNet


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renforge",
        description="Deterministic threshold-neuron simulator, concept "
                    "forests, event clustering, and resonance search.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a scripted scenario")
    run_parser.add_argument("--config", required=True, help="config JSON path")
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = sub.add_parser("sweep", help="run a convergence sweep")
    sweep_parser.add_argument("--config", required=True, help="config JSON path")
    sweep_parser.add_argument("--samples", required=True, type=int,
                              help="number of sweep samples")
    sweep_parser.set_defaults(handler=_cmd_sweep)

    trees_parser = sub.add_parser("trees", help="concept-forest operations")
    trees_sub = trees_parser.add_subparsers(dest="trees_command", required=True)
    ingest_parser = trees_sub.add_parser("ingest", help="build a forest from a corpus")
    ingest_parser.add_argument("--corpus", required=True,
                               help="text file, one sequence per line")
    ingest_parser.add_argument("--out", required=True, help="forest JSON output path")
    ingest_parser.set_defaults(handler=_cmd_trees_ingest)
    query_parser = trees_sub.add_parser("query", help="search a stored forest")
    query_parser.add_argument("--forest", required=True, help="forest JSON path")
    query_parser.add_argument("--terms", required=True,
                              help="query tokens, whitespace separated")
    query_parser.set_defaults(handler=_cmd_trees_query)

    cluster_parser = sub.add_parser("cluster", help="cluster a TSV event stream")
    cluster_parser.add_argument("--events", required=True,
                                help="TSV file: time<TAB>label,label,...")
    cluster_parser.add_argument("--fuzzy", action="store_true",
                                help="also reinforce nested sub-clusters")
    cluster_parser.add_argument("--decay", type=float, default=0.0,
                                help="weight decay for non-reinforced nodes")
    cluster_parser.add_argument("--out", required=True, help="net JSON output path")
    cluster_parser.set_defaults(handler=_cmd_cluster)

    sub.add_parser("verify", help="run the acceptance suite").set_defaults(
        handler=lambda args: verify())

    config_parser = sub.add_parser("config", help="configuration helpers")
    config_parser.add_argument("--print-defaults", action="store_true", required=True,
                               help="print the default config JSON")
    config_parser.set_defaults(handler=_cmd_config)
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    summary = run_scenario(config)
    print(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False))
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    rows = sweep(config, args.samples)
    print(f"wrote {len(rows)} samples to {config.output_dir}/sweep.csv")
    return 0


def _cmd_trees_ingest(args) -> int:
    forest = ConceptForest()
    inserted = forest.ingest_lines(read_lines(args.corpus))
    write_text(args.out, forest.to_json() + "\n")
    print(f"ingested {inserted} sequences into {len(forest.trees)} trees "
          f"({len(forest.links)} links)")
    return 0


def _cmd_trees_query(args) -> int:
    forest = ConceptForest.from_json("".join(read_lines(args.forest)))
    paths = forest.search(tokenize(args.terms))
    doc = [{"segments": [[ti, list(labels)] for ti, labels in path.segments],
            "links_crossed": path.links_crossed,
            "tokens_matched": path.tokens_matched,
            "complete": path.complete} for path in paths]
    print(json.dumps(doc, indent=2, allow_nan=False))
    return 0


def _cmd_cluster(args) -> int:
    net = ClusterNet(decay=args.decay)
    reports = net.ingest_events(read_lines(args.events), fuzzy=args.fuzzy)
    write_text(args.out, net.to_json() + "\n")
    print(f"clustered {len(reports)} events into {len(net.hidden)} hidden "
          f"nodes / {len(net.global_concepts)} global concepts")
    return 0


def _cmd_config(args) -> int:
    print(config_to_json(ExperimentConfig()), end="")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (RenforgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
