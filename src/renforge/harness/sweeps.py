"""Randomized convergence sweeps over firing configurations.

Each sample builds a direct unit from the configured input-count and
threshold choice lists (round-robin), runs the growth engine until
balanced, and lands as one CSV row.  Everything derives from the master
seed, so two sweeps with the same seed produce identical files.
"""

from __future__ import annotations

import random
from pathlib import Path

from ..errors import InvalidParameterError, check_int
from ..growth import GrowthConfig, run_until_balanced
from .artifacts import write_csv
from .builders import build_direct_unit
from .config import ExperimentConfig

SWEEP_HEADER = ["sample", "sample_seed", "n_inputs", "threshold",
                "initial_excess", "ticks_to_balance", "intermediaries"]

# Constants tuned for saturating all-firing drives: with the target
# refractory every other tick, accumulators follow gain-then-decay cycles,
# so the bud threshold must sit below the cycle's fixed point in both the
# first and the post-rewire growth phase.
ALL_FIRING_GROWTH = GrowthConfig(bud_threshold=2.5, offpattern_decay=0.95)


def _sample_schedule(config: ExperimentConfig, input_ids, sample_seed: int):
    if config.schedule == "all_firing":
        ids = frozenset(input_ids)
        return lambda tick: ids
    rng = random.Random(sample_seed)
    probability = config.schedule_probability
    ordered = sorted(input_ids)

    def random_subset(tick):
        return frozenset(nid for nid in ordered if rng.random() < probability)

    return random_subset


def sweep(config: ExperimentConfig, n_samples: int) -> list[dict]:
    """Run ``n_samples`` convergence experiments and write sweep.csv.

    A sample that never balances reports ticks_to_balance -1; that is an
    outcome, not an error.  Rows are ordered by sample index.
    """
    check_int(n_samples, "n_samples", InvalidParameterError, 1)
    master = random.Random(config.seed)
    results = []
    for index in range(n_samples):
        sample_seed = master.randrange(2 ** 63)
        n_inputs = config.sweep_inputs[index % len(config.sweep_inputs)]
        threshold = config.sweep_thresholds[index % len(config.sweep_thresholds)]
        net, inputs, _main = build_direct_unit(n_inputs, threshold)
        schedule = _sample_schedule(config, inputs, sample_seed)
        report = run_until_balanced(net, schedule, config.growth,
                                    config.max_ticks)
        results.append({
            "sample": index,
            "sample_seed": sample_seed,
            "n_inputs": n_inputs,
            "threshold": threshold,
            "initial_excess": report.initial_max_excess,
            "ticks_to_balance": (-1 if report.ticks_to_balance is None
                                 else report.ticks_to_balance),
            "intermediaries": report.intermediaries_created,
        })
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / "sweep.csv", SWEEP_HEADER,
               [[row[key] for key in SWEEP_HEADER] for row in results])
    return results
