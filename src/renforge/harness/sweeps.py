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


def _sample_schedule(probability: float, input_ids, sample_seed: int):
    if probability == 1.0:   # every draw would pass: the drive is the constant set
        return frozenset(input_ids)
    draw = random.Random(sample_seed).random   # over build_direct_unit's ascending ids
    return lambda tick: frozenset(nid for nid in input_ids if draw() < probability)


def sweep(config: ExperimentConfig, n_samples: int) -> list[dict]:
    """Run ``n_samples`` convergence experiments and write sweep.csv.

    A sample that never balances reports ticks_to_balance -1; that is an
    outcome, not an error.  Rows are ordered by sample index.
    """
    check_int(n_samples, "n_samples", InvalidParameterError, 1)
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    master = random.Random(config.seed)
    results = []
    for index in range(n_samples):
        sample_seed = master.randrange(2 ** 63)
        n_inputs = config.sweep_inputs[index % len(config.sweep_inputs)]
        threshold = config.sweep_thresholds[index % len(config.sweep_thresholds)]
        net, inputs, _main = build_direct_unit(n_inputs, threshold)
        schedule = _sample_schedule(config.schedule_probability, inputs, sample_seed)
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
    write_csv(outdir / "sweep.csv", SWEEP_HEADER,
               [[row[key] for key in SWEEP_HEADER] for row in results])
    return results
