"""Measurement loop, output gate and metric reduction for one workload run.

Importing this module needs the renforge sources on ``sys.path``; ``run.py``
puts them there.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import traceback
from pathlib import Path
from time import perf_counter

import spans
import workloads
from golden import artifact_hashes, artifact_mismatches, load_pins

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
MIN_PASSES = 2
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)

UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "ok_share": "share",
         "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}
LAYER_UNITS = {"s": "s", "calls": "count", "ratio": "ratio", "exp": "exponent"}


def tail(samples) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples ranked above it, by nearest rank; the maximum when none has."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def one_pass(workload, seed: int, tracer=None) -> dict:
    """Set up and run one pass.

    Returns set-up and run time rescaled by the clock (``setup_s``,
    ``run_s``) and in wall seconds (``wall_s``, both together), the
    latency laps and the checked outcome.
    """
    gc.collect()
    clock = workloads.Clock()
    if tracer is not None:
        tracer.install(clock)
    try:
        clock.start()
        state = workload.setup(seed)
        setup_s = clock.mark()
        outputs = workload.run(state, clock)
        run_s = clock.mark() - setup_s
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"setup_s": setup_s, "run_s": run_s, "wall_s": clock.raw_s,
            "laps": clock.laps_ms, "outcome": workload.check(state, outputs)}


class Gate:
    """Counts operations attempted and failed against the reference digests.

    The reference is the pinned pass digest when the seed has one, and the
    first pass's per-operation digests in any case.
    """

    def __init__(self, pin: str | None):
        self.pin = pin
        self.reference: list[tuple[str, int]] | None = None
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def judge(self, units: list[tuple[str, int]]) -> None:
        ops = sum(n for _d, n in units)
        self.attempted += ops
        digest = workloads.sha("".join(d for d, _n in units))
        if self.pin is not None and digest != self.pin:
            self.failed += ops
            self.notes.append(f"pass digest {digest} differs from pin {self.pin}")
        elif self.reference is None:
            self.reference = units
        elif len(units) != len(self.reference):
            self.failed += ops
            self.notes.append("pass produced a different number of outputs")
        else:
            bad = sum(n for (d, n), (r, _m) in zip(units, self.reference) if d != r)
            if bad:
                self.failed += bad
                self.notes.append(f"{bad} operations differ from the first pass")

    def crash(self, ops: int) -> None:
        self.attempted += ops
        self.failed += ops
        self.notes.append("raised:\n" + traceback.format_exc())


def measure(name: str, seed: int, seconds: float, trace: bool,
            small: bool = False, pins: dict | None = None) -> dict:
    """Run one workload for about ``seconds`` and return the result document.

    ``small`` selects test sizes.  ``pins`` holds pass digests by workload
    and seed, and the golden artifact hashes; without it neither is checked.
    """
    workload = workloads.make(name, small)
    pin = None if pins is None else pins["workloads"].get(name, {}).get(str(seed))
    gate = Gate(pin)
    tracer = spans.Tracer() if trace else None
    plain, traced = [], []
    started = perf_counter()
    while not gate.failed:
        count = len(plain) + len(traced)
        elapsed = perf_counter() - started
        if (count >= MIN_PASSES and elapsed * (count + 1) / count > seconds
                and plain and (traced or not trace)):
            break
        use_tracer = tracer if trace and count % 2 == 1 else None
        try:
            row = one_pass(workload, seed, use_tracer)
        except Exception:  # a raising pass is a failed result, not a benchmark crash
            gate.crash(workload.ops)
            break
        gate.judge(row["outcome"].units)
        if use_tracer is None:
            plain.append(row)
        else:
            # Self times are wall seconds; put them on the pass's rescaled footing.
            scale = (row["setup_s"] + row["run_s"]) / row["wall_s"]
            row["layers"] = spans.pass_layers(tracer, row["outcome"].facts, scale)
            row["self"] = tracer.self_times()
            row["fingerprint"] = (tracer.durations("resonance.network_fingerprint"),
                                  tracer.durations("resonance.resonate"))
            row["spans"] = list(tracer.spans)
            traced.append(row)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if pins is not None:
        SCRATCH.mkdir(exist_ok=True)
        try:
            mismatched = artifact_mismatches(artifact_hashes(SCRATCH), pins["artifacts"])
        except Exception:  # same policy as a raising pass
            gate.crash(1)
        else:
            gate.attempted += len(pins["artifacts"])
            gate.failed += len(mismatched)
            gate.notes += [f"golden artifact differs: {path}" for path in mismatched]

    info = [f"workload {name} seed {seed}: {len(plain)} untraced and "
            f"{len(traced)} traced passes in {perf_counter() - started:.1f} s"]
    if not plain:
        metrics = {}
    elif trace:
        metrics = layer_metrics(plain, traced, info)
        info.append(f"spans written to {write_spans(name, seed, traced)}")
    else:
        metrics = end_to_end(plain, gate, peak_rss_mb, info)
    ok = gate.failed == 0 and bool(plain)
    return {"correct": ok, "attempted": max(gate.attempted, 1),
            "failed": gate.failed if plain else max(gate.failed, 1),
            "metrics": metrics, "info": info, "notes": gate.notes}


def write_spans(name: str, seed: int, traced) -> Path:
    SCRATCH.mkdir(exist_ok=True)
    path = SCRATCH / f"spans-{name}-seed{seed}.jsonl"
    fields = ("name", "start", "end", "parent", "op")
    with open(path, "w", encoding="utf-8") as handle:
        for index, row in enumerate(traced):
            for span in row["spans"]:
                handle.write(json.dumps({"pass": index, **dict(zip(fields, span))}) + "\n")
    return path.relative_to(ROOT)


def end_to_end(plain, gate: Gate, peak_rss_mb: float, info: list[str]) -> dict:
    """Medians over passes; latencies are first reduced per operation.

    Every pass repeats the same operations on the same inputs, so each
    operation's latency is taken as its median over the passes before the
    percentiles over operations are read; a burst of interference in one
    pass then does not reach the tail.
    """
    med = statistics.median
    per_op = [med(times) for times in zip(*(row["laps"] for row in plain))]
    percentile, tail_ms = tail(per_op)
    count = len(per_op)
    info.append(f"wall seconds per pass (set-up and run), median: "
                f"{med(row['wall_s'] for row in plain):.4f}")
    info.append(f"op_tail_ms is p{percentile:g} of {count} operations "
                f"({count - math.ceil(percentile / 100 * count)} ranked above it), "
                f"each the median of {len(plain)} passes")
    values = {
        "setup_s": med(row["setup_s"] for row in plain),
        "run_s": med(row["run_s"] for row in plain),
        "peak_rss_mb": peak_rss_mb,
        "ok_share": (gate.attempted - gate.failed) / max(gate.attempted, 1),
        "ops_per_s": med(row["outcome"].writes / row["outcome"].write_s for row in plain),
        "op_p50_ms": med(per_op),
        "op_tail_ms": tail_ms,
    }
    return {key: {"value": value, "unit": UNITS[key]} for key, value in values.items()}


def layer_metrics(plain, traced, info: list[str]) -> dict:
    """Medians of the traced passes' layer metrics, exponents fitted on the
    untraced passes, and the tracing overhead between the two."""
    med = statistics.median
    values = {key: med(row["layers"][key] for row in traced)
              for key in traced[0]["layers"]}

    def fitted(fact: str) -> float:
        by_size: dict[int, list[float]] = {}
        for row in plain:
            for size, secs in row["outcome"].facts.get(fact, ()):
                by_size.setdefault(size, []).append(secs)
        return spans.loglog_slope((size, med(times)) for size, times in by_size.items())

    values["growth.scaling_exp"] = fitted("sample_s")
    values["concept_forest.scaling_exp"] = fitted("lines_at")
    values["symbolic_cluster.scaling_exp"] = fitted("events_at")
    values["trace.overhead_s"] = (med(row["run_s"] for row in traced)
                                  - med(row["run_s"] for row in plain))

    shares: dict[str, list[float]] = {}
    for row in traced:
        wall = row["wall_s"]
        by_layer: dict[str, float] = {}
        for span_name, secs in row["self"].items():
            if span_name == spans.CALIBRATION:
                continue  # kernel time is outside wall_s as well
            layer = span_name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + secs
        by_layer["benchmark"] = wall - sum(by_layer.values())
        for layer, secs in by_layer.items():
            shares.setdefault(layer, []).append(secs / wall)
    ranked = sorted(((med(v), k) for k, v in shares.items()), reverse=True)
    info.append("self-time share of a traced pass: "
                + ", ".join(f"{layer} {share:.3f}" for share, layer in ranked if share >= 0.0005))
    fingerprint = [part / whole for part, whole in (row["fingerprint"] for row in traced) if whole]
    if fingerprint:
        info.append(f"network_fingerprint share of resonate: {med(fingerprint):.3f}")
    return {key: {"value": values[key], "unit": layer_unit(key)} for key in sorted(values)}


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1].rsplit("_", 1)[-1]
    return LAYER_UNITS.get(suffix, "count")
