"""Span tracing around the library's public functions, from outside ``src/``.

``Tracer.install`` replaces each traced function on the module or class the
library looks it up on with a wrapper that records a span: name, start,
end, parent span and operation id.  Spans stay in memory until the run
ends.  Observers fold return values into per-layer counters at the same
boundaries.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import math
from collections import Counter
from time import perf_counter

from renforge import concept_forest, core_net, growth, refined, resonance, symbolic_cluster
from renforge.harness import builders

import workloads


def _observe_step(tracer, args, record):
    tracer.counts["step.active"] += len(record.sources) / len(args[0].neurons)


def _observe_spawn(tracer, args, events):
    _net, state, _tick = args
    kinds = Counter(event.kind for event in events)
    tracer.counts["growth.buds"] += kinds[growth.BUD_SPAWNED]
    tracer.counts["growth.joins"] += kinds[growth.NEURONS_JOINED]
    tracer.counts["growth.intermediaries"] += kinds[growth.INTERMEDIARY_CREATED]
    tracer.counts["spawn.joined_calls"] += bool(kinds[growth.NEURONS_JOINED])
    # Joined buds are reset inside the call, so add them back to the
    # buds still waiting to see how many the grouping looked at.
    grouped = sum(len(e.affected) for e in events if e.kind == growth.NEURONS_JOINED)
    budded = grouped + sum(1 for stats in state.stats.values() if stats.budded)
    tracer.counts["growth.budded_max"] = max(tracer.counts["growth.budded_max"], budded)


def _observe_split(tracer, _args, split_events):
    tracer.counts["concept_forest.splits"] += len(split_events)


def _observe_event(tracer, args, report):
    net = args[0]
    tracer.counts["symbolic_cluster.reinforced"] += len(report.reinforced)
    tracer.counts["symbolic_cluster.decayed"] += len(report.decayed)
    exact = 1 if report.created is None else 0
    tracer.counts["cluster.fuzzy"] += len(report.reinforced) - exact
    tracer.counts["cluster.scanned"] += len(net.hidden)


def _observe_resonate(tracer, _args, report):
    tracer.counts["resonance.forward_edges"] += len(report.forward_visits)
    tracer.counts["resonance.recognized"] += len(report.recognized_path)


CALIBRATION = "bench.calibrate"

# span name -> (owner the library looks the function up on, attribute, observer)
TRACED = {
    "core_net.step": (core_net.Network, "step", _observe_step),
    "core_net.to_json": (core_net.Network, "to_json", None),
    "refined.build_refined": (refined, "build_refined", None),
    "feedback.is_balanced": (growth, "is_balanced", None),
    "growth.accumulate_turbulence": (growth, "accumulate_turbulence", None),
    "growth.spawn_and_join": (growth, "spawn_and_join", _observe_spawn),
    "growth.close_paths": (growth, "close_paths", None),
    "growth.run_until_balanced": (growth, "run_until_balanced", None),
    "concept_forest.insert_sequence": (concept_forest.ConceptForest, "insert_sequence", None),
    "concept_forest.split_if_violates": (concept_forest.ConceptForest, "split_if_violates",
                                         _observe_split),
    "concept_forest.search": (concept_forest.ConceptForest, "search", None),
    "symbolic_cluster.present_event": (symbolic_cluster.ClusterNet, "present_event",
                                       _observe_event),
    "symbolic_cluster.retrieve": (symbolic_cluster.ClusterNet, "retrieve", None),
    "symbolic_cluster.prune": (symbolic_cluster.ClusterNet, "prune", None),
    "resonance.resonate": (resonance, "resonate", _observe_resonate),
    "resonance.network_fingerprint": (resonance, "network_fingerprint", None),
    "resonance.find_terminals": (resonance, "find_terminals", None),
    "harness.build_direct_unit": (builders, "build_direct_unit", None),
    "harness.network_from_forest": (builders, "network_from_forest", None),
    # Not a layer: its span keeps calibration time out of its callers' self time.
    CALIBRATION: (workloads, "calibrate", None),
}

# Spans whose call count is reported beside their self time.
COUNTED = ("core_net.step", "refined.build_refined", "feedback.is_balanced",
           "growth.accumulate_turbulence", "growth.spawn_and_join",
           "growth.close_paths", "growth.run_until_balanced",
           "concept_forest.insert_sequence", "concept_forest.split_if_violates",
           "concept_forest.search", "symbolic_cluster.present_event",
           "symbolic_cluster.retrieve", "symbolic_cluster.prune",
           "resonance.resonate", "resonance.network_fingerprint",
           "resonance.find_terminals")


class Tracer:
    """Records spans for one pass at a time; ``clock`` supplies operation ids."""

    def __init__(self):
        self.clock = None
        self.spans: list[list] = []     # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, observe):
        spans, opened = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, opened[-1] if opened else -1,
                    self.clock.op_id]
            opened.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                opened.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self, clock) -> None:
        """Start a pass: clear spans and counters and wrap every traced function."""
        self.clock = clock
        self.spans.clear()
        self.counts.clear()
        for name, (owner, attr, observe) in TRACED.items():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {name: 0.0 for name in TRACED}
        for (name, start, end, _parent, _op), child in zip(self.spans, covered):
            totals[name] += end - start - child
        return totals

    def durations(self, name: str) -> float:
        return sum(end - start for n, start, end, _p, _o in self.spans if n == name)

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)


def pass_layers(tracer: Tracer, facts: dict, scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except the fitted exponents.

    Self times are multiplied by ``scale``, the pass's rescaled-to-wall ratio.
    """
    calls = tracer.calls()
    self_s = tracer.self_times()
    counts = tracer.counts
    out: dict[str, float] = {}
    for name in COUNTED:
        out[f"{name}.calls"] = calls[name]
    for name in TRACED:
        if name != CALIBRATION:
            out[f"{name}.s"] = self_s[name] * scale
    steps = calls["core_net.step"]
    out["core_net.step.active_ratio"] = counts["step.active"] / steps if steps else 0.0
    out["core_net.input_sums_entries"] = facts.get("input_sums_entries", 0)
    for key in ("growth.buds", "growth.joins", "growth.intermediaries", "growth.budded_max",
                "concept_forest.splits", "symbolic_cluster.reinforced",
                "symbolic_cluster.decayed", "resonance.forward_edges"):
        out[key] = counts[key]
    spawns = calls["growth.spawn_and_join"]
    out["growth.join_ratio"] = counts["spawn.joined_calls"] / spawns if spawns else 0.0
    # Each split_if_violates call rescans once per split plus a final clean scan.
    rescans = counts["concept_forest.splits"] + calls["concept_forest.split_if_violates"]
    out["concept_forest.split_ratio"] = (counts["concept_forest.splits"] / rescans
                                         if rescans else 0.0)
    for key in ("nodes", "trees", "links"):
        out[f"concept_forest.{key}"] = facts.get(key, 0)
    for key in ("hidden_nodes", "global_concepts"):
        out[f"symbolic_cluster.{key}"] = facts.get(key, 0)
    scanned = counts["cluster.scanned"]
    out["symbolic_cluster.fuzzy_ratio"] = counts["cluster.fuzzy"] / scanned if scanned else 0.0
    edges = counts["resonance.forward_edges"]
    out["resonance.recognized_ratio"] = counts["resonance.recognized"] / edges if edges else 0.0
    return out


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) against log(x); 0.0 with under two sizes."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _y in pts}) < 2:
        return 0.0
    mx = sum(x for x, _y in pts) / len(pts)
    my = sum(y for _x, y in pts) / len(pts)
    num = sum((x - mx) * (y - my) for x, y in pts)
    den = sum((x - mx) ** 2 for x, _y in pts)
    return num / den
