"""Seeded inputs and closed-loop passes for the four benchmark workloads.

A workload turns a seed into inputs, builds the library structures a pass
starts from (``setup``), drives the library one call at a time (``run``:
each call starts only after the previous one returned), and reduces the
outputs to digests (``check``).  The library sees only the generated
inputs.  Library functions are always looked up on their module at call
time, so the tracer in ``spans.py`` can wrap them without touching ``src/``.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from renforge import concept_forest, growth, refined, resonance, symbolic_cluster
from renforge.core_net import Network
from renforge.growth import GrowthConfig
from renforge.harness import builders
from renforge.harness.sweeps import ALL_FIRING_GROWTH


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# On a shared cloud guest the CPU's speed can drift by up to about 2x over
# seconds to minutes, and that drift swamps the differences between two
# commits.  So every measured stretch of about CHUNK seconds is bracketed
# by a fixed calibration kernel, and its wall time is rescaled to the speed
# at which the kernel takes K_REF seconds.
K_REF = 0.001
CHUNK = 0.1


def calibrate() -> float:
    """Wall time of a fixed, cache-resident pure-Python kernel.

    It allocates no objects the garbage collector tracks beyond one list,
    so it does not shift when the collector runs in the measured code.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table: dict[int, float] = {}
        keys = []
        for i in range(5000):
            key = i % 701
            table[key] = table.get(key, 0.0) + i * 0.5
            if i % 3 == 0:
                keys.append(key * 8192 + i)
        keys.sort()
        return perf_counter() - start
    finally:
        if paused:
            gc.enable()


class Clock:
    """Operation boundaries, latency laps and speed-rescaled time for one pass.

    ``op()`` starts a new operation (a sample, tick, line, event or query);
    the tracer stamps every span with the current ``op_id``.  ``lap()``
    records the time since the last ``op()`` or ``lap()`` as one latency
    sample; it also serves as the ``on_tick`` callback of the growth engine.
    At these boundaries, once a stretch has lasted ``CHUNK`` seconds, the
    clock runs the calibration kernel and charges the stretch at the mean
    kernel time of its two ends.  Kernel time itself is never charged.
    ``mark()`` closes the open stretch and returns the rescaled seconds since
    ``start()``; ``raw_s`` holds the same span in wall seconds.  Time spent
    inside ``aside()`` counts in neither.
    """

    def __init__(self):
        self.op_id = 0
        self.laps_ms: list[float] = []
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._pending: list[float] = []
        self._kernel = K_REF
        self._opened = 0.0
        self._last = 0.0

    def start(self) -> None:
        self._kernel = calibrate()
        self._opened = self._last = perf_counter()

    def _close(self, now: float) -> None:
        kernel = calibrate()
        factor = 2 * K_REF / (self._kernel + kernel)
        self.raw_s += now - self._opened
        self.scaled_s += (now - self._opened) * factor
        self.laps_ms += [lap * factor * 1e3 for lap in self._pending]
        self._pending.clear()
        self._kernel = kernel
        self._opened = self._last = perf_counter()

    def _boundary(self, now: float) -> None:
        if now - self._opened >= CHUNK:
            self._close(now)
        else:
            self._last = now

    def op(self) -> None:
        self.op_id += 1
        self._boundary(perf_counter())

    def lap(self, *_) -> None:
        now = perf_counter()
        self._pending.append(now - self._last)
        self._boundary(now)

    def mark(self) -> float:
        self._close(perf_counter())
        return self.scaled_s

    @contextmanager
    def aside(self):
        """Leave the block's time out of every measure (the caller's own checks)."""
        start = perf_counter()
        try:
            yield
        finally:
            spent = perf_counter() - start
            self._opened += spent
            self._last += spent


@dataclass
class Outcome:
    """What one pass produced, reduced outside the timed region."""

    units: list[tuple[str, int]]       # (digest, operations it covers)
    writes: int                        # write-path operations completed
    write_s: float                     # their rescaled time (see Clock)
    facts: dict = field(default_factory=dict)


def history_entries(net: Network) -> int:
    """``input_sums`` entries the network's firing history holds."""
    return sum(len(record.input_sums) for record in net.history)


# -- growth sweeps ---------------------------------------------------------------

class Sweep:
    """One ``run_until_balanced`` call per direct unit, as the sweep command does.

    The seed orders the samples and draws each sample's seed; with a random
    drive it also draws every tick's firing subset up front.
    """

    def __init__(self, sizes, config: GrowthConfig, max_ticks: int,
                 probability: float | None):
        self.sizes = tuple(sizes)
        self.config = config
        self.max_ticks = max_ticks
        self.probability = probability
        self.ops = len(self.sizes)

    def setup(self, seed: int):
        rng = random.Random(seed)
        sizes = list(self.sizes)
        rng.shuffle(sizes)
        samples = []
        for n in sizes:
            sample_seed = rng.randrange(2 ** 63)
            net, inputs, _main = builders.build_direct_unit(n, 5.0, rng_seed=sample_seed)
            if self.probability is None:
                drive = frozenset(inputs)
            else:
                draw = random.Random(sample_seed).random
                drive = [frozenset(i for i in inputs if draw() < self.probability)
                         for _ in range(self.max_ticks)]
            samples.append((n, net, drive))
        return samples

    def run(self, samples, clock: Clock):
        reports = []
        for _n, net, drive in samples:
            clock.op()
            start = clock.mark()
            report = growth.run_until_balanced(net, drive, self.config,
                                               self.max_ticks, on_tick=clock.lap)
            reports.append((report, clock.mark() - start))
        return reports

    def check(self, samples, reports) -> Outcome:
        units = []
        for (_n, net, _drive), (report, _s) in zip(samples, reports):
            events = [f"{e.kind}:{e.tick}:{','.join(map(str, e.affected))}"
                      for e in report.events]
            doc = json.dumps(report.to_doc(), sort_keys=True)
            units.append((sha("\n".join([doc, *events, net.to_json()])), 1))
        return Outcome(
            units=units,
            writes=sum(report.ticks_run for report, _s in reports),
            write_s=sum(s for _report, s in reports),
            facts={"sample_s": [(n, s) for (n, _net, _d), (_r, s) in zip(samples, reports)],
                   "input_sums_entries": max(history_entries(net) for _n, net, _d in samples)})


# -- refined units under sparse drive ------------------------------------------------

REFINED_SPEC = refined.RefinedSpec(input_count=125, group_size=5, group_threshold=4,
                                   main_threshold=4, layers=2)


class RefinedDrive:
    """``step`` on one network of two-layer 4-of-5 refined units, no growth.

    Each tick drives a random share of the inputs of one unit, so only a
    few percent of the neurons act as sources.  The network is kept small
    enough (about 2.5k neurons) that a tick's working set stays in a core's
    own cache: at 10k neurons it spilled into the shared cache, and other
    tenants' load then slowed it far more than the calibration kernel, so
    the rescaled time could not be steadied.
    """

    DRIVEN_UNITS = 1

    def __init__(self, units: int, ticks: int):
        self.units = units
        self.ticks = ticks
        self.ops = ticks

    def setup(self, seed: int):
        net = Network()
        inputs = [refined.build_refined(net, REFINED_SPEC)[1] for _ in range(self.units)]
        rng = random.Random(seed)
        drives = []
        for _ in range(self.ticks):
            driven = []
            for unit in rng.sample(range(self.units), self.DRIVEN_UNITS):
                share = rng.uniform(0.5, 0.9)
                driven += rng.sample(inputs[unit], round(share * len(inputs[unit])))
            drives.append(frozenset(driven))
        return net, drives

    def run(self, state, clock: Clock):
        net, drives = state
        fired = []
        start = clock.mark()
        for drive in drives:
            clock.op()
            fired.append(net.step(drive).fired)
            clock.lap()
        return fired, clock.mark() - start

    def check(self, state, outputs) -> Outcome:
        net, _drives = state
        fired, run_s = outputs
        units = [(sha(",".join(map(str, sorted(ids)))), 1) for ids in fired]
        return Outcome(units=units, writes=len(fired), write_s=run_s,
                       facts={"input_sums_entries": history_entries(net)})


# -- the three-level stack ---------------------------------------------------------

class Stack:
    """Corpus into a concept forest, an event stream into a cluster net, then
    queries: a forest search, then resonance from every base (tree root)
    whose label the query names.

    The corpus and the queries are Zipf mixes over a fixed vocabulary; the
    events are time-stamped TSV lines of 2-5 labels out of 60.
    """

    VOCABULARY = [f"w{i}" for i in range(300)]
    LABELS = [f"c{i}" for i in range(60)]
    ZIPF = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(300)))
    DECAY = 0.01

    def __init__(self, lines: int, events: int, queries: int):
        self.lines = lines
        self.events = events
        self.queries = queries
        self.ops = lines + events + queries

    def _phrase(self, rng: random.Random, low: int, high: int) -> str:
        return " ".join(rng.choices(self.VOCABULARY, cum_weights=self.ZIPF,
                                    k=rng.randint(low, high)))

    def setup(self, seed: int):
        rng = random.Random(seed)
        corpus = [self._phrase(rng, 3, 8) for _ in range(self.lines)]
        moment = 0.0
        events = []
        for _ in range(self.events):
            moment += rng.uniform(0.1, 1.0)
            labels = rng.sample(self.LABELS, rng.randint(2, 5))
            events.append(f"{moment:.3f}\t{','.join(labels)}\n")
        queries = [concept_forest.tokenize(self._phrase(rng, 2, 4))
                   for _ in range(self.queries)]
        return corpus, events, queries

    @staticmethod
    def _checkpoints(count: int) -> set[int]:
        """Item counts at which cumulative ingest time is recorded."""
        return {max(1, count // 4), max(1, count // 2), count}

    def run(self, inputs, clock: Clock):
        corpus, events, queries = inputs
        forest = concept_forest.ConceptForest()
        marks = self._checkpoints(len(corpus))
        lines_at = []
        start = clock.mark()
        for done, line in enumerate(corpus, 1):
            clock.op()
            forest.ingest_lines([line])
            if done in marks:
                lines_at.append((done, clock.mark() - start))

        cluster = symbolic_cluster.ClusterNet(decay=self.DECAY)
        marks = self._checkpoints(len(events))
        events_at = []
        start = clock.mark()
        for done, line in enumerate(events, 1):
            clock.op()
            cluster.ingest_events([line], fuzzy=True)
            if done in marks:
                events_at.append((done, clock.mark() - start))
        clock.op()
        pruned = cluster.prune(0.0)
        retrieved = [cluster.retrieve(concept.id) for concept in cluster.global_concepts]

        clock.op()
        net, _labels, roots = builders.network_from_forest(forest)
        bases_of: dict[str, list[int]] = {}
        for tree, nid in zip(forest.trees, roots):
            bases_of.setdefault(tree.label, []).append(nid)
        answers = []
        for tokens in queries:
            clock.op()
            paths = forest.search(tokens)
            bases = {nid for token in tokens for nid in bases_of.get(token, ())}
            report = resonance.resonate(net, bases) if bases else None
            clock.lap()
            # Reduce each reply as it arrives, so replies do not pile up in memory.
            with clock.aside():
                found = [[list(map(list, p.segments)), p.links_crossed, p.complete]
                         for p in paths]
                reply = "" if report is None else resonance.report_to_json(report)
                answers.append(sha(json.dumps(found) + reply))
        return {"forest": forest, "cluster": cluster, "pruned": pruned,
                "retrieved": retrieved, "answers": answers,
                "lines_at": lines_at, "events_at": events_at}

    def check(self, inputs, out) -> Outcome:
        forest, cluster = out["forest"], out["cluster"]
        retrieved = [[[sorted(labels), weight] for labels, weight in members]
                     for members in out["retrieved"]]
        units = [(sha(forest.to_json()), self.lines),
                 (sha(json.dumps([cluster.to_json(), out["pruned"], retrieved])),
                  self.events)]
        units += [(answer, 1) for answer in out["answers"]]
        ingest_s = out["lines_at"][-1][1] + out["events_at"][-1][1]
        return Outcome(
            units=units, writes=self.lines + self.events, write_s=ingest_s,
            facts={"lines_at": out["lines_at"], "events_at": out["events_at"],
                   "nodes": forest.node_count(), "trees": len(forest.trees),
                   "links": len(forest.links), "hidden_nodes": len(cluster.hidden),
                   "global_concepts": len(cluster.global_concepts),
                   "input_sums_entries": 0})


def make(name: str, small: bool = False):
    """The named workload at benchmark size, or at test size with ``small``."""
    if name == "sweep_saturated":
        sizes = (8, 12) if small else (50, 71, 100, 141, 200)
        return Sweep(sizes, ALL_FIRING_GROWTH, 500, None)
    if name == "sweep_random":
        sizes = (20, 40) if small else (250, 354, 500, 707, 1000)
        return Sweep(sizes, GrowthConfig(), 40 if small else 500, 0.5)
    if name == "refined_drive":
        return RefinedDrive(units=4, ticks=30) if small else RefinedDrive(units=16, ticks=2000)
    if name == "stack":
        return Stack(40, 30, 12) if small else Stack(1000, 500, 150)
    raise KeyError(name)


NAMES = ("sweep_saturated", "sweep_random", "refined_drive", "stack")
