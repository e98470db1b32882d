"""Standing-wave search: forward activation, terminal reflection, resonance.

A forward wave spreads from the seed nodes along open synapses; wherever it
reaches a terminal (a node with no open outgoing connections) the arrived
signal is reflected back over the already-traversed edges.  Edges carrying
both directions resonate, and the resonating edges mark the recognized
search path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .core_net import Network
from .errors import (InvalidCombinationError, InvalidParameterError, NotFoundError,
                     check_int)

DEFAULT_MAX_DEPTH = 32

# The seed memo holds at most this many items per synapse before it empties,
# an entry counting its forward edges, its crossings and one more: on the
# benchmark's `stack` queries it peaks near 2.4, and without a bound querying
# every seed of a dense network would hold neurons x synapses edges.
SEED_MEMO_LIMIT = 4


def _adjacency(network: Network) -> tuple[list, list]:
    """Per node id, a tuple of its open outgoing edges and one of its open
    incoming edges, each in synapse-id order; ``()`` where it has none.

    An edge is the network's own ``(pre, post)`` key tuple, so both sides
    share one object per edge and the view builds no tuple of its own.
    """
    # add_synapse fills _edges in synapse-id order, so keys[sid] is sid's key.
    keys = list(network._edges)
    count = len(network.neurons)

    def side(synapses_by_node: dict) -> list:
        view = [()] * count
        for nid, synapses in synapses_by_node.items():
            view[nid] = tuple([keys[syn.id] for syn in synapses if syn.open_fraction > 0.0])
        return view

    return side(network._outgoing), side(network._incoming)


def network_fingerprint(network: Network) -> str:
    """Stable digest of the network snapshot a report was computed over.

    The SHA-256 of ``network.to_json()``, computed once per change to the
    network, ticks included.
    """
    return network.derived(Network._fingerprint)


def find_terminals(network: Network) -> frozenset[int]:
    """Nodes with zero open outgoing synapses; cycles have none."""
    successors = network.derived(_adjacency)[0]
    return frozenset(nid for nid in network.neurons if not successors[nid])


@dataclass(frozen=True)
class ResonanceReport:
    """What one search measured; ``resonance`` and ``recognized_path`` are
    read from its two waves on first use."""
    forward_visits: dict
    backward_visits: dict
    terminals_hit: frozenset
    seeds: frozenset
    max_depth: int
    network_hash: str

    @cached_property
    def resonance(self) -> dict:
        """Per forward edge, in ``forward_visits`` order, min(forward, backward)."""
        backward = self.backward_visits
        return {edge: min(count, backward.get(edge, 0))
                for edge, count in self.forward_visits.items()}

    @cached_property
    def recognized_path(self) -> frozenset:
        """The backward edges: the backward wave crosses only forward edges
        and carries at least 1 wherever it goes, so these are exactly the
        edges that resonate."""
        return frozenset(self.backward_visits)


class _Waves(NamedTuple):
    """One seed's search alone.  ``crossings`` holds an
    ``(edge, layers_left, flow)`` per open edge outside ``forward`` that its
    backward wave reached with ``layers_left`` layers to go and left out."""
    forward: dict
    terminals: frozenset
    backward: dict
    crossings: tuple


class _SeedMemo(dict):
    """Per ``(seed, max_depth)``, the ``_Waves`` of that seed alone.

    The one view ``resonate`` fills after ``Network.derived`` builds it
    empty.  It reads the topology alone, so ticks keep it.  It empties
    itself when the next entry would take the items it holds past
    ``SEED_MEMO_LIMIT`` times the synapses plus one, an entry counting its
    forward edges, its crossings and one more.
    """

    def __init__(self, network: Network):
        super().__init__()
        self.room = self.limit = SEED_MEMO_LIMIT * (len(network.synapses) + 1)

    def waves(self, network: Network, seed: int, max_depth: int) -> _Waves:
        key = (seed, max_depth)
        waves = self.get(key)
        if waves is None:
            waves = _seed_waves(network, seed, max_depth)
            cost = len(waves.forward) + len(waves.crossings) + 1
            if cost > self.room:
                self.clear()
                self.room = self.limit
            self.room -= cost
            self[key] = waves
        return waves


def _seed_waves(network: Network, seed: int, max_depth: int) -> _Waves:
    successors, predecessors = network.derived(_adjacency)
    forward, arrivals = _wave({seed: 1}, successors, 1, max_depth)
    crossings: list = []
    backward, _ = _wave(arrivals, predecessors, 0, max_depth, forward, crossings)
    return _Waves(forward, frozenset(arrivals), backward, tuple(crossings))


def resonate(network: Network, seeds,
             max_depth: int = DEFAULT_MAX_DEPTH) -> ResonanceReport:
    """Run one forward/backward search wave from ``seeds``.

    Visit counts are additive wave flows: each seed injects one unit, which
    copies down every open outgoing edge per depth layer, so two flows
    through a shared channel count twice.  The backward pass starts from
    each terminal the forward wave reached, with the total signal that
    arrived there, and travels only over forward-visited edges.

    The waves are summed from each seed's own, which the network keeps
    until its topology changes.  Where a seed's backward wave stopped at
    an edge that another seed's forward wave crossed, its flow goes on
    from there over the summed forward edges; see the README's resonance
    section.
    """
    seed_set = frozenset(seeds)
    if not seed_set:
        raise InvalidParameterError("seeds must be non-empty")
    for nid in seed_set:
        if type(nid) is not int or nid not in network.neurons:
            raise NotFoundError(f"unknown neuron id {nid!r}")
    check_int(max_depth, "max_depth", InvalidParameterError, 1)

    network_hash = network_fingerprint(network)
    memo = network.derived(_SeedMemo)
    parts = [memo.waves(network, nid, max_depth) for nid in sorted(seed_set)]
    forward = _merge([waves.forward for waves in parts])
    backward = _merge([waves.backward for waves in parts])
    predecessors = network.derived(_adjacency)[1]
    for waves in parts:
        for edge, layers_left, flow in waves.crossings:
            if edge in forward:
                backward[edge] = backward.get(edge, 0) + flow
                _wave({edge[0]: flow}, predecessors, 0, layers_left - 1, forward, flows=backward)
    terminals = frozenset().union(*[waves.terminals for waves in parts])
    return ResonanceReport(forward, backward, terminals, seed_set, max_depth, network_hash)


def _merge(counts: list[dict]) -> dict:
    """The edgewise sum of ``counts``, which keeps each key where it first
    appears."""
    total = dict(counts[0])
    for more in counts[1:]:
        prior = [(key, total[key]) for key in total.keys() & more.keys()]
        total.update(more)
        for key, count in prior:
            total[key] += count
    return total


def _wave(start, edges_from, ahead, max_depth, within=None, crossings=None, flows=None):
    """Spread integer flows from ``start`` for up to ``max_depth`` layers.

    Each node of a layer either ends the wave (it has no edge in
    ``edges_from``) or copies its flow down every edge of ``edges_from`` to
    the edge's end at index ``ahead``, or down those edges in ``within``
    when that is given; the list ``crossings``, when given, collects
    ``(edge, layers_left, flow)`` for each edge left out of ``within``.
    Flows that meet at a node add up, into ``flows`` when given.  Sums do
    not depend on order, so no layer is sorted.  Returns the flow over each
    edge and the flow that ended at each node without edges.
    """
    flows = {} if flows is None else flows
    ended: dict = {}
    layer = start
    for layers_left in range(max_depth, -1, -1):
        if not layer:
            break
        next_layer: dict = {}
        for nid, flow in layer.items():
            edges = edges_from[nid]
            if not edges:
                ended[nid] = ended.get(nid, 0) + flow
            elif layers_left:
                for edge in edges:
                    if within is None or edge in within:
                        flows[edge] = flows.get(edge, 0) + flow
                        nxt = edge[ahead]
                        next_layer[nxt] = next_layer.get(nxt, 0) + flow
                    elif crossings is not None:
                        crossings.append((edge, layers_left, flow))
        layer = next_layer
    return flows, ended


def combine_searches(report_a: ResonanceReport,
                     report_b: ResonanceReport) -> ResonanceReport:
    """Edgewise sum of two searches over the same network snapshot."""
    if report_a.network_hash != report_b.network_hash:
        raise InvalidCombinationError(
            "reports were computed over different network snapshots")
    return ResonanceReport(_merge([report_a.forward_visits, report_b.forward_visits]),
                           _merge([report_a.backward_visits, report_b.backward_visits]),
                           report_a.terminals_hit | report_b.terminals_hit,
                           report_a.seeds | report_b.seeds,
                           max(report_a.max_depth, report_b.max_depth),
                           report_a.network_hash)


_EDGE = ('{"pre": %d, "post": %d, "forward": %d, "backward": %d, "resonance": %d, '
         '"recognized": %s}')
_REPORT = ('{"seeds": %s, "terminals_hit": %s, "max_depth": %d, "network_hash": %s, '
           '"edges": [%s]}')


def _edge_rows(report: ResonanceReport) -> list[list]:
    """``[pre, post, forward, backward, resonance]`` per forward edge, by edge.

    Counts are the waves' integer flows; a report holding any other count
    is rejected, since the writers format integers.
    """
    forward, backward = report.forward_visits, report.backward_visits
    for counts in (forward, backward):
        if {*map(type, counts.values())} - {int}:
            bad = next(value for value in counts.values() if type(value) is not int)
            raise ValueError(f"edge count {bad!r} is not JSON compliant: counts are integers")
    resonance = report.resonance
    return [[edge[0], edge[1], forward[edge], backward.get(edge, 0), resonance[edge]]
            for edge in sorted(forward)]


def report_to_json(report: ResonanceReport) -> str:
    """The report as canonical JSON: the bytes ``json.dumps`` gives for
    ``{"seeds", "terminals_hit", "max_depth", "network_hash", "edges"}``,
    written from templates with one row per forward edge."""
    recognized = report.recognized_path
    edges = ", ".join([_EDGE % (pre, post, forward, backward, value,
                                "true" if (pre, post) in recognized else "false")
                       for pre, post, forward, backward, value in _edge_rows(report)])
    return _REPORT % (json.dumps(sorted(report.seeds)),
                      json.dumps(sorted(report.terminals_hit)), report.max_depth,
                      json.dumps(report.network_hash), edges)


def report_csv_rows(report: ResonanceReport) -> list[list]:
    """Header plus one row per forward-visited edge, sorted by edge."""
    return [["pre", "post", "forward", "backward", "resonance"], *_edge_rows(report)]
