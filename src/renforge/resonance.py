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
from typing import NamedTuple

from .core_net import Network
from .errors import (InvalidCombinationError, InvalidParameterError, NotFoundError,
                     check_int)

DEFAULT_MAX_DEPTH = 32

# The seed memo holds at most this many forward edges per synapse, plus one
# per entry, before it empties: on the benchmark's `stack` queries it peaks
# near 2.3, and without a bound querying every seed of a dense network
# would hold neurons x synapses edges.
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


def _terminals(network: Network) -> frozenset[int]:
    successors = network.derived(_adjacency)[0]
    return frozenset(nid for nid in network.neurons if not successors[nid])


def network_fingerprint(network: Network) -> str:
    """Stable digest of the network snapshot a report was computed over.

    The SHA-256 of ``network.to_json()``, computed once per change to the
    network, ticks included.
    """
    return network.derived(Network._fingerprint)


def find_terminals(network: Network) -> frozenset[int]:
    """Nodes with zero open outgoing synapses; cycles have none."""
    return network.derived(_terminals)


@dataclass(frozen=True)
class ResonanceReport:
    forward_visits: dict
    backward_visits: dict
    resonance: dict
    recognized_path: frozenset
    terminals_hit: frozenset
    seeds: frozenset
    max_depth: int
    network_hash: str


class _Waves(NamedTuple):
    """One seed's search alone.  ``resonance`` is ``forward`` itself when
    the two are equal; ``boundary`` holds the open edges the backward wave
    reached but did not cross, since they are not in ``forward``."""
    forward: dict
    arrivals: dict
    backward: dict
    resonance: dict
    boundary: frozenset


class _SeedMemo(dict):
    """Per ``(seed, max_depth)``, the ``_Waves`` of that seed alone.

    The one view ``resonate`` fills after ``Network.derived`` builds it
    empty.  It reads the topology alone, so ticks keep it.  It empties
    itself when the next entry would take its forward edges, plus one per
    entry, past ``SEED_MEMO_LIMIT`` times the synapses plus one.
    """

    def __init__(self, network: Network):
        super().__init__()
        self.room = self.limit = SEED_MEMO_LIMIT * (len(network.synapses) + 1)

    def waves(self, network: Network, seed: int, max_depth: int) -> _Waves:
        key = (seed, max_depth)
        waves = self.get(key)
        if waves is None:
            waves = _seed_waves(network, seed, max_depth)
            cost = len(waves.forward) + 1
            if cost > self.room:
                self.clear()
                self.room = self.limit
            self.room -= cost
            self[key] = waves
        return waves


def _seed_waves(network: Network, seed: int, max_depth: int) -> _Waves:
    successors, predecessors = network.derived(_adjacency)
    forward, arrivals = _wave({seed: 1}, successors, 1, find_terminals(network),
                              max_depth)
    boundary: set = set()
    backward, _ = _wave(arrivals, predecessors, 0, (), max_depth, forward, boundary)
    if len(backward) == len(forward) and all(
            backward[edge] >= count for edge, count in forward.items()):
        resonance = forward
    else:
        resonance = _resonance(forward, backward)
    return _Waves(forward, arrivals, backward, resonance, frozenset(boundary))


def resonate(network: Network, seeds, max_depth: int = DEFAULT_MAX_DEPTH,
             reflect_refractory: bool = False) -> ResonanceReport:
    """Run one forward/backward search wave from ``seeds``.

    Visit counts are additive wave flows: each seed injects one unit, which
    copies down every open outgoing edge per depth layer, so two flows
    through a shared channel count twice.  The backward pass starts from
    each reflector with the total forward signal that arrived there and
    travels only over forward-visited edges.  With ``reflect_refractory``
    currently refractory neurons also act as reflectors (blocking nodes).

    Without ``reflect_refractory`` the waves are summed from each seed's
    own, which the network keeps until its topology changes; see the
    README's resonance section.
    """
    seed_set = frozenset(seeds)
    if not seed_set:
        raise InvalidParameterError("seeds must be non-empty")
    for nid in seed_set:
        if type(nid) is not int or nid not in network.neurons:
            raise NotFoundError(f"unknown neuron id {nid!r}")
    check_int(max_depth, "max_depth", InvalidParameterError, 1)

    network_hash = network_fingerprint(network)
    successors, predecessors = network.derived(_adjacency)
    if reflect_refractory:
        reflectors = find_terminals(network).union(network.refractory_ids())
        forward, arrivals = _wave({nid: 1 for nid in sorted(seed_set)}, successors, 1,
                                  reflectors, max_depth)
    else:
        memo = network.derived(_SeedMemo)
        parts = [memo.waves(network, nid, max_depth) for nid in sorted(seed_set)]
        forward, shared = _merge([waves.forward for waves in parts])
        arrivals, _ = _merge([waves.arrivals for waves in parts])
        if all(forward.keys().isdisjoint(waves.boundary) for waves in parts):
            # Each backward wave crosses the same edges inside the union as
            # alone, so the backward flows add up, and only an edge two
            # forward waves share can resonate with other than its one
            # seed's count.
            backward, _ = _merge([waves.backward for waves in parts])
            resonance: dict = {}
            for waves in parts:
                resonance.update(waves.resonance)
            for edge in shared:
                count, ahead = backward.get(edge, 0), forward[edge]
                resonance[edge] = count if count < ahead else ahead
            return ResonanceReport(forward, backward, resonance, frozenset(backward),
                                   frozenset(arrivals), seed_set, max_depth,
                                   network_hash)
    backward, _ = _wave(arrivals, predecessors, 0, (), max_depth, forward)
    return _finish(forward, backward, frozenset(arrivals), seed_set, max_depth,
                   network_hash)


def _merge(counts: list[dict]) -> tuple[dict, set]:
    """The edgewise sum of ``counts``, which keeps each key where it first
    appears, and the keys that more than one of them holds."""
    total = dict(counts[0])
    shared: set = set()
    for more in counts[1:]:
        common = total.keys() & more.keys()
        prior = [(key, total[key]) for key in common]
        total.update(more)
        for key, count in prior:
            total[key] += count
        shared |= common
    return total, shared


def _wave(start, edges_from, ahead, stop, max_depth, within=None, skipped=None):
    """Spread integer flows from ``start`` for up to ``max_depth`` layers.

    Each node of a layer either ends the wave (it is in ``stop``) or copies
    its flow down every edge of ``edges_from`` to the edge's end at index
    ``ahead``, or down those edges in ``within`` when that is given; the
    set ``skipped``, when given, collects the edges left out for not being
    in ``within``.  Flows that meet at a node add up.  Sums do not depend
    on order, so no layer is sorted.  Returns the flow over each edge and
    the flow that ended at each stop node.
    """
    flows: dict = {}
    ended: dict = {}
    layer = start
    for layers_left in range(max_depth, -1, -1):
        if not layer:
            break
        next_layer: dict = {}
        for nid, flow in layer.items():
            if nid in stop:
                ended[nid] = ended.get(nid, 0) + flow
            elif layers_left:
                for edge in edges_from[nid]:
                    if within is None or edge in within:
                        flows[edge] = flows.get(edge, 0) + flow
                        nxt = edge[ahead]
                        next_layer[nxt] = next_layer.get(nxt, 0) + flow
                    elif skipped is not None:
                        skipped.add(edge)
        layer = next_layer
    return flows, ended


def _resonance(forward: dict, backward: dict) -> dict:
    """Per forward edge, min(forward, backward).

    The backward wave crosses only forward edges and carries at least 1
    wherever it goes, so its edges are exactly those that resonate; every
    other forward edge resonates with 0.
    """
    resonance = dict.fromkeys(forward, 0)
    for edge, count in backward.items():
        ahead = forward[edge]
        resonance[edge] = count if count < ahead else ahead
    return resonance


def _finish(forward, backward, terminals_hit, seeds, max_depth,
            network_hash) -> ResonanceReport:
    """Report over the wave counts; ``recognized_path`` is the backward edges."""
    return ResonanceReport(forward, backward, _resonance(forward, backward),
                           frozenset(backward), terminals_hit, seeds, max_depth,
                           network_hash)


def combine_searches(report_a: ResonanceReport,
                     report_b: ResonanceReport) -> ResonanceReport:
    """Edgewise sum of two searches over the same network snapshot."""
    if report_a.network_hash != report_b.network_hash:
        raise InvalidCombinationError(
            "reports were computed over different network snapshots")
    return _finish(_merge([report_a.forward_visits, report_b.forward_visits])[0],
                   _merge([report_a.backward_visits, report_b.backward_visits])[0],
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
    forward, backward, resonance = (report.forward_visits, report.backward_visits,
                                    report.resonance)
    for counts in (forward, backward, resonance):
        if {*map(type, counts.values())} - {int}:
            bad = next(value for value in counts.values() if type(value) is not int)
            raise ValueError(f"edge count {bad!r} is not JSON compliant: counts are integers")
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
