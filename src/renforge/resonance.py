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

from .core_net import Network
from .errors import (InvalidCombinationError, InvalidParameterError, NotFoundError,
                     check_int)

DEFAULT_MAX_DEPTH = 32


def _adjacency(network: Network) -> tuple[dict, dict]:
    """Per node, its open ``(edge, post)`` successors and its open
    ``(edge, pre)`` predecessors, each in synapse-id order.

    ``edge`` is the synapse's ``(pre, post)`` tuple, one object shared by
    both lists.  A node with no open synapse on a side has no entry there.
    """
    successors: dict[int, list] = {}
    predecessors: dict[int, list] = {}
    for syn in network.synapses.values():
        if syn.open_fraction > 0.0:
            pre, post = syn.pre, syn.post
            edge = (pre, post)
            successors.setdefault(pre, []).append((edge, post))
            predecessors.setdefault(post, []).append((edge, pre))
    return successors, predecessors


def _terminals(network: Network) -> frozenset[int]:
    successors = network.derived(_adjacency)[0]
    return frozenset(nid for nid in network.neurons if nid not in successors)


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


def resonate(network: Network, seeds, max_depth: int = DEFAULT_MAX_DEPTH,
             reflect_refractory: bool = False) -> ResonanceReport:
    """Run one forward/backward search wave from ``seeds``.

    Visit counts are additive wave flows: each seed injects one unit, which
    copies down every open outgoing edge per depth layer, so two flows
    through a shared channel count twice.  The backward pass starts from
    each reflector with the total forward signal that arrived there and
    travels only over forward-visited edges.  With ``reflect_refractory``
    currently refractory neurons also act as reflectors (blocking nodes).
    """
    seed_set = frozenset(seeds)
    if not seed_set:
        raise InvalidParameterError("seeds must be non-empty")
    for nid in seed_set:
        if type(nid) is not int or nid not in network.neurons:
            raise NotFoundError(f"unknown neuron id {nid!r}")
    check_int(max_depth, "max_depth", InvalidParameterError, 1)

    reflectors = find_terminals(network)
    if reflect_refractory:
        reflectors = reflectors.union(network.refractory_ids())
    successors, predecessors = network.derived(_adjacency)
    forward, arrivals = _wave({nid: 1 for nid in sorted(seed_set)}, successors,
                              reflectors, max_depth)
    backward, _ = _wave(arrivals, predecessors, (), max_depth, forward)
    return _finish(forward, backward, frozenset(arrivals), seed_set, max_depth,
                   network_fingerprint(network))


def _wave(start, edges_from, stop, max_depth, within=None):
    """Spread integer flows from ``start`` for up to ``max_depth`` layers.

    Each node of a layer either ends the wave (it is in ``stop``) or copies
    its flow down every ``(edge, next node)`` pair of ``edges_from``, or of
    those whose edge is in ``within`` when that is given; flows that meet
    at a node add up.  Sums do not depend on order, so no layer is sorted.
    Returns the flow over each edge and the flow that ended at each stop
    node.
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
                for edge, nxt in edges_from.get(nid, ()):
                    if within is None or edge in within:
                        flows[edge] = flows.get(edge, 0) + flow
                        next_layer[nxt] = next_layer.get(nxt, 0) + flow
        layer = next_layer
    return flows, ended


def _finish(forward, backward, terminals_hit, seeds, max_depth,
            network_hash) -> ResonanceReport:
    """Report over the wave counts; an edge resonates with min(forward, backward).

    The backward wave crosses only forward edges and carries at least 1
    wherever it goes, so its edges are exactly those that resonate; every
    other forward edge resonates with 0.
    """
    resonance = dict.fromkeys(forward, 0)
    for edge, count in backward.items():
        ahead = forward[edge]
        resonance[edge] = count if count < ahead else ahead
    return ResonanceReport(forward, backward, resonance, frozenset(backward),
                           terminals_hit, seeds, max_depth, network_hash)


def _edgewise_sum(a: dict, b: dict) -> dict:
    total = dict(a)
    for edge, count in b.items():
        total[edge] = total.get(edge, 0) + count
    return total


def combine_searches(report_a: ResonanceReport,
                     report_b: ResonanceReport) -> ResonanceReport:
    """Edgewise sum of two searches over the same network snapshot."""
    if report_a.network_hash != report_b.network_hash:
        raise InvalidCombinationError(
            "reports were computed over different network snapshots")
    return _finish(_edgewise_sum(report_a.forward_visits, report_b.forward_visits),
                   _edgewise_sum(report_a.backward_visits, report_b.backward_visits),
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
