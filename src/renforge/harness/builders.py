"""Network builders shared by scenarios, sweeps, and demos."""

from __future__ import annotations

from ..concept_forest import ConceptForest, _preorder
from ..core_net import Network
from ..errors import InvalidParameterError, check_int


def build_direct_unit(input_count: int, threshold: float,
                      rng_seed: int = 0) -> tuple[Network, list[int], int]:
    """A main neuron fed directly by ``input_count`` unit synapses.

    Returns (network, input ids, main id).
    """
    check_int(input_count, "input_count", InvalidParameterError, 1)
    net = Network(rng_seed=rng_seed)
    inputs = [net.add_neuron(1.0) for _ in range(input_count)]
    main = net.add_neuron(threshold)
    for nid in inputs:
        net.add_synapse(nid, main, 1.0, 1)
    return net, inputs, main


def network_from_forest(forest: ConceptForest):
    """Map a concept forest onto a threshold-unit graph.

    Every node becomes a threshold-1 neuron, every parent-child edge and
    dynamic link a unit synapse.  Returns (network, neuron id -> label,
    root neuron ids).
    """
    if not isinstance(forest, ConceptForest):
        raise InvalidParameterError(f"forest must be a ConceptForest, got {forest!r}")
    net = Network()
    ids: dict[int, int] = {}
    labels: dict[int, str] = {}
    roots: list[int] = []
    for root in forest.trees:
        for node in _preorder(root):
            nid = net.add_neuron(1.0)
            ids[id(node)] = nid
            labels[nid] = node.label
            if node is root:
                roots.append(nid)
    for root in forest.trees:
        for node in _preorder(root):
            for child in node.children:
                net.add_synapse(ids[id(node)], ids[id(child)], 1.0, 1)
    for link in forest.links:
        net.add_synapse(ids[id(link.from_node)], ids[id(link.to_root)], 1.0, 1)
    return net, labels, roots
