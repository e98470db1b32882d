"""Refined units: intermediary layers that give a binary neuron graded inputs.

Partitioning a main neuron's inputs into groups, each feeding one
intermediary neuron, makes every original input count for only a fraction
of a unit signal.  The binary operation of each neuron is unchanged; the
wiring alone produces the analogue behaviour.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .core_net import Network
from .errors import InvalidParameterError, InvalidSpecError, NotFoundError, check_int


@dataclass(frozen=True)
class RefinedSpec:
    """Construction parameters for a refined unit.

    Inputs are partitioned into consecutive groups of ``group_size``; each
    group feeds one intermediary requiring ``group_threshold`` of its
    members.  With ``layers`` > 1 the intermediaries are grouped again the
    same way.  The final layer feeds the main neuron, which requires
    ``main_threshold`` of it.
    """

    input_count: int
    group_size: int
    group_threshold: int
    main_threshold: int
    layers: int = 1

    def __post_init__(self):
        for name in ("input_count", "group_size", "layers"):
            check_int(getattr(self, name), name, InvalidSpecError, 1)
        check_int(self.group_threshold, "group_threshold", InvalidSpecError, 1, self.group_size)
        *_, top = _layers(self)
        check_int(self.main_threshold, "main_threshold", InvalidSpecError, 1, len(top))


class _Layer(Sequence):
    """One layer over ``below`` units: a ``(first, size, threshold)`` per unit.

    A unit reads the ``size`` units of the level below from index ``first``
    and demands ``min(group_threshold, size)`` of them.  Units are computed
    on demand, so a spec of any input count is checked at once.
    """

    def __init__(self, spec: RefinedSpec, below: int):
        self.spec, self.firsts = spec, range(0, below, spec.group_size)

    def __len__(self) -> int:
        return len(self.firsts)

    def __getitem__(self, index):
        first = self.firsts[index]
        left = self.firsts.stop - first
        return first, min(self.spec.group_size, left), min(self.spec.group_threshold, left)


def _layers(spec: RefinedSpec):
    """Yield the layers of ``spec``, the one over the inputs first."""
    below = spec.input_count
    for _ in range(spec.layers):
        layer = _Layer(spec, below)
        yield layer
        below = len(layer)


def build_refined(network: Network, spec: RefinedSpec):
    """Wire a refined unit into ``network``; its inputs have threshold 1.

    Returns (main neuron id, input neuron ids, intermediary ids).  Grouping
    is by input ordering (consecutive ids) so construction is deterministic.
    """
    input_ids = [network.add_neuron(1.0) for _ in range(spec.input_count)]
    current = input_ids
    intermediaries: list[int] = []
    for layer in _layers(spec):
        below, current = current, []
        for first, size, threshold in layer:
            inter = network.add_neuron(float(threshold))
            for src in below[first:first + size]:
                network.add_synapse(src, inter, 1.0, 1)
            current.append(inter)
        intermediaries.extend(current)
    main = network.add_neuron(float(spec.main_threshold))
    for unit in current:
        network.add_synapse(unit, main, 1.0, 1)
    return main, input_ids, intermediaries


def min_firing_set_size(spec: RefinedSpec) -> int:
    """Minimum number of inputs whose simultaneous firing fires the main neuron.

    Computed by propagating per-unit activation costs up the group tree:
    a unit costs the sum of its cheapest ``threshold`` children, an input
    costs 1.  For uniform one-layer specs this equals
    main_threshold * group_threshold.
    """
    costs = [1] * spec.input_count
    for layer in _layers(spec):
        costs = [sum(sorted(costs[first:first + size])[:threshold])
                 for first, size, threshold in layer]
    return sum(sorted(costs)[:spec.main_threshold])


def effective_weight(spec: RefinedSpec, layer_path) -> Fraction:
    """Per-input contribution fraction along a path to the main neuron.

    ``layer_path`` lists the intermediary index traversed at each level
    (level 1 first); an empty path is a directly connected input and
    returns 1.  The fraction is 1 over the product of the traversed
    intermediaries' thresholds.
    """
    try:
        path = list(layer_path)
    except TypeError:
        raise NotFoundError(f"layer_path must be a sequence of unit indices, "
                            f"got {layer_path!r}") from None
    if not path:
        return Fraction(1)
    if len(path) != spec.layers:
        raise NotFoundError(
            f"layer_path must traverse all {spec.layers} layers, got {len(path)}")
    weight = Fraction(1)
    for level, (index, layer) in enumerate(zip(path, _layers(spec))):
        check_int(index, f"layer_path[{level}]", NotFoundError, 0, len(layer) - 1)
        first, size, threshold = layer[index]
        if level > 0 and not first <= path[level - 1] < first + size:
            raise NotFoundError(
                f"unit {path[level - 1]} at layer {level} does not feed "
                f"unit {index} at layer {level + 1}")
        weight /= threshold
    return weight


def expand_weighted(network: Network, pre: int, post: int, weight: int) -> int:
    """Record a weighted connection as ``weight`` parallel unit inputs.

    The firing behaviour of the target is exactly that of a weight-w
    weighted unit; returns the synapse id.
    """
    check_int(weight, "weight", InvalidParameterError, 1)
    return network.add_synapse(pre, post, open_fraction=1.0, distance=1,
                               multiplicity=weight)
