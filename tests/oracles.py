"""Naive predecessors of optimised library paths, kept as test oracles.

Each function here is the implementation an optimised path replaced, copied
unchanged.  Differential tests check that the optimised path returns the
same result on randomized inputs.
"""

from __future__ import annotations

import hashlib

from renforge.core_net import Network
from renforge.growth import TurbulenceState, _SynapseStats


def _agreement(a: _SynapseStats, b: _SynapseStats) -> float:
    """Fraction of shared carrying activity over the common recent window."""
    ca, cb = list(a.carried), list(b.carried)
    span = min(len(ca), len(cb))
    if span == 0:
        return 0.0
    ca, cb = ca[-span:], cb[-span:]
    both = sum(1 for x, y in zip(ca, cb) if x and y)
    either = sum(1 for x, y in zip(ca, cb) if x or y)
    return both / either if either else 0.0


def _greedy_groups(ids: list[int], state: TurbulenceState) -> list[list[int]]:
    """Partition budded synapse ids into co-firing groups.

    Every member of a group must meet the agreement criterion pairwise with
    every other member.  Largest group first; ties go to the lowest seed id.
    """
    threshold = state.config.cofire_agreement
    cache: dict[tuple[int, int], bool] = {}

    def agrees(x: int, y: int) -> bool:
        key = (x, y) if x < y else (y, x)
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = _agreement(state.stats_for(x), state.stats_for(y)) >= threshold
        return hit

    remaining = sorted(ids)
    groups = []
    while True:
        best: list[int] | None = None
        for seed in remaining:
            clique = [seed]
            for other in remaining:
                if other != seed and all(agrees(other, member) for member in clique):
                    clique.append(other)
            if best is None or len(clique) > len(best):
                best = clique
        if best is None or len(best) < 2:
            break
        groups.append(sorted(best))
        chosen = set(best)
        remaining = [i for i in remaining if i not in chosen]
    return groups


def network_fingerprint(network: Network) -> str:
    """Stable digest of the network snapshot a report was computed over."""
    return hashlib.sha256(network.to_json().encode("utf-8")).hexdigest()


def find_terminals(network: Network) -> frozenset[int]:
    """Nodes with zero open outgoing synapses; cycles have none."""
    return frozenset(nid for nid in network.neurons
                     if not any(s.open_fraction > 0.0 for s in network.outgoing(nid)))
