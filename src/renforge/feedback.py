"""Excess-input arithmetic, backward repulsion decay, and balance detection.

After a neuron fires it rejects its excess input back down every open
direct synapse: the per-input excess is (input_total - threshold) divided
by the number of open unit inputs.  Travelling backwards, the rejected
signal loses a fixed amount of force per distance segment and is clamped
at zero once forward resistance swallows it.
"""

from __future__ import annotations

from itertools import islice

from .core_net import Network
from .errors import InvalidParameterError, check_instance, check_int, check_number

# A 5-input unit with threshold 4 carries per-input excess exactly 0.2 when
# saturated; that canonical stable unit must count as balanced.
DEFAULT_EPS_BALANCE = 0.2


def average_excess(input_total: float, threshold: float, input_count: int) -> float:
    """Per-input excess carried by each of ``input_count`` direct synapses.

    May be negative when the input is below threshold; callers gate on
    firing before treating the value as a rejection.
    """
    check_number(input_total, "input_total", InvalidParameterError, 0)
    check_number(threshold, "threshold", InvalidParameterError, 0, brackets="(]")
    check_int(input_count, "input_count", InvalidParameterError, 1)
    return (input_total - threshold) / input_count


def repulsion_at(excess_per_input: float, distance: int,
                 forward_force_per_segment: float) -> float:
    """Backward repulsion surviving at ``distance`` segments from the neuron.

    Each segment of backward travel meets ``forward_force_per_segment`` of
    opposing force; the result is clamped at zero where the repulsion dies
    out against the resistance.
    """
    check_number(excess_per_input, "excess_per_input", InvalidParameterError)
    check_int(distance, "distance", InvalidParameterError, 1)
    check_number(forward_force_per_segment, "forward_force_per_segment",
                 InvalidParameterError, 0)
    return max(0.0, excess_per_input - distance * forward_force_per_segment)


def resistance_profile(force_per_segment, segments: int) -> list:
    """Cumulative opposing force met after 1..segments backward segments."""
    check_number(force_per_segment, "force_per_segment", InvalidParameterError, 0)
    check_int(segments, "segments", InvalidParameterError, 1)
    return [force_per_segment * k for k in range(1, segments + 1)]


def is_balanced(network: Network, window: int,
                eps_balance: float = DEFAULT_EPS_BALANCE) -> bool:
    """True when no neuron that fired in the last ``window`` ticks carried
    per-input excess above ``eps_balance``.  Vacuously true with no firing.
    """
    check_instance(network, "network", InvalidParameterError, Network)
    check_int(window, "window", InvalidParameterError, 1)
    check_number(eps_balance, "eps_balance", InvalidParameterError, 0)
    for record in islice(reversed(network.history), window):
        for excess in record.rejections.values():
            if excess > eps_balance:
                return False
    return True
