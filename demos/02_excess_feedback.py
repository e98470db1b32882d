#!/usr/bin/env python3
"""Rejected excess input and the balanced state.

After a neuron fires it blocks further input and rejects the surplus back
down the synapses it came from.  The per-input excess is largest when many
inputs crowd a low threshold, which is exactly the situation that should
trigger re-organisation.  A system where no firing neuron carries more
than a tolerated excess is balanced.
"""

from renforge import (Network, average_excess, is_balanced, repulsion_at,
                      resistance_profile)

print("=== Per-input excess grows with crowding ===")
for n, threshold in ((5, 4), (10, 5), (25, 5), (50, 5)):
    print(f"  {n:>2} unit inputs, threshold {threshold}: "
          f"excess per input = {average_excess(n, threshold, n):.3f}")

print()
print("=== Backward travel meets forward resistance ===")
print(f"  cumulative opposing force, 5 per segment over 10 segments:")
print(f"  {resistance_profile(5, 10)}")
profile = [repulsion_at(0.5, d, 0.1) for d in range(1, 11)]
print(f"  a 0.5 rejection against 0.1/segment dies out along the way:")
print(f"  {[round(v, 2) for v in profile]} (clamped: {profile[-1] == 0.0})")

print()
print("=== Watching a live network ===")


def saturated(n, threshold):
    net = Network()
    inputs = [net.add_neuron(1.0) for _ in range(n)]
    main = net.add_neuron(float(threshold))
    for nid in inputs:
        net.add_synapse(nid, main, 1.0, 1)
    return net, inputs, main


net, inputs, main = saturated(5, 4)
record = net.step(inputs)
print(f"  5-input/threshold-4 unit: excess {record.rejections[main]} "
      f"-> balanced: {is_balanced(net, window=1)}")

net, inputs, main = saturated(25, 5)
record = net.step(inputs)
print(f"  25-input/threshold-5 unit: excess {record.rejections[main]} "
      f"-> balanced: {is_balanced(net, window=1)}")
print("  the second unit wastes four fifths of what it receives; growth")
print("  (demo 03) is what relieves that pressure.")
