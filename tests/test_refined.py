"""Refined units checked against exhaustive enumeration oracles."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renforge import (InvalidParameterError, InvalidSpecError, Network,
                      NotFoundError, RefinedSpec, build_refined,
                      effective_weight, expand_weighted, min_firing_set_size)


def enumerated_min_one_layer(spec):
    """Oracle: try every per-group firing-count combination.

    Only usable on one-layer specs with a tractable product of group sizes.
    """
    sizes = [spec.group_size] * (spec.input_count // spec.group_size)
    if spec.input_count % spec.group_size:
        sizes.append(spec.input_count % spec.group_size)
    best = None
    for counts in itertools.product(*(range(s + 1) for s in sizes)):
        fired_groups = sum(
            1 for size, count in zip(sizes, counts)
            if count >= min(spec.group_threshold, size))
        if fired_groups >= spec.main_threshold:
            total = sum(counts)
            if best is None or total < best:
                best = total
    return best


class TestMinFiringSetSize:
    def test_canonical_25_5_4_4(self):
        spec = RefinedSpec(25, 5, 4, 4)
        assert min_firing_set_size(spec) == 16
        assert enumerated_min_one_layer(spec) == 16

    def test_direct_unit_via_identity_groups(self):
        assert min_firing_set_size(RefinedSpec(5, 1, 1, 4)) == 4

    def test_two_layer_nesting(self):
        # Oracle built bottom-up: a level-1 unit needs 4 inputs (checked by
        # exhaustive 2^5 enumeration), then level 2 is enumerated over
        # per-group counts of firing level-1 units.
        unit_cost = min(sum(bits) for bits in itertools.product((0, 1), repeat=5)
                        if sum(bits) >= 4)
        assert unit_cost == 4
        best = None
        for counts in itertools.product(range(6), repeat=5):
            if sum(1 for c in counts if c >= 4) >= 4:
                cost = sum(c * unit_cost for c in counts)
                best = cost if best is None else min(best, cost)
        spec = RefinedSpec(125, 5, 4, 4, layers=2)
        assert min_firing_set_size(spec) == best == 64

    def test_uniform_formula_matches_enumeration(self):
        # One enumeration pass per partition covers every (group_threshold,
        # main_threshold) pair at once; the grid is capped where the raw
        # product enumeration stays tractable.
        cases = [(gs, n) for gs, limit in ((2, 16), (3, 21), (5, 30), (6, 30))
                 for n in range(gs, limit + 1, gs)]
        for group_size, input_count in cases:
            groups = input_count // group_size
            best = {}
            for counts in itertools.product(range(group_size + 1), repeat=groups):
                total = sum(counts)
                for group_threshold in range(1, group_size + 1):
                    fired = sum(1 for c in counts if c >= group_threshold)
                    for main_threshold in range(1, fired + 1):
                        key = (group_threshold, main_threshold)
                        if key not in best or total < best[key]:
                            best[key] = total
            for group_threshold in range(1, group_size + 1):
                for main_threshold in range(1, groups + 1):
                    spec = RefinedSpec(input_count, group_size,
                                       group_threshold, main_threshold)
                    computed = min_firing_set_size(spec)
                    assert computed == main_threshold * group_threshold
                    assert computed == best[(group_threshold, main_threshold)]

    def test_remainder_group_against_enumeration(self):
        for spec in (RefinedSpec(23, 5, 4, 3), RefinedSpec(17, 4, 3, 2),
                     RefinedSpec(26, 5, 4, 6)):
            assert min_firing_set_size(spec) == enumerated_min_one_layer(spec)

    def test_adding_a_layer_never_decreases_size(self):
        for input_count, group_size, group_threshold in (
                (125, 5, 4), (27, 3, 2), (16, 4, 3), (64, 4, 2)):
            one = RefinedSpec(input_count, group_size, group_threshold, 1, layers=1)
            two = RefinedSpec(input_count, group_size, group_threshold, 1, layers=2)
            assert min_firing_set_size(two) >= min_firing_set_size(one)

    def test_averaging_tendency(self):
        refined = min_firing_set_size(RefinedSpec(25, 5, 4, 4))
        direct_threshold = 4
        assert abs(refined - 25 / 2) < abs(direct_threshold - 25 / 2)


class TestBuildRefined:
    def drive_and_settle(self, net, main, driven, hops):
        """Drive inputs for ``hops`` ticks and report whether main fired."""
        net.reset_dynamics()
        fired_main = False
        for _ in range(hops):
            if main in net.step(driven).fired:
                fired_main = True
        return fired_main

    def test_canonical_topology(self):
        net = Network()
        main, inputs, inters = build_refined(net, RefinedSpec(25, 5, 4, 4))
        assert len(inputs) == 25
        assert len(inters) == 5
        assert len(net.incoming(main)) == 5
        assert all(len(net.incoming(i)) == 5 for i in inters)
        assert all(net.neurons[i].threshold == 4.0 for i in inters)

    def test_minimal_set_fires_smaller_does_not(self):
        net = Network()
        main, inputs, _ = build_refined(net, RefinedSpec(25, 5, 4, 4))
        # 4 members from each of 4 groups: exactly the minimum of 16.
        sixteen = [inputs[g * 5 + k] for g in range(4) for k in range(4)]
        assert self.drive_and_settle(net, main, sixteen, hops=2)
        assert not self.drive_and_settle(net, main, sixteen[:15], hops=3)
        # 16 inputs spread uselessly (3 per group) must not fire it.
        spread = [inputs[g * 5 + k] for g in range(5) for k in range(3)] + [inputs[24]]
        assert len(spread) == 16
        assert not self.drive_and_settle(net, main, spread, hops=3)

    def test_single_group_behaves_as_direct_unit(self):
        net = Network()
        main, inputs, inters = build_refined(net, RefinedSpec(5, 5, 4, 1))
        assert len(inters) == 1
        for k in range(6):
            expected = k >= 4
            assert self.drive_and_settle(net, main, inputs[:k], hops=2) == expected

    def test_identity_wiring_equals_direct_connection(self):
        direct = Network()
        d_inputs = [direct.add_neuron(1.0) for _ in range(5)]
        d_main = direct.add_neuron(4.0)
        for nid in d_inputs:
            direct.add_synapse(nid, d_main, 1.0, 1)
        layered = Network()
        l_main, l_inputs, _ = build_refined(layered, RefinedSpec(5, 1, 1, 4))
        for mask in range(1 << 5):
            chosen = [i for i in range(5) if mask >> i & 1]
            direct.reset_dynamics()
            d_fired = d_main in direct.step([d_inputs[i] for i in chosen]).fired
            l_fired = self.drive_and_settle(layered, l_main,
                                            [l_inputs[i] for i in chosen], hops=2)
            assert d_fired == l_fired

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            RefinedSpec(25, 5, 6, 4)          # group threshold too large
        with pytest.raises(InvalidSpecError):
            RefinedSpec(25, 5, 4, 6)          # main threshold exceeds groups
        with pytest.raises(InvalidSpecError):
            RefinedSpec(0, 5, 4, 4)
        with pytest.raises(InvalidSpecError):
            RefinedSpec(25, 5, 4, 4, layers=0)

    @pytest.mark.parametrize("args, top", [((4, 2, 1), 1), ((3, 1, 1), 3)])
    def test_deep_spec_checked_without_walking_every_layer(self, args, top):
        # Past the first layer that keeps its unit count, every layer does.
        assert RefinedSpec(*args, top, layers=10 ** 9).main_threshold == top
        with pytest.raises(InvalidSpecError, match=rf"main_threshold .* \[1, {top}\]"):
            RefinedSpec(*args, top + 1, layers=10 ** 9)


class TestEffectiveWeight:
    def test_direct_input(self):
        assert effective_weight(RefinedSpec(25, 5, 4, 4), []) == 1

    def test_one_intermediary(self):
        assert effective_weight(RefinedSpec(25, 5, 4, 4), [2]) == Fraction(1, 4)

    def test_two_nested_layers(self):
        spec = RefinedSpec(125, 5, 4, 4, layers=2)
        assert effective_weight(spec, [7, 1]) == Fraction(1, 16)

    def test_cross_check_against_min_firing_size(self):
        for spec in (RefinedSpec(25, 5, 4, 4),
                     RefinedSpec(125, 5, 4, 4, layers=2),
                     RefinedSpec(9, 3, 2, 3)):
            weight = effective_weight(spec, [0] * spec.layers)
            assert min_firing_set_size(spec) == spec.main_threshold * weight.denominator

    def test_invalid_paths(self):
        spec = RefinedSpec(25, 5, 4, 4)
        with pytest.raises(NotFoundError):
            effective_weight(spec, [9])       # only 5 intermediaries
        with pytest.raises(NotFoundError):
            effective_weight(spec, [0, 0])    # too many layers
        nested = RefinedSpec(125, 5, 4, 4, layers=2)
        with pytest.raises(NotFoundError):
            effective_weight(nested, [7, 0])  # unit 7 feeds unit 1, not 0


@st.composite
def small_specs(draw):
    """Specs up to 10 inputs, 1-4 wide groups and 1-3 layers, remainders included."""
    input_count = draw(st.integers(1, 10))
    group_size = draw(st.integers(1, 4))
    layers = draw(st.integers(1, 3))
    top = input_count
    for _ in range(layers):
        top = -(-top // group_size)
    return RefinedSpec(input_count, group_size, draw(st.integers(1, group_size)),
                       draw(st.integers(1, top)), layers)


def built_levels(net, inputs, intermediaries):
    """The intermediary ids of each built layer, read from the wiring alone."""
    levels, below = [], set(inputs)
    remaining = list(intermediaries)
    while remaining:
        level = [nid for nid in remaining
                 if {syn.pre for syn in net.incoming(nid)} <= below]
        levels.append(level)
        below = set(level)
        remaining = [nid for nid in remaining if nid not in below]
    return levels


class TestBuiltNetworkAgainstSpec:
    """The wired network agrees with the spec functions on small specs."""

    @settings(max_examples=60, deadline=None)
    @given(small_specs())
    def test_smallest_firing_subset(self, spec):
        net = Network()
        main, inputs, _ = build_refined(net, spec)
        smallest = None
        for mask in range(1, 1 << spec.input_count):
            net.reset_dynamics()
            fired = net.step([nid for i, nid in enumerate(inputs) if mask >> i & 1]).fired
            for _ in range(spec.layers):
                fired |= net.step().fired
            if main in fired:
                size = mask.bit_count()
                smallest = size if smallest is None else min(smallest, size)
        assert smallest == min_firing_set_size(spec)

    @settings(max_examples=60, deadline=None)
    @given(small_specs())
    def test_effective_weight_is_built_thresholds(self, spec):
        net = Network()
        main, inputs, intermediaries = build_refined(net, spec)
        levels = built_levels(net, inputs, intermediaries)
        assert len(levels) == spec.layers
        for path in itertools.product(*(range(len(level)) for level in levels)):
            units = [level[index] for level, index in zip(levels, path)]
            if all(net.synapse_between(pre, post) for pre, post in zip(units, units[1:])):
                thresholds = [net.neurons[nid].threshold for nid in units]
                assert effective_weight(spec, path) == 1 / Fraction(math.prod(thresholds))
            else:
                with pytest.raises(NotFoundError):
                    effective_weight(spec, path)


class TestExpandWeighted:
    def test_weight_three_delivers_three_units(self):
        net = Network()
        a, b = net.add_neuron(1.0), net.add_neuron(3.0)
        expand_weighted(net, a, b, 3)
        record = net.step([a])
        assert record.input_sums[b] == 3.0
        assert b in record.fired

    def test_weight_one_is_ordinary_synapse(self):
        net = Network()
        a, b = net.add_neuron(1.0), net.add_neuron(1.0)
        sid = expand_weighted(net, a, b, 1)
        assert net.synapses[sid].multiplicity == 1

    @pytest.mark.parametrize("weight", [0, True])
    def test_invalid_weight_is_named(self, weight):
        net = Network()
        net.add_neuron(1.0), net.add_neuron(1.0)
        with pytest.raises(InvalidParameterError, match="^weight must be an integer >= 1"):
            expand_weighted(net, 0, 1, weight)

    def test_firing_matches_weighted_gate_exhaustively(self):
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(1, 8)
            weights = [rng.randint(1, 4) for _ in range(n)]
            threshold = rng.randint(1, sum(weights))
            net = Network()
            inputs = [net.add_neuron(1.0) for _ in range(n)]
            main = net.add_neuron(float(threshold))
            for nid, weight in zip(inputs, weights):
                expand_weighted(net, nid, main, weight)
            for mask in range(1 << n):
                net.reset_dynamics()
                driven = [inputs[i] for i in range(n) if mask >> i & 1]
                gate = sum(weights[i] for i in range(n) if mask >> i & 1) >= threshold
                assert (main in net.step(driven).fired) == gate
