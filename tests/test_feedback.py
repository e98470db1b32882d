"""Excess arithmetic, repulsion decay, and balance detection."""

import pytest

from renforge import (InvalidParameterError, Network, average_excess,
                      is_balanced, repulsion_at, resistance_profile)


class TestAverageExcess:
    def test_ten_inputs(self):
        assert average_excess(10, 5, 10) == 0.5

    def test_fifty_inputs(self):
        assert average_excess(50, 5, 50) == 0.9

    def test_exactly_at_threshold(self):
        assert average_excess(5, 5, 5) == 0

    def test_below_threshold_is_negative(self):
        assert average_excess(3, 5, 5) < 0

    def test_bad_input_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            average_excess(10, 5, 0)

    def test_strictly_increasing_in_input_count(self):
        threshold = 5
        values = [average_excess(n, threshold, n) for n in range(1, 1001)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_unit_input_excess_below_one_when_firing(self):
        for n in range(1, 60):
            for threshold in range(1, n + 1):
                value = average_excess(n, threshold, n)
                assert 0 <= value < 1


class TestRepulsionAt:
    def test_no_opposing_force(self):
        assert repulsion_at(0.5, 7, 0.0) == 0.5

    def test_clamped_at_zero(self):
        assert repulsion_at(0.5, 10, 0.1) == 0.0

    def test_partial_decay(self):
        assert repulsion_at(0.5, 3, 0.1) == pytest.approx(0.2)

    def test_invalid_distance(self):
        with pytest.raises(InvalidParameterError):
            repulsion_at(0.5, 0, 0.1)

    def test_non_increasing_in_distance_and_force(self):
        for distance in range(1, 10):
            assert (repulsion_at(0.9, distance + 1, 0.07)
                    <= repulsion_at(0.9, distance, 0.07))
        for tenth in range(10):
            assert (repulsion_at(0.9, 3, (tenth + 1) / 10)
                    <= repulsion_at(0.9, 3, tenth / 10))


class TestResistanceProfile:
    def test_force_five_over_ten_segments(self):
        assert resistance_profile(5, 10) == [5, 10, 15, 20, 25, 30, 35, 40, 45, 50]

    def test_exact_multiples(self):
        force, segments = 0.25, 6
        assert resistance_profile(force, segments) == [force * k for k in range(1, 7)]

    def test_invalid_segments(self):
        with pytest.raises(InvalidParameterError):
            resistance_profile(5, 0)


def saturated_unit(n_inputs, threshold):
    net = Network()
    inputs = [net.add_neuron(1.0) for _ in range(n_inputs)]
    main = net.add_neuron(float(threshold))
    for nid in inputs:
        net.add_synapse(nid, main, 1.0, 1)
    return net, inputs, main


class TestIsBalanced:
    def test_canonical_unit_is_balanced(self):
        net, inputs, _ = saturated_unit(5, 4)
        net.step(inputs)
        assert is_balanced(net, window=1)

    def test_overdriven_unit_is_not(self):
        net, inputs, _ = saturated_unit(25, 5)
        net.step(inputs)
        assert not is_balanced(net, window=1)

    def test_no_firing_is_vacuously_balanced(self):
        net, inputs, _ = saturated_unit(25, 5)
        net.step()
        assert is_balanced(net, window=4)

    def test_window_limits_lookback(self):
        net, inputs, _ = saturated_unit(25, 5)
        net.step(inputs)          # excess here
        net.step()                # quiet
        net.step()                # quiet
        assert is_balanced(net, window=2)
        assert not is_balanced(net, window=3)

    def test_invalid_window(self):
        net, _, _ = saturated_unit(5, 4)
        with pytest.raises(InvalidParameterError):
            is_balanced(net, window=0)

