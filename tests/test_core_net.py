"""Firing engine: activation, stepping, refractory, mutation, serialization."""

import math
import random

import pytest

import oracles
from renforge import (FIRING_TOLERANCE, DuplicateEdgeError, InvalidParameterError,
                      Network, NotFoundError, RefinedSpec, build_refined)


class TestFires:
    def test_at_threshold(self):
        net, inputs, main = build_fan_in(4, 4)
        assert main in net.step(inputs).fired

    def test_below_threshold(self):
        net, inputs, main = build_fan_in(3, 4)
        assert main not in net.step(inputs).fired

    def test_zero_input(self):
        net, inputs, main = build_fan_in(1, 1)
        assert main not in net.step().fired

    def test_tolerance_absorbs_float_noise(self):
        # Open fractions 0.7, 0.2 and 0.1 sum to 0.9999999999999999 in
        # synapse order, below a threshold of 1.0 but within the tolerance.
        net = Network()
        inputs = [net.add_neuron(1.0) for _ in range(3)]
        main = net.add_neuron(1.0)
        for nid, fraction in zip(inputs, (0.7, 0.2, 0.1)):
            net.add_synapse(nid, main, fraction)
        record = net.step(inputs)
        assert record.input_sums[main] < 1.0
        assert main in record.fired

    @pytest.mark.parametrize("threshold", [0, -1, -0.5])
    def test_non_positive_threshold_rejected(self, threshold):
        with pytest.raises(InvalidParameterError):
            Network().add_neuron(threshold)


def build_fan_in(n_inputs, threshold, open_fraction=1.0):
    net = Network()
    inputs = [net.add_neuron(1.0) for _ in range(n_inputs)]
    main = net.add_neuron(threshold)
    for nid in inputs:
        net.add_synapse(nid, main, open_fraction, 1)
    return net, inputs, main


class TestStep:
    def test_empty_network(self):
        record = Network().step()
        assert record.fired == frozenset()
        assert record.tick == 0

    def test_five_inputs_threshold_four(self):
        net, inputs, main = build_fan_in(5, 4.0)
        record = net.step(inputs)
        assert main in record.fired
        assert record.input_sums[main] == 5.0

    def test_four_of_five_suffices_three_does_not(self):
        net, inputs, main = build_fan_in(5, 4.0)
        assert main in net.step(inputs[:4]).fired
        net.reset_dynamics()
        assert main not in net.step(inputs[:3]).fired

    def test_refractory_blocks_next_tick(self):
        net, inputs, main = build_fan_in(5, 4.0)
        assert main in net.step(inputs).fired
        assert main not in net.step(inputs).fired
        assert main in net.step(inputs).fired

    def test_fractional_delivery(self):
        net = Network()
        a = net.add_neuron(1.0)
        b = net.add_neuron(0.4)
        net.add_synapse(a, b, 0.5, 3)
        record = net.step([a])
        assert record.input_sums[b] == 0.5
        assert b in record.fired

    def test_propagation_takes_one_tick_per_hop(self):
        net = Network()
        a, b, c = (net.add_neuron(1.0) for _ in range(3))
        net.add_synapse(a, b, 1.0, 1)
        net.add_synapse(b, c, 1.0, 1)
        assert net.step([a]).fired == {b}
        assert net.step().fired == {c}

    def test_rejections_record_per_input_excess(self):
        net, inputs, main = build_fan_in(25, 5.0)
        record = net.step(inputs)
        assert record.rejections[main] == pytest.approx(0.8)

    @pytest.mark.parametrize("nid", [7, True, 1.0])
    def test_unknown_external_input(self, nid):
        net = Network()
        net.add_neuron(1.0)
        net.add_neuron(1.0)
        with pytest.raises(NotFoundError, match="unknown neuron id"):
            net.step([nid])

    def test_sources_include_externals_and_last_fired(self):
        net, inputs, main = build_fan_in(5, 4.0)
        record = net.step(inputs)
        assert set(inputs) <= set(record.sources)
        second = net.step()
        assert main in second.sources


class TestSparseRecord:
    def test_input_sums_hold_the_nonzero_sums_in_id_order(self):
        net = Network()
        a, b, c, d = (net.add_neuron(t) for t in (1.0, 2.0, 1.0, 1.0))
        net.add_synapse(a, b, 1.0)
        net.add_synapse(a, c, 1.0)
        net.add_synapse(a, d, 0.0)
        record = net.step([a])
        # b is reached but stays below threshold and c fires; the driven a
        # has no input and d's only synapse is closed.
        assert list(record.input_sums.items()) == [(b, 1.0), (c, 1.0)]
        assert record.fired == {c}

    def test_externals_is_the_callers_frozenset(self):
        net, inputs, _main = build_fan_in(5, 4.0)
        drive = frozenset(inputs)
        assert net.step(drive).externals is drive
        assert net.step(inputs).externals == drive

    def test_refractory_is_the_previous_fired_set(self):
        net, inputs, main = build_fan_in(5, 4.0)
        previous = net.step(inputs)
        record = net.step(inputs[:2])
        assert record.refractory is previous.fired
        assert record.refractory == {main}

    def test_sources_are_refractory_and_externals(self):
        net, inputs, main = build_fan_in(5, 4.0)
        net.step(inputs)
        for drive in (inputs[:2], (), [main]):
            record = net.step(drive)
            assert record.sources == record.refractory | record.externals

    def test_history_stays_sparse_under_sparse_drive(self):
        # Four two-layer 4-of-5 refined units; each tick drives 50-90 % of
        # one unit's inputs, so few neurons are reached.  A dense record
        # would hold an entry for every neuron on every tick.
        net = Network()
        inputs = [build_refined(net, RefinedSpec(125, 5, 4, 4, layers=2))[1]
                  for _ in range(4)]
        twin = Network.from_json(net.to_json())
        rng = random.Random(3)
        countdown: dict[int, int] = {}
        for _ in range(300):
            unit = inputs[rng.randrange(len(inputs))]
            drive = frozenset(rng.sample(unit, round(rng.uniform(0.5, 0.9) * len(unit))))
            net.step(drive)
            oracles.step(twin, countdown, drive)
        expected = [oracles.sparse_input_sums(record) for record in twin.history]
        assert [record.input_sums for record in net.history] == expected
        entries = sum(len(record.input_sums) for record in net.history)
        assert entries == sum(map(len, expected)) == 7623
        assert entries * 20 < len(net.neurons) * len(net.history)   # 159,744


class TestMutations:
    def test_dense_ids(self):
        net = Network()
        assert net.add_neuron(4.0) == 0
        assert net.add_neuron(1.0) == 1
        assert net.add_synapse(0, 1) == 0
        assert net.add_neuron(1.0) == 2
        assert net.add_synapse(1, 2) == 1

    def test_duplicate_edge_rejected(self):
        net = Network()
        net.add_neuron(1.0), net.add_neuron(1.0)
        net.add_synapse(0, 1, 1.0, 1)
        with pytest.raises(DuplicateEdgeError):
            net.add_synapse(0, 1, 0.5, 2)

    def test_self_loop_rejected(self):
        net = Network()
        net.add_neuron(1.0)
        with pytest.raises(InvalidParameterError):
            net.add_synapse(0, 0)

    # A 0.0 sum would reach a threshold within FIRING_TOLERANCE of 0, so such
    # a threshold is rejected: a neuron fires only on input.
    @pytest.mark.parametrize("threshold", [0, -1.0, 1e-10, FIRING_TOLERANCE, math.nan, math.inf,
                                           -math.inf, True, False])
    def test_bad_threshold_rejected(self, threshold):
        with pytest.raises(InvalidParameterError,
                           match="threshold must be a finite number > 1e-09"):
            Network().add_neuron(threshold)

    @pytest.mark.parametrize("kwargs", [
        {"open_fraction": 1.5}, {"open_fraction": -0.1},
        {"distance": 0}, {"distance": -2}, {"multiplicity": 0},
        {"open_fraction": True}, {"open_fraction": False}, {"distance": True},
        {"multiplicity": True},
    ])
    def test_invalid_synapse_parameters(self, kwargs):
        net = Network()
        net.add_neuron(1.0), net.add_neuron(1.0)
        with pytest.raises(InvalidParameterError):
            net.add_synapse(0, 1, **kwargs)

    def test_missing_endpoint(self):
        net = Network()
        net.add_neuron(1.0)
        with pytest.raises(NotFoundError):
            net.add_synapse(0, 9)

    def test_set_open_fraction(self):
        # A rejection is excess per open input, so it reads the open input count.
        net, inputs, main = build_fan_in(2, 0.5)
        net.set_open_fraction(1, 0.25)
        assert net.synapses[1].open_fraction == 0.25
        assert net.step(inputs).rejections[main] == (1.25 - 0.5) / 2
        net.set_open_fraction(1, 0)
        assert net.synapses[1].open_fraction == 0.0
        net.reset_dynamics()
        assert net.step(inputs).rejections[main] == (1.0 - 0.5) / 1

    def test_open_input_count_follows_new_synapses(self):
        net, inputs, main = build_fan_in(2, 1.0)
        assert net.step(inputs).rejections[main] == (2.0 - 1.0) / 2
        net.add_synapse(net.add_neuron(1.0), main, 0.5, 1, multiplicity=3)
        net.reset_dynamics()
        assert net.step(inputs).rejections[main] == (2.0 - 1.0) / 5
        assert net.derived(Network._open_input_counts) == {main: 5}

    def test_delivery_follows_open_fraction_and_multiplicity(self):
        net, _inputs, main = build_fan_in(2, 1.0, open_fraction=0.3)
        bundled = net.add_synapse(net.add_neuron(1.0), main, 0.7, 1, multiplicity=3)
        syn = net.synapses[0]
        assert syn.delivery == 0.3
        net.set_open_fraction(0, 0.0)
        assert syn.delivery == 0.0
        net.set_open_fraction(0, 0.6)
        assert syn.delivery == 0.6
        assert net.synapses[bundled].delivery == 0.7 * 3
        restored = Network.from_json(net.to_json())
        for network in (net, restored):
            assert [s.delivery for s in network.synapses.values()] == [
                s.open_fraction * s.multiplicity for s in network.synapses.values()]

    def test_neurons_and_synapses_take_no_extra_attributes(self):
        net, _inputs, main = build_fan_in(1, 1.0)
        for obj in (net.neurons[main], net.synapses[0]):
            with pytest.raises(AttributeError):
                obj.extra = 1

    def test_incoming_is_a_fresh_list_in_id_order(self):
        rng = random.Random(5)
        net = Network()
        ids = [net.add_neuron(1.0) for _ in range(8)]
        for _ in range(30):
            pre, post = rng.sample(ids, 2)
            if net.synapse_between(pre, post) is None:
                net.add_synapse(pre, post, rng.choice([0.0, 0.5, 1.0]))
        for nid in ids:
            expected = [s for s in net.synapses.values() if s.post == nid]
            listed = net.incoming(nid)
            assert listed == expected
            assert all(a is b for a, b in zip(listed, expected))
            listed.clear()
            assert net.incoming(nid) == expected and net.incoming(nid) is not net.incoming(nid)

    @pytest.mark.parametrize("sid, fraction, error", [
        (0, 1.5, InvalidParameterError), (0, -0.1, InvalidParameterError),
        (0, float("nan"), InvalidParameterError), (7, 0.5, NotFoundError),
        (0, True, InvalidParameterError), (0, False, InvalidParameterError),
    ])
    def test_set_open_fraction_rejects(self, sid, fraction, error):
        net, _inputs, _main = build_fan_in(1, 1.0)
        with pytest.raises(error):
            net.set_open_fraction(sid, fraction)
        assert net.synapses[0].open_fraction == 1.0


TWO_NEURONS = ('{"neurons": [{"id": 0, "threshold": 1.0, "refractory": 0}, '
               '{"id": 1, "threshold": 1.0, "refractory": 0}], ')


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        net, inputs, main = build_fan_in(3, 2.5, open_fraction=0.75)
        net.step(inputs)
        text = net.to_json()
        assert Network.from_json(text).to_json() == text

    def test_schema_shape(self):
        net = Network()
        net.add_neuron(4.0), net.add_neuron(1.0)
        net.add_synapse(1, 0, 0.5, 3, multiplicity=2)
        assert net.to_json() == (
            '{"neurons": [{"id": 0, "threshold": 4.0, "refractory": 0}, '
            '{"id": 1, "threshold": 1.0, "refractory": 0}], '
            '"synapses": [{"pre": 1, "post": 0, "open_fraction": 0.5, '
            '"distance": 3, "multiplicity": 2}]}')

    def test_non_finite_value_is_not_written(self):
        net = Network()
        net.add_neuron(1.0)
        net.neurons[0].threshold = math.nan   # forced past the checks
        with pytest.raises(ValueError, match="not JSON compliant"):
            net.to_json()
        net.neurons[0].threshold = 1.0
        net.add_neuron(1.0)
        net.add_synapse(0, 1)
        net.synapses[0].open_fraction = math.inf
        with pytest.raises(ValueError, match="not JSON compliant"):
            net.to_json()

    def test_refractory_state_survives(self):
        net, inputs, main = build_fan_in(2, 1.0)
        net.step(inputs)
        restored = Network.from_json(net.to_json())
        assert restored.step().refractory == {main}

    def test_saved_signal_resumes_after_loading(self):
        # b fired on the saved tick, so the loaded copy both blocks b and
        # carries its signal on to c, as the original does.
        net = Network()
        a, b, c = (net.add_neuron(1.0) for _ in range(3))
        net.add_synapse(a, b)
        net.add_synapse(b, c)
        net.step([a])
        restored = Network.from_json(net.to_json())
        resumed, original = restored.step([a]), net.step([a])
        assert resumed.refractory == original.refractory == {b}
        assert resumed.fired == original.fired == {c}
        assert resumed.sources == original.sources == {a, b}

    @pytest.mark.parametrize("text", [
        "{not json",
        '{"neurons": [{"threshold": 1.0, "refractory": 0}], "synapses": []}',
        '{"neurons": [], "synapses": [{"pre": 0}]}',
        "[]",
        '{"neurons": [{"id": 0, "threshold": 1.0, "refractory": -3}], "synapses": []}',
        '{"neurons": [{"id": 0, "threshold": 1.0, "refractory": 2}], "synapses": []}',
        '{"neurons": [{"id": 0, "threshold": 1.0, "refractory": 2.5}], "synapses": []}',
        '{"neurons": [{"id": 0, "threshold": 1.0, "refractory": "x"}], "synapses": []}',
        '{"neurons": [{"id": 0, "threshold": 1.0, "refractory": true}], "synapses": []}',
        '{"neurons": [{"id": 0, "threshold": NaN, "refractory": 0}], "synapses": []}',
        '{"neurons": [{"id": 0, "threshold": Infinity, "refractory": 0}], "synapses": []}',
        '{"neurons": [{"id": 0, "threshold": -Infinity, "refractory": 0}], "synapses": []}',
        '{"neurons": [{"id": 0, "threshold": 0.0, "refractory": 0}], "synapses": []}',
        '{"neurons": [{"id": 0, "threshold": true, "refractory": 0}], "synapses": []}',
        *(TWO_NEURONS + '"synapses": [{"pre": 0, "post": 1, %s}]}' % fields for fields in (
            '"open_fraction": true, "distance": 1, "multiplicity": 1',
            '"open_fraction": 1.0, "distance": true, "multiplicity": 1',
            '"open_fraction": 1.0, "distance": 1, "multiplicity": true',
            '"open_fraction": false, "distance": 1, "multiplicity": 1')),
        TWO_NEURONS + '"synapses": [{"pre": 0, "post": 2, "open_fraction": 1.0, '
                      '"distance": 1, "multiplicity": 1}]}',
        TWO_NEURONS + '"synapses": [%s, %s]}' % (
            ('{"pre": 0, "post": 1, "open_fraction": 1.0, "distance": 1, "multiplicity": 1}',)
            * 2),
        "[" * 5000,
    ])
    def test_malformed_document_rejected(self, text):
        with pytest.raises(InvalidParameterError, match="malformed network document"):
            Network.from_json(text)


def random_network(rng, n_neurons=8, n_edges=12):
    net = Network()
    for _ in range(n_neurons):
        net.add_neuron(rng.randint(1, 4))
    added = 0
    while added < n_edges:
        pre, post = rng.randrange(n_neurons), rng.randrange(n_neurons)
        if pre == post or net.synapse_between(pre, post):
            continue
        net.add_synapse(pre, post, rng.choice([0.25, 0.5, 1.0]), rng.randint(1, 3))
        added += 1
    return net


class TestProperties:
    def test_determinism(self):
        rng = random.Random(11)
        schedule = [frozenset(rng.sample(range(8), rng.randint(0, 4)))
                    for _ in range(20)]
        runs = []
        for _ in range(2):
            net = random_network(random.Random(5))
            runs.append([net.step(ids) for ids in schedule])
        assert runs[0] == runs[1]

    def test_monotonicity_extra_input_never_unfires(self):
        rng = random.Random(7)
        for _ in range(50):
            net_a = random_network(rng, n_neurons=6, n_edges=9)
            net_b = Network.from_json(net_a.to_json())
            base = frozenset(rng.sample(range(6), rng.randint(0, 3)))
            extra = rng.randrange(6)
            fired_base = net_a.step(base).fired
            fired_more = net_b.step(base | {extra}).fired
            assert fired_base - {extra} <= fired_more

    def test_record_conservation(self):
        rng = random.Random(13)
        net = random_network(rng)
        for _ in range(15):
            ids = frozenset(rng.sample(range(8), rng.randint(0, 5)))
            record = net.step(ids)
            assert len(record.fired) <= len(net.neurons)
            for nid in record.fired:
                assert record.input_sums[nid] >= net.neurons[nid].threshold - 1e-9
