"""Forward/backward wave search: terminals, resonance, and combination."""

import copy
import dataclasses
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import find_terminals as oracle_find_terminals
from oracles import network_fingerprint as oracle_network_fingerprint
from renforge import (ConceptForest, GrowthConfig, InvalidCombinationError,
                      InvalidParameterError, Network, NotFoundError, RefinedSpec,
                      build_refined, combine_searches, find_terminals,
                      network_fingerprint, report_csv_rows, report_to_json,
                      resonate, run_until_balanced)
from renforge.harness.builders import build_direct_unit, network_from_forest
from renforge.resonance import DEFAULT_MAX_DEPTH, SEED_MEMO_LIMIT, _adjacency, _SeedMemo


def chain(length):
    net = Network()
    ids = [net.add_neuron(1.0) for _ in range(length)]
    for a, b in zip(ids, ids[1:]):
        net.add_synapse(a, b, 1.0, 1)
    return net, ids


class TestFindTerminals:
    def test_linear_chain(self):
        net, ids = chain(3)
        assert find_terminals(net) == {ids[-1]}

    def test_cycle_has_no_terminals(self):
        net = Network()
        a, b = net.add_neuron(1.0), net.add_neuron(1.0)
        net.add_synapse(a, b)
        net.add_synapse(b, a)
        assert find_terminals(net) == frozenset()

    def test_closed_synapses_do_not_count_as_outgoing(self):
        net, ids = chain(3)
        net.set_open_fraction(1, 0.0)
        assert find_terminals(net) == {ids[1], ids[2]}


class TestDerivedViews:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_views_match_naive_oracles_after_every_mutation(self, data):
        # Each view is read after every operation, so a view the next
        # operation fails to drop is compared against a changed network.
        fractions = st.sampled_from([0.0, 0.25, 1.0])
        net = Network()
        for _ in range(data.draw(st.integers(1, 40))):
            op = data.draw(st.sampled_from(["neuron", "synapse", "fraction", "step", "reset"]))
            ids = st.integers(0, max(len(net.neurons) - 1, 0))
            if op == "neuron" or len(net.neurons) < 2:
                net.add_neuron(data.draw(st.sampled_from([1.0, 2.0, 3.5])))
            elif op == "synapse":
                pre, post = data.draw(st.lists(ids, min_size=2, max_size=2, unique=True))
                if net.synapse_between(pre, post) is None:
                    net.add_synapse(pre, post, data.draw(fractions))
            elif op == "fraction" and net.synapses:
                sid = data.draw(st.integers(0, len(net.synapses) - 1))
                net.set_open_fraction(sid, data.draw(fractions))
            elif op == "step":
                net.step(data.draw(st.sets(ids)))
            elif op == "reset":
                net.reset_dynamics()
            assert network_fingerprint(net) == oracle_network_fingerprint(net)
            assert find_terminals(net) == oracle_find_terminals(net)
            assert net.derived(_adjacency) == oracles.adjacency(net)
            counts = net.derived(Network._open_input_counts)
            assert all(counts.get(nid, 0) == oracles.open_input_count(net, nid)
                       for nid in net.neurons)
            seeds = data.draw(st.sets(st.integers(0, len(net.neurons) - 1), min_size=1))
            restored = Network.from_json(net.to_json())
            assert (report_to_json(resonate(net, seeds))
                    == report_to_json(resonate(restored, seeds)))

    def test_ticks_keep_topology_views_and_mutators_drop_them(self):
        # A tick changes only the firing state, and only the fingerprint reads it.
        net, ids = chain(3)
        resonate(net, {ids[0]})     # fills the seed memo
        builders = (_adjacency, Network._open_input_counts, _SeedMemo)
        views = [net.derived(build) for build in builders]
        assert views[-1]
        for tick in (lambda: net.step([]), lambda: net.step([ids[0]]), net.reset_dynamics):
            network_fingerprint(net)
            tick()
            assert all(net.derived(build) is view for build, view in zip(builders, views))
            assert network_fingerprint(net) == oracle_network_fingerprint(net)
        for mutate in (lambda: net.add_neuron(1.0), lambda: net.add_synapse(ids[2], 3),
                       lambda: net.set_open_fraction(0, 0.5)):
            for build in (*builders, Network._fingerprint):
                net.derived(build)
            mutate()
            assert net._derived == {}

    def test_adjacency_follows_closing_and_reopening(self):
        net = Network()
        a, b, c = (net.add_neuron(1.0) for _ in range(3))
        net.add_synapse(a, c)
        net.add_synapse(b, c)
        net.add_synapse(a, b)
        successors, predecessors = net.derived(_adjacency)
        assert successors == [((a, c), (a, b)), ((b, c),), ()]
        assert predecessors == [(), ((a, b),), ((a, c), (b, c))]
        # Both sides share the network's own key tuple for each edge.
        assert successors[a][0] is predecessors[c][0] is next(iter(net._edges))
        net.set_open_fraction(0, 0.0)
        assert net.derived(_adjacency) == oracles.adjacency(net)
        assert net.derived(_adjacency)[1][c] == ((b, c),)
        net.set_open_fraction(0, 0.5)
        assert net.derived(_adjacency) == (successors, predecessors)


class TestResonate:
    def test_chain_resonates_fully(self):
        net, ids = chain(3)
        report = resonate(net, {ids[0]})
        edges = {(ids[0], ids[1]), (ids[1], ids[2])}
        assert set(report.forward_visits) == edges
        assert all(report.forward_visits[e] == 1 for e in edges)
        assert all(report.backward_visits[e] == 1 for e in edges)
        assert all(report.resonance[e] == 1 for e in edges)
        assert report.recognized_path == edges
        assert report.terminals_hit == {ids[2]}

    def test_cycle_branch_reflects_nothing(self):
        net = Network()
        seed, x, y, terminal = (net.add_neuron(1.0) for _ in range(4))
        net.add_synapse(seed, x)
        net.add_synapse(x, y)
        net.add_synapse(y, x)          # dead-end cycle
        net.add_synapse(seed, terminal)
        report = resonate(net, {seed})
        assert report.backward_visits.get((seed, x), 0) == 0
        assert (seed, x) not in report.recognized_path
        assert (seed, terminal) in report.recognized_path
        assert report.terminals_hit == {terminal}

    def test_no_terminal_within_depth_means_no_recognition(self):
        net, ids = chain(6)
        report = resonate(net, {ids[0]}, max_depth=2)
        assert report.terminals_hit == frozenset()
        assert report.recognized_path == frozenset()

    def test_joint_seeds_reinforce_shared_channel(self):
        net = Network()
        a, b, shared, terminal = (net.add_neuron(1.0) for _ in range(4))
        net.add_synapse(a, shared)
        net.add_synapse(b, shared)
        net.add_synapse(shared, terminal)
        joint = resonate(net, {a, b})
        only_a = resonate(net, {a})
        only_b = resonate(net, {b})
        middle = (shared, terminal)
        assert joint.resonance[middle] == 2
        assert (joint.forward_visits[middle]
                == only_a.forward_visits[middle] + only_b.forward_visits[middle])
        assert (joint.backward_visits[middle]
                == only_a.backward_visits[middle] + only_b.backward_visits[middle])

    def test_closed_paths_are_not_traversed(self):
        net, ids = chain(3)
        net.set_open_fraction(0, 0.0)
        report = resonate(net, {ids[0]})
        assert report.forward_visits == {}
        assert report.recognized_path == frozenset()

    def test_refractory_neurons_do_not_reflect(self):
        # Only terminals reflect, so a tick changes the snapshot's hash alone.
        net, ids = chain(4)
        quiet = resonate(net, {ids[0]})
        net.step([ids[1]])
        assert json.loads(net.to_json())["neurons"][ids[2]]["refractory"] == 1
        driven = resonate(net, {ids[0]})
        assert driven.network_hash != quiet.network_hash
        assert dataclasses.replace(driven, network_hash=quiet.network_hash) == quiet
        assert driven.terminals_hit == {ids[3]}

    def test_adding_a_seed_never_decreases_resonance(self):
        net = Network()
        nodes = [net.add_neuron(1.0) for _ in range(6)]
        for pre, post in ((0, 2), (1, 2), (2, 3), (3, 4), (1, 5)):
            net.add_synapse(nodes[pre], nodes[post])
        small = resonate(net, {nodes[0]})
        large = resonate(net, {nodes[0], nodes[1]})
        for edge, value in small.resonance.items():
            assert large.resonance[edge] >= value

    def test_errors(self):
        net, ids = chain(2)
        with pytest.raises(InvalidParameterError):
            resonate(net, set())
        for seeds in ({99}, {True}, {1.0}):
            with pytest.raises(NotFoundError, match="unknown neuron id"):
                resonate(net, seeds)
        with pytest.raises(InvalidParameterError):
            resonate(net, {ids[0]}, max_depth=0)


def assert_same_report(report, expected):
    # The oracle's record stores all eight names; the library reads
    # resonance and recognized_path from its waves.
    for field in dataclasses.fields(expected):
        assert getattr(report, field.name) == getattr(expected, field.name), field.name
    assert list(report.resonance) == list(report.forward_visits)
    assert report_to_json(report) == oracles.report_to_json(expected)
    assert report_csv_rows(report) == oracles.report_csv_rows(expected)


class TestResonateMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_graphs(self, data):
        # Random digraphs with closed synapses and cycles; steps leave
        # neurons refractory, which the search must not read.
        size = data.draw(st.integers(2, 12))
        net = Network()
        for _ in range(size):
            net.add_neuron(data.draw(st.sampled_from([1.0, 2.0])))
        ids = st.integers(0, size - 1)
        pairs = data.draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]),
                                   max_size=30, unique=True))
        for pre, post in pairs:
            net.add_synapse(pre, post, data.draw(st.sampled_from([0.0, 0.5, 1.0])))
        # A reload swaps the library's network for one loaded from its
        # document; the oracle keeps the network that was never reloaded.
        twin = net
        for op in data.draw(st.lists(st.sampled_from(["step", "reload"]), max_size=4)):
            if op == "reload":
                net = Network.from_json(net.to_json())
            else:
                drive = data.draw(st.sets(ids))
                net.step(drive)
                if twin is not net:
                    twin.step(drive)
        reports = []
        for _ in range(data.draw(st.integers(1, 3))):
            if data.draw(st.booleans()):
                net = Network.from_json(net.to_json())
            seeds = data.draw(st.sets(ids, min_size=1, max_size=4))
            depth = data.draw(st.integers(1, 12))
            report = resonate(net, seeds, depth)
            expected = oracles.resonate(twin, seeds, depth)
            assert_same_report(report, expected)
            reports.append((report, expected))
        combined, expected = reports[0]
        for report, oracle_report in reports[1:]:
            combined = combine_searches(combined, report)
            expected = oracles.combine_searches(expected, oracle_report)
            assert_same_report(combined, expected)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_repeated_queries_between_ticks_and_mutations(self, data):
        # Few seeds and depths, so queries meet memo entries that earlier
        # queries, ticks and topology changes left behind.
        size = data.draw(st.integers(2, 8))
        net = Network()
        for _ in range(size):
            net.add_neuron(1.0)
        ids = st.integers(0, size - 1)
        pairs = st.tuples(ids, ids).filter(lambda e: e[0] != e[1])
        fractions = st.sampled_from([0.0, 0.5, 1.0])
        for pre, post in data.draw(st.lists(pairs, max_size=20, unique=True)):
            net.add_synapse(pre, post, data.draw(fractions))
        for _ in range(data.draw(st.integers(1, 10))):
            op = data.draw(st.sampled_from(["query", "query", "step", "synapse", "fraction"]))
            if op == "step":
                net.step(data.draw(st.sets(ids)))
            elif op == "synapse":
                pre, post = data.draw(pairs)
                if net.synapse_between(pre, post) is None:
                    net.add_synapse(pre, post, data.draw(fractions))
            elif op == "fraction" and net.synapses:
                net.set_open_fraction(data.draw(st.integers(0, len(net.synapses) - 1)),
                                      data.draw(fractions))
            seeds = data.draw(st.sets(ids, min_size=1, max_size=4))
            depth = data.draw(st.sampled_from([1, 2, 3, DEFAULT_MAX_DEPTH]))
            assert_same_report(resonate(net, seeds, depth),
                               oracles.resonate(net, seeds, depth))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_forest_networks_queried_from_their_roots(self, data):
        # The benchmark's traffic: a corpus into a forest, the forest into
        # a network, then queries from sets of roots.  Splits link one tree
        # into another, so a seed's backward wave can stop where another
        # seed's forward wave came in.
        words = st.sampled_from("abcdef")
        corpus = data.draw(st.lists(st.lists(words, min_size=1, max_size=6),
                                    min_size=1, max_size=30))
        forest = ConceptForest()
        for tokens in corpus:
            forest.insert_sequence(tokens)
        net, _labels, roots = network_from_forest(forest)
        for _ in range(data.draw(st.integers(1, 6))):
            seeds = data.draw(st.sets(st.sampled_from(roots), min_size=1, max_size=4))
            depth = data.draw(st.sampled_from([1, 2, 3, DEFAULT_MAX_DEPTH]))
            assert_same_report(resonate(net, seeds, depth),
                               oracles.resonate(net, seeds, depth))


def _query_many(net, data):
    # Depths come from a short list and large seed sets overlap, so later
    # queries meet memo entries that earlier ones filled; the first query
    # runs again last, from a full memo.
    ids = st.sampled_from(sorted(net.neurons))
    depths = st.sampled_from([1, 2, 3, DEFAULT_MAX_DEPTH])
    size = min(64, len(net.neurons))
    queries = data.draw(st.lists(st.tuples(st.sets(ids, min_size=1, max_size=size), depths),
                                 min_size=1, max_size=4))
    for seeds, depth in [*queries, queries[0]]:
        assert_same_report(resonate(net, seeds, depth), oracles.resonate(net, seeds, depth))


class TestConvergentNetworksMatchOracle:
    # Nodes with several incoming edges: a seed's backward wave leaves a
    # crossing at every other seed's way in, unlike on a forest.
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_refined_units(self, data):
        net = Network()
        for _ in range(data.draw(st.integers(1, 2))):
            group_size = data.draw(st.integers(2, 5))
            build_refined(net, RefinedSpec(
                input_count=data.draw(st.integers(2, 80)), group_size=group_size,
                group_threshold=data.draw(st.integers(1, group_size)), main_threshold=1,
                layers=data.draw(st.integers(1, 2))))
        _query_many(net, data)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_direct_units_grown_to_balance(self, data):
        count = data.draw(st.integers(8, 64))
        net, inputs, _main = build_direct_unit(count, data.draw(st.integers(2, count // 4)))
        extra = data.draw(st.lists(st.sets(st.sampled_from(inputs), min_size=1), max_size=3))
        grown = run_until_balanced(net, [inputs, *extra], GrowthConfig(bud_threshold=1.0), 200)
        assume(grown.intermediaries_created)
        _query_many(net, data)


def _held(memo):
    """The items a seed memo holds by its own count."""
    return sum(len(waves.forward) + len(waves.crossings) + 1 for waves in memo.values())


class TestSeedMemo:
    def test_separable_and_non_separable_pairs(self):
        # a and b reach t over their own branches, and d reaches u apart.
        # a's backward wave from t crosses into x only over a's edges; once
        # b joins, t's reflection also flows back into b's branch, so the
        # pair's backward wave is not the sum of its seeds'.  p and q sit on
        # one cycle, so their waves cross the same edges and do add up.
        net = Network()
        a, b, c, d, x, t, u, p, q, r = (net.add_neuron(1.0) for _ in range(10))
        for pre, post in ((a, x), (x, t), (b, t), (c, u), (d, c), (p, q), (q, p), (q, r)):
            net.add_synapse(pre, post)
        alone = {seed: resonate(net, {seed}) for seed in (a, b, d, p, q)}
        joint = resonate(net, {a, b})
        assert joint.backward_visits == {(x, t): 2, (a, x): 2, (b, t): 2}
        assert alone[a].backward_visits[(a, x)] + alone[b].backward_visits.get((a, x), 0) == 1
        for seeds in ({a, b}, {a, d}, {p, q}):
            report = resonate(net, seeds)
            assert_same_report(report, oracles.resonate(net, seeds))
            if seeds != {a, b}:
                assert all(report.backward_visits[edge] == sum(
                    alone[seed].backward_visits.get(edge, 0) for seed in seeds)
                    for edge in report.backward_visits)

    def test_crossing_at_the_last_layer(self):
        # a's backward wave reaches x with one layer left and stops at
        # (c, x), which c's forward wave crossed.  In the union the flow
        # crosses it and stops at c, though (y, c) is a forward edge too.
        net = Network()
        a, c, x, y, t = (net.add_neuron(1.0) for _ in range(5))
        for pre, post in ((a, x), (x, t), (c, x), (c, y), (y, c)):
            net.add_synapse(pre, post)
        report = resonate(net, {a, c}, 2)
        memo = net.derived(_SeedMemo)
        assert memo[(a, 2)].crossings == (((c, x), 1, 1),)
        assert memo[(c, 2)].crossings == (((a, x), 1, 1),)
        assert (y, c) in report.forward_visits
        assert report.backward_visits == {(x, t): 2, (a, x): 2, (c, x): 2}
        assert_same_report(report, oracles.resonate(net, {a, c}, 2))

    @pytest.mark.parametrize("depth, flow", [(4, 2), (5, 3), (DEFAULT_MAX_DEPTH, 3)])
    def test_continuation_runs_on_into_a_third_seeds_tree(self, depth, flow):
        # Three trees linked into a chain, as splits link them: r1 -> n1
        # -> r2 -> n2 -> r3 -> n3.  r3's backward wave stops at (n2, r3);
        # its continuation climbs through r2's tree into r1's, as far as
        # its layers reach.  At depth 4 r1's wave does not reach n3.
        net = Network()
        r1, n1, r2, n2, r3, n3 = (net.add_neuron(1.0) for _ in range(6))
        chain_edges = ((r1, n1), (n1, r2), (r2, n2), (n2, r3), (r3, n3))
        for pre, post in chain_edges:
            net.add_synapse(pre, post)
        report = resonate(net, {r1, r2, r3}, depth)
        memo = net.derived(_SeedMemo)
        assert memo[(r3, depth)].backward == {(r3, n3): 1}
        assert memo[(r3, depth)].crossings == (((n2, r3), depth - 1, 1),)
        reached = chain_edges[max(0, 5 - depth):]
        assert report.backward_visits == dict.fromkeys(reached, flow)
        assert_same_report(report, oracles.resonate(net, {r1, r2, r3}, depth))

    def test_memo_records_each_crossing_with_its_layer_and_flow(self):
        # a reaches t over two paths, so its backward flow is 2; b and c
        # come in at t and at x, one layer apart.
        net = Network()
        a, b, c, x, y, t = (net.add_neuron(1.0) for _ in range(6))
        for pre, post in ((a, x), (a, y), (x, t), (y, t), (b, t), (c, x)):
            net.add_synapse(pre, post)
        assert resonate(net, {a}, 3).backward_visits == {(x, t): 2, (y, t): 2,
                                                         (a, x): 2, (a, y): 2}
        memo = net.derived(_SeedMemo)
        assert memo[(a, 3)].crossings == (((b, t), 3, 2), ((c, x), 2, 2))
        assert memo[(a, 3)].terminals == {t}
        for seeds in ({a, b}, {a, c}, {a, b, c}):
            assert_same_report(resonate(net, seeds, 3), oracles.resonate(net, seeds, 3))

    def test_no_query_writes_into_a_memo_dict(self):
        net = Network()
        a, c, x, y, t = (net.add_neuron(1.0) for _ in range(5))
        for pre, post in ((a, x), (x, t), (c, x), (c, y), (y, c)):
            net.add_synapse(pre, post)
        for seeds in ({a}, {c}):
            resonate(net, seeds)
        memo = net.derived(_SeedMemo)
        held = {key: copy.deepcopy(waves) for key, waves in memo.items()}
        for seeds in ({a, c}, {a}, {c}, {a, c}):
            report = resonate(net, seeds)
            assert_same_report(report, oracles.resonate(net, seeds))
            assert all(counts is not waves.forward and counts is not waves.backward
                       for counts in (report.forward_visits, report.backward_visits)
                       for waves in memo.values())
        assert memo == held

    @pytest.mark.parametrize("seeds", [{0}, {0, 3}, {0, 1}])
    def test_mutating_a_report_leaves_the_next_one_alone(self, seeds):
        net = Network()
        for _ in range(6):
            net.add_neuron(1.0)
        for pre, post in ((0, 1), (1, 2), (0, 4), (3, 4), (4, 5)):
            net.add_synapse(pre, post)
        first = resonate(net, seeds)
        for counts in (first.forward_visits, first.backward_visits, first.resonance):
            for edge in counts:
                counts[edge] = 99
            counts[(5, 0)] = 7
        assert_same_report(resonate(net, seeds), oracles.resonate(net, seeds))

    def test_memo_empties_at_its_bound(self):
        # Past the first seed, each seed's backward wave stops at the edge
        # into it: one crossing per entry.
        net, ids = chain(10)
        limit = SEED_MEMO_LIMIT * (len(net.synapses) + 1)
        held = emptied = 0
        for seed in ids:
            report = resonate(net, {seed})
            assert_same_report(report, oracles.resonate(net, {seed}))
            memo = net.derived(_SeedMemo)
            waves = memo[(seed, DEFAULT_MAX_DEPTH)]
            assert len(waves.crossings) == (seed > 0)
            cost = len(waves.forward) + len(waves.crossings) + 1
            if held + cost > limit:
                held, emptied = 0, emptied + 1
            held += cost
            assert _held(memo) == held <= limit
        assert emptied

    def test_memo_bound_counts_crossings(self):
        # Every input of a direct unit feeds the main neuron, so an input's
        # entry holds one forward edge and a crossing per other input.
        net, inputs, _main = build_direct_unit(500, 5.0)
        for seed in inputs:
            report = resonate(net, {seed})
            assert_same_report(report, oracles.resonate(net, {seed}))
            memo = net.derived(_SeedMemo)
            assert len(memo[(seed, DEFAULT_MAX_DEPTH)].crossings) == 499
            assert _held(memo) <= memo.limit == SEED_MEMO_LIMIT * (len(net.synapses) + 1)


class TestDerivedFields:
    def test_replaced_waves_are_read_afresh(self):
        net, ids = chain(3)
        report = resonate(net, {ids[0]})
        assert report.resonance == {(ids[0], ids[1]): 1, (ids[1], ids[2]): 1}
        assert report.recognized_path == {(ids[0], ids[1]), (ids[1], ids[2])}
        last = (ids[1], ids[2])
        replaced = dataclasses.replace(report, backward_visits={last: 1})
        assert replaced.resonance == {(ids[0], ids[1]): 0, last: 1}
        assert replaced.recognized_path == {last}
        assert report.resonance[(ids[0], ids[1])] == 1

    def test_reading_before_combining_leaves_the_sum_alone(self):
        net = Network()
        a, b, shared, terminal = (net.add_neuron(1.0) for _ in range(4))
        for pre, post in ((a, shared), (b, shared), (shared, terminal)):
            net.add_synapse(pre, post)
        ra, rb = resonate(net, {a}), resonate(net, {b})
        assert ra.resonance[(shared, terminal)] == rb.resonance[(shared, terminal)] == 1
        assert ra.recognized_path and rb.recognized_path
        assert_same_report(combine_searches(ra, rb), oracles.combine_searches(
            oracles.resonate(net, {a}), oracles.resonate(net, {b})))


class TestCombineSearches:
    def test_identity_with_empty_report(self):
        net = Network()
        isolated = net.add_neuron(1.0)
        seed = net.add_neuron(1.0)
        terminal = net.add_neuron(1.0)
        net.add_synapse(seed, terminal)
        full = resonate(net, {seed})
        empty = resonate(net, {isolated})
        combined = combine_searches(full, empty)
        assert combined.forward_visits == full.forward_visits
        assert combined.backward_visits == full.backward_visits
        assert combined.resonance == full.resonance

    def test_disjoint_paths_union(self):
        net = Network()
        a1, a2 = net.add_neuron(1.0), net.add_neuron(1.0)
        b1, b2 = net.add_neuron(1.0), net.add_neuron(1.0)
        net.add_synapse(a1, a2)
        net.add_synapse(b1, b2)
        combined = combine_searches(resonate(net, {a1}), resonate(net, {b1}))
        assert combined.recognized_path == {(a1, a2), (b1, b2)}

    def test_overlap_strictly_higher_than_either(self):
        net = Network()
        a, b, shared, terminal = (net.add_neuron(1.0) for _ in range(4))
        net.add_synapse(a, shared)
        net.add_synapse(b, shared)
        net.add_synapse(shared, terminal)
        ra, rb = resonate(net, {a}), resonate(net, {b})
        combined = combine_searches(ra, rb)
        middle = (shared, terminal)
        assert combined.resonance[middle] > ra.resonance[middle]
        assert combined.resonance[middle] > rb.resonance[middle]

    def test_commutative_and_associative(self):
        net = Network()
        nodes = [net.add_neuron(1.0) for _ in range(5)]
        for pre, post in ((0, 3), (1, 3), (2, 3), (3, 4)):
            net.add_synapse(nodes[pre], nodes[post])
        ra = resonate(net, {nodes[0]})
        rb = resonate(net, {nodes[1]})
        rc = resonate(net, {nodes[2]})
        ab = combine_searches(ra, rb)
        ba = combine_searches(rb, ra)
        assert ab.forward_visits == ba.forward_visits
        left = combine_searches(combine_searches(ra, rb), rc)
        right = combine_searches(ra, combine_searches(rb, rc))
        assert left.forward_visits == right.forward_visits
        assert left.backward_visits == right.backward_visits

    def test_mismatched_snapshots_rejected(self):
        net_a, ids_a = chain(2)
        net_b, ids_b = chain(3)
        with pytest.raises(InvalidCombinationError):
            combine_searches(resonate(net_a, {ids_a[0]}),
                             resonate(net_b, {ids_b[0]}))


class TestReportEmission:
    def test_json_and_csv_are_consistent(self):
        net, ids = chain(3)
        report = resonate(net, {ids[0]})
        doc = json.loads(report_to_json(report))
        assert doc["seeds"] == [ids[0]]
        assert doc["terminals_hit"] == [ids[2]]
        assert len(doc["edges"]) == 2
        rows = report_csv_rows(report)
        assert rows[0] == ["pre", "post", "forward", "backward", "resonance"]
        assert len(rows) == 3
        assert rows[1] == [ids[0], ids[1], 1, 1, 1]

    def test_non_finite_value_is_not_written(self):
        net, ids = chain(3)
        report = resonate(net, {ids[0]})
        edge = next(iter(report.forward_visits))
        forced = dataclasses.replace(
            report, forward_visits={**report.forward_visits, edge: math.inf})
        with pytest.raises(ValueError, match="not JSON compliant"):
            report_to_json(forced)

    @pytest.mark.parametrize("value", [math.nan, 2.5, True])
    def test_count_that_is_not_an_integer_is_not_written(self, value):
        # The writers format integer counts, so any other count is refused.
        net, ids = chain(3)
        report = resonate(net, {ids[0]})
        edge = next(iter(report.backward_visits))
        forced = dataclasses.replace(
            report, backward_visits={**report.backward_visits, edge: value})
        for write in (report_to_json, report_csv_rows):
            with pytest.raises(ValueError, match="not JSON compliant"):
                write(forced)

    def test_emission_is_deterministic(self):
        net, ids = chain(4)
        first = report_to_json(resonate(net, {ids[0]}))
        second = report_to_json(resonate(net, {ids[0]}))
        assert first == second
