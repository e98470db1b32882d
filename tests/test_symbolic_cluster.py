"""Event clustering, fuzzy reinforcement, global concepts, and retrieval."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from renforge import ClusterNet, InvalidParameterError, NotFoundError
from renforge.harness.artifacts import read_lines

FIG3_EVENTS = [("c0", "c1", "c2"), ("c1", "c2", "c3"), ("c2", "c3", "c4")]


class TestPresentEvent:
    def test_exact_repeat_reinforces(self):
        net = ClusterNet()
        first = net.present_event({"c1", "c2", "c3"})
        second = net.present_event({"c1", "c2", "c3"})
        assert first.created == 0
        assert second.created is None
        assert net.hidden[0].weight == 2.0

    def test_duplicate_labels_collapse(self):
        net = ClusterNet()
        net.present_event(["x", "x", "y"])
        assert net.hidden[0].inputs == frozenset({"x", "y"})

    def test_fuzzy_reinforces_nested_subset_only(self):
        net = ClusterNet()
        net.present_event({"c2", "c3"})
        net.present_event({"c1", "c5"})
        report = net.present_event({"c1", "c2", "c3"}, fuzzy=True)
        assert net.hidden[0].weight == 2.0   # contained in the presentation
        assert net.hidden[1].weight == 1.0   # c5 is outside it
        assert report.reinforced == (0,)
        assert report.created == 2

    def test_exact_mode_does_not_touch_subsets(self):
        net = ClusterNet()
        net.present_event({"c2", "c3"})
        net.present_event({"c1", "c2", "c3"})
        assert net.hidden[0].weight == 1.0

    def test_three_overlapping_events_form_one_global(self):
        net = ClusterNet()
        for event in FIG3_EVENTS:
            net.present_event(event)
        assert len(net.hidden) == 3
        assert len(net.global_concepts) == 1
        assert net.global_concepts[0].members == (0, 1, 2)

    def test_disjoint_events_form_separate_globals(self):
        net = ClusterNet()
        net.present_event({"a", "b"})
        net.present_event({"x", "y"})
        assert len(net.global_concepts) == 2

    def test_new_bases_recorded(self):
        net = ClusterNet()
        net.present_event({"b", "a"})
        assert net.base_concepts == {"a", "b"}
        net.present_event({"a", "c"})
        assert net.base_concepts == {"a", "b", "c"}
        assert net.event_count == 2

    def test_empty_event_rejected(self):
        with pytest.raises(InvalidParameterError):
            ClusterNet().present_event(set())

    @pytest.mark.parametrize("labels", [["a", 1], [1, 2], [["a"]], ["a", None]])
    def test_non_string_labels_rejected_without_change(self, labels):
        net = ClusterNet(decay=0.5)
        net.present_event(["a", "b"])
        before = net.to_json()
        with pytest.raises(InvalidParameterError, match="event label must be a string"):
            net.present_event(labels, fuzzy=True)
        assert net.to_json() == before
        net.present_event(["a", "b"])
        assert net.event_count == 2

    @pytest.mark.parametrize("decay", [-0.1, math.nan, math.inf, True, "0.1", None])
    def test_bad_decay_rejected(self, decay):
        with pytest.raises(InvalidParameterError, match="decay must be a finite number"):
            ClusterNet(decay=decay)
        text = ClusterNet().to_json().replace('"decay": 0.0', f'"decay": {json.dumps(decay)}')
        with pytest.raises(InvalidParameterError, match="decay must be a finite number"):
            ClusterNet.from_json(text)

    def test_decay_lowers_untouched_nodes(self):
        net = ClusterNet(decay=0.25)
        net.present_event({"a"})
        net.present_event({"b"})
        assert net.hidden[0].weight == 0.75
        net.present_event({"a"})
        assert net.hidden[0].weight == 1.75
        assert net.hidden[1].weight == 0.75


class TestRetrieve:
    def test_recipe_query_returns_feature_sets(self):
        net = ClusterNet()
        for event in FIG3_EVENTS:
            net.present_event(event)
        assert net.retrieve(0) == [(frozenset(e), 1.0) for e in FIG3_EVENTS]

    def test_weight_orders_before_creation_order(self):
        net = ClusterNet()
        net.present_event({"a", "b"})
        net.present_event({"b", "c"})
        net.present_event({"b", "c"})
        assert net.retrieve(0) == [(frozenset({"b", "c"}), 2.0),
                                   (frozenset({"a", "b"}), 1.0)]

    def test_singleton_global(self):
        net = ClusterNet()
        net.present_event({"solo"})
        assert net.retrieve(0) == [(frozenset({"solo"}), 1.0)]

    def test_unknown_global(self):
        with pytest.raises(NotFoundError):
            ClusterNet().retrieve(3)

    @pytest.mark.parametrize("concept_id", [True, False, 1.0, "1", None, -1, 2])
    def test_id_must_be_a_listed_int(self, concept_id):
        net = ClusterNet()
        net.present_event({"a"})
        net.present_event({"b"})
        assert net.retrieve(1) == [(frozenset({"b"}), 1.0)]
        with pytest.raises(NotFoundError, match="unknown global concept"):
            net.retrieve(concept_id)

    def test_decayed_then_pruned_node_disappears(self):
        net = ClusterNet(decay=1.0)
        net.present_event({"x1", "x2"})
        net.present_event({"x2", "y"})     # first node decays to zero
        assert net.hidden[0].weight == 0.0
        assert net.prune(0.0) == [0]
        assert net.retrieve(0) == [(frozenset({"x2", "y"}), 1.0)]


class TestPrune:
    def test_nothing_above_threshold_removed(self):
        net = ClusterNet()
        net.present_event({"a"})
        assert net.prune(0.5) == []
        assert len(net.hidden) == 1

    def test_dead_node_removed_isolated_survivor_stays_grouped(self):
        net = ClusterNet()
        net.present_event({"c0", "c1"})
        net.present_event({"c1", "c2"})
        net.present_event({"c3", "c4"})
        net.hidden[2].weight = 0.0
        assert net.prune(0.0) == [2]
        assert len(net.global_concepts) == 1
        assert net.global_concepts[0].members == (0, 1)
        assert "c4" in net.base_concepts   # bases are retained

    def test_removing_bridge_splits_global(self):
        net = ClusterNet()
        net.present_event({"a", "b"})
        net.present_event({"b", "c"})
        net.present_event({"c", "d"})
        assert len(net.global_concepts) == 1
        net.hidden[1].weight = 0.0
        net.prune(0.0)
        assert len(net.global_concepts) == 2
        assert [g.members for g in net.global_concepts] == [(0,), (2,)]

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidParameterError):
            ClusterNet().prune(-1)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, True, "0", None])
    def test_non_finite_or_non_number_threshold_rejected(self, threshold):
        net = ClusterNet()
        net.present_event({"a"})
        with pytest.raises(InvalidParameterError, match="threshold must be a finite number"):
            net.prune(threshold)
        assert list(net.hidden) == [0]


def brute_force_components(net):
    """Oracle: repeated pairwise merging until the overlap closure is stable."""
    groups = [{hid} for hid in sorted(net.hidden)]
    changed = True
    while changed:
        changed = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                overlap = any(net.hidden[a].inputs & net.hidden[b].inputs
                              for a in groups[i] for b in groups[j])
                if overlap:
                    groups[i] |= groups[j]
                    del groups[j]
                    changed = True
                    break
            if changed:
                break
    return sorted(tuple(sorted(g)) for g in groups)


class TestProperties:
    def test_partition_matches_brute_force_closure(self):
        rng = random.Random(21)
        pool = [f"c{i}" for i in range(9)]
        for _ in range(100):
            net = ClusterNet()
            for _ in range(rng.randint(1, 8)):
                net.present_event(rng.sample(pool, rng.randint(1, 4)))
            computed = sorted(g.members for g in net.global_concepts)
            assert computed == brute_force_components(net)
            members = [hid for g in net.global_concepts for hid in g.members]
            assert sorted(members) == sorted(net.hidden)   # a true partition

    def test_fuzzy_reinforcement_iff_subset(self):
        rng = random.Random(22)
        pool = [f"c{i}" for i in range(8)]
        for _ in range(200):
            net = ClusterNet()
            for _ in range(rng.randint(0, 5)):
                net.present_event(rng.sample(pool, rng.randint(1, 4)))
            before = {hid: node.weight for hid, node in net.hidden.items()}
            event = frozenset(rng.sample(pool, rng.randint(1, 5)))
            net.present_event(event, fuzzy=True)
            for hid, old in before.items():
                assert (net.hidden[hid].weight > old) == (net.hidden[hid].inputs <= event)

    def test_weights_never_decrease_without_decay(self):
        rng = random.Random(23)
        pool = [f"c{i}" for i in range(6)]
        net = ClusterNet()
        floor = {}
        for _ in range(60):
            net.present_event(rng.sample(pool, rng.randint(1, 3)),
                              fuzzy=rng.random() < 0.5)
            for hid, node in net.hidden.items():
                assert node.weight >= floor.get(hid, 0.0)
                floor[hid] = node.weight

    def test_retrieval_order_is_deterministic(self):
        def build():
            net = ClusterNet()
            net.present_event({"a", "b"})
            net.present_event({"b", "c"})
            net.present_event({"a", "b"})
            return net.retrieve(0)
        assert build() == build()


class TestIngestEvents:
    def test_tsv_stream(self):
        net = ClusterNet()
        lines = ["0\tc0,c1,c2", "1\tc1,c2,c3", "2.5\tc2, c3 ,c4", ""]
        reports = net.ingest_events(lines)
        assert len(reports) == 3
        assert len(net.hidden) == 3
        assert net.hidden[2].inputs == frozenset({"c2", "c3", "c4"})

    def test_times_must_strictly_increase(self):
        with pytest.raises(InvalidParameterError):
            ClusterNet().ingest_events(["1\ta,b", "1\tb,c"])

    def test_missing_tab_rejected(self):
        with pytest.raises(InvalidParameterError):
            ClusterNet().ingest_events(["0 a,b"])

    def test_bad_time_rejected(self):
        with pytest.raises(InvalidParameterError):
            ClusterNet().ingest_events(["soon\ta,b"])

    @pytest.mark.parametrize("line", ["1.0\t\n", "1.0\t , \n"])
    def test_line_without_labels_rejected(self, line):
        with pytest.raises(InvalidParameterError, match="line 2: event concept set is empty"):
            ClusterNet().ingest_events(["0.5\ta,b\n", line])

    @pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
    def test_non_finite_time_rejected(self, time):
        with pytest.raises(InvalidParameterError, match="line 2: time must be finite"):
            ClusterNet().ingest_events(["1.0\ta,b", f"{time}\tb,c", "0.5\tc,d"])

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("0\ta,b\n1\tb,c\n", encoding="utf-8")
        net = ClusterNet()
        net.ingest_events(read_lines(path))
        assert len(net.hidden) == 2


def _cluster_doc(changes, *more):
    """A one-node cluster document with ``changes`` applied to the node,
    followed by the ``more`` nodes and the global concepts those nodes
    derive; string values are written unquoted."""
    nodes = [dict({"id": 0, "inputs": ["a"], "weight": 1.0, "created_at": 0}, **changes)]
    nodes += [dict(nodes[0], **extra) for extra in more]
    components = []   # (member ids, labels), merged wherever the labels overlap
    for node in nodes:
        ids, labels = [node["id"]], set(node["inputs"])
        for other in [c for c in components if c[1] & labels]:
            components.remove(other)
            ids, labels = other[0] + ids, other[1] | labels
        components.append((ids, labels))
    components.sort(key=lambda c: min(c[0]))
    concepts = [{"id": i, "members": sorted(ids)} for i, (ids, _) in enumerate(components)]
    text = json.dumps({"decay": 0.0, "event_count": 1, "base_concepts": ["a", "b"],
                       "hidden_nodes": nodes, "global_concepts": concepts})
    return text.replace('"NaN"', "NaN").replace('"Infinity"', "Infinity")


class TestSerialization:
    def test_round_trip_is_stable(self):
        net = ClusterNet(decay=0.1)
        for event in FIG3_EVENTS:
            net.present_event(event, fuzzy=True)
        text = net.to_json()
        restored = ClusterNet.from_json(text)
        assert restored.to_json() == text
        assert restored.retrieve(0) == net.retrieve(0)

    def test_unsorted_lists_load_and_write_sorted(self):
        net = ClusterNet()
        for event in FIG3_EVENTS:
            net.present_event(event)
        text = net.to_json()
        doc = json.loads(text)
        doc["base_concepts"].reverse()
        for node in doc["hidden_nodes"]:
            node["inputs"].reverse()
        assert ClusterNet.from_json(json.dumps(doc)).to_json() == text

    @pytest.mark.parametrize("text", [
        "{not json",
        '{"event_count": 0, "base_concepts": [], "hidden_nodes": []}',
        '{"decay": 0.0, "event_count": 1, "base_concepts": ["a"], "hidden_nodes": [{"id": 0}]}',
        '{"decay": 0.0, "event_count": 0, "base_concepts": [], "hidden_nodes": [[0]]}',
        "[" * 5000,
        _cluster_doc({"id": -1}),
        _cluster_doc({"id": 1.0}),
        _cluster_doc({"id": True}),
        _cluster_doc({"created_at": -1}),
        _cluster_doc({"created_at": "0"}),
        _cluster_doc({"created_at": True}),
        _cluster_doc({}, {"id": 0, "inputs": ["b"]}),
        _cluster_doc({"id": 1}, {"id": 0, "inputs": ["b"]}),
        _cluster_doc({}, {"id": 1}),
        _cluster_doc({"inputs": ["a", "b"]}, {"id": 1, "inputs": ["b", "a"]}),
        _cluster_doc({"weight": -0.5}),
        _cluster_doc({"weight": "NaN"}),
        _cluster_doc({"weight": "Infinity"}),
        _cluster_doc({"weight": True}),
        '{"decay": 0.0, "event_count": -5, "base_concepts": [], "hidden_nodes": []}',
        '{"decay": 0.0, "event_count": true, "base_concepts": [], "hidden_nodes": []}',
        '{"decay": 0.0, "event_count": "x", "base_concepts": [], "hidden_nodes": []}',
        '{"decay": 0.0, "event_count": 0, "base_concepts": "ab", "hidden_nodes": []}',
        '{"decay": 0.0, "event_count": 0, "base_concepts": [1], "hidden_nodes": []}',
        '{"decay": true, "event_count": 0, "base_concepts": [], "hidden_nodes": []}',
        _cluster_doc({"inputs": "ab"}),
        _cluster_doc({"inputs": []}),
        _cluster_doc({"inputs": [1, 2]}),
        _cluster_doc({"inputs": ["a", "z"]}),
        _cluster_doc({"created_at": 1}),
        _cluster_doc({"created_at": 7}),
        _cluster_doc({"inputs": ["a", "a", "b"]}),
        '{"decay": 0.0, "event_count": 0, "base_concepts": ["a", "a"], "hidden_nodes": [], '
        '"global_concepts": []}',
        *(_cluster_doc({}).replace('[{"id": 0, "members": [0]}]', concepts) for concepts in (
            '[]', '"junk"', '[{"id": 5, "members": [9]}]', '[{"id": 0.0, "members": [0]}]',
            '[{"id": 0, "members": [0]}, {"id": 1, "members": []}]')),
        _cluster_doc({}).replace(', "global_concepts": [{"id": 0, "members": [0]}]', ""),
    ])
    def test_malformed_document_rejected(self, text):
        with pytest.raises(InvalidParameterError, match="malformed cluster document"):
            ClusterNet.from_json(text)

    def test_non_finite_value_is_not_written(self):
        net = ClusterNet()
        net.present_event({"a"})
        net.hidden[0].weight = math.nan   # forced past the checks
        with pytest.raises(ValueError, match="not JSON compliant"):
            net.to_json()

    def test_restored_net_keeps_learning(self):
        net = ClusterNet()
        net.present_event({"a", "b"})
        restored = ClusterNet.from_json(net.to_json())
        report = restored.present_event({"c"})
        assert report.created == 1

    def test_reload_after_prune_creates_same_ids(self):
        # Node 1 ({b}) decays to 0.0 and is pruned; the next new node takes
        # id 1 again, one above the highest id present, in both nets.
        net = ClusterNet(decay=0.5)
        for labels in ("a", "b", "a", "a"):
            net.present_event([labels])
        assert net.prune(0.0) == [1]
        reloaded = ClusterNet.from_json(net.to_json())
        report = net.present_event(["c"])
        assert report.created == 1
        assert reloaded.present_event(["c"]) == report
        assert reloaded.to_json() == net.to_json()


class OracleClusterNet(ClusterNet):
    # The oracle recomputes the overlap closure on every read, so the
    # library lookups, which its present_event does not update, go unread.
    present_event = oracles.present_event
    global_concepts = property(oracles.global_concepts)


cluster_ops = st.lists(st.one_of(
    st.tuples(st.just("event"),
              st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=6),
              st.booleans()),
    st.tuples(st.just("prune"), st.sampled_from([0.0, 0.5, 1.0, 2.0])),
    st.tuples(st.just("reload"))),
    min_size=1, max_size=40)


def _replay(decay, ops):
    """Run ``ops`` on a net and on the oracle, comparing every report (all
    fields), prune result, grouping and document; a reload replaces the net
    by one loaded from its document, and the oracle runs on.  Returns the net."""
    net, oracle = ClusterNet(decay=decay), OracleClusterNet(decay=decay)
    for op in ops:
        if op[0] == "event":
            _, labels, fuzzy = op
            assert (net.present_event(labels, fuzzy=fuzzy)
                    == oracle.present_event(labels, fuzzy=fuzzy))
        elif op[0] == "prune":
            assert net.prune(op[1]) == oracle.prune(op[1])
        else:
            net = ClusterNet.from_json(net.to_json())
        assert list(net.hidden) == sorted(net.hidden)
        assert net._exact == {node.inputs: hid for hid, node in net.hidden.items()}
        assert ([g.members for g in net.global_concepts]
                == [g.members for g in oracle.global_concepts])
        assert net.to_json() == oracle.to_json()
    return net


class TestPresentEventMatchesOracle:
    # Decay 0.25 takes a weight of 1.0 exactly to 0.0; 0.3 leaves a
    # remainder.  Events of up to 6 of 8 labels reach both fuzzy branches.
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([0.0, 0.01, 0.25, 0.3, 0.5]), cluster_ops)
    def test_event_streams(self, decay, ops):
        _replay(decay, ops)

    @pytest.mark.parametrize("decay", [0.0, 0.01, 0.25, 0.3])
    def test_long_random_streams(self, decay):
        # Short hypothesis streams mostly count hits; nets grown over 150
        # ops mostly take the subset lookup.
        rng = random.Random(24)
        for _ in range(10):
            ops = []
            for _ in range(150):
                roll = rng.random()
                if roll < 0.02:
                    ops.append(("prune", rng.choice([0.0, 0.5, 1.0])))
                elif roll < 0.04:
                    ops.append(("reload",))
                else:
                    ops.append(("event", rng.sample("abcdefgh", rng.randint(1, 6)),
                                rng.random() < 0.7))
            _replay(decay, ops)

    @pytest.mark.parametrize("decay", [0.0, 0.25, 0.3])
    @pytest.mark.parametrize("event, by_lookup", [("abc", True), ("abcdef", False)])
    def test_each_fuzzy_branch(self, decay, event, by_lookup):
        # Nodes a b ab ac bc c: the labels of "abc" have 9 posting entries,
        # more than its 6 proper subsets, so its subsets are looked up;
        # "abcdef" has 62 proper subsets, so hits are counted.  Each of the
        # six nodes is a strict subset of both events.
        ops = [("event", list(labels), False) for labels in ("a", "b", "ab", "ac", "bc", "c")]
        net = _replay(decay, ops)
        postings = sum(len(net._with_label.get(label, ())) for label in event)
        assert ((1 << len(event)) - 2 < postings) == by_lookup
        assert net.present_event(list(event), fuzzy=True).reinforced == (0, 1, 2, 3, 4, 5)
        ops += [("reload",), ("event", list(event), True),
                ("event", list(event), True), ("event", ["a"], False)]
        _replay(decay, ops)

    @pytest.mark.parametrize("decay", [0.0, 0.25, 0.3])
    def test_loaded_integer_weights(self, decay):
        # Weights 0 and 2 load as ints; a live 0 still decays once into 0.0.
        text = _cluster_doc({"weight": 0}, {"id": 1, "inputs": ["b"], "weight": 2})
        text = text.replace('"decay": 0.0', f'"decay": {decay}')
        net, oracle = ClusterNet.from_json(text), OracleClusterNet.from_json(text)
        for labels in (["a"], ["c"], ["a", "b"], ["b"]):
            assert (net.present_event(labels, fuzzy=True)
                    == oracle.present_event(labels, fuzzy=True))
            assert net.to_json() == oracle.to_json()
