"""Concept trees: counted insertion, splitting, linking, and search."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import forest_index as oracle_forest_index
from oracles import insert_sequence as oracle_insert_sequence
from oracles import search as oracle_search
from oracles import split_if_violates as oracle_split_if_violates
from oracles import to_json as oracle_to_json
from renforge import ConceptForest, InvalidParameterError, NotFoundError, tokenize
from renforge.concept_forest import SearchPath
from renforge.harness.artifacts import read_lines
from renforge.harness.builders import network_from_forest


def snapshot(node):
    return (node.label, node.count, [snapshot(c) for c in node.children])


def build_fig4_forest():
    forest = ConceptForest()
    for line in ("black cat sat mat", "black cat drank milk",
                 "drank milk", "drank milk"):
        forest.insert_sequence(tokenize(line))
    return forest


class TestInsertSequence:
    def test_two_sentences_share_a_prefix(self):
        forest = ConceptForest()
        forest.insert_sequence(tokenize("black cat sat mat"))
        forest.insert_sequence(tokenize("black cat drank milk"))
        assert len(forest.trees) == 1
        assert snapshot(forest.trees[0]) == (
            "black", 2, [("cat", 2, [("sat", 1, [("mat", 1, [])]),
                                     ("drank", 1, [("milk", 1, [])])])])

    def test_same_token_twice(self):
        forest = ConceptForest()
        forest.insert_sequence(["sun"])
        forest.insert_sequence(["sun"])
        assert snapshot(forest.trees[0]) == ("sun", 2, [])

    def test_mid_tree_attachment_triggers_split(self):
        forest = build_fig4_forest()
        # "drank milk" attached mid-tree twice: drank reached count 3
        # against cat's 2, so it became the base of a new tree.
        assert len(forest.trees) == 2
        assert snapshot(forest.trees[0]) == (
            "black", 2, [("cat", 2, [("sat", 1, [("mat", 1, [])])])])
        assert snapshot(forest.trees[1]) == ("drank", 3, [("milk", 3, [])])

    def test_empty_sequence_rejected(self):
        with pytest.raises(InvalidParameterError):
            ConceptForest().insert_sequence([])

    @pytest.mark.parametrize("tokens", [["a", 1], [1, 2], [["a"]], ["a", None]])
    def test_non_string_tokens_rejected_without_change(self, tokens):
        forest = build_fig4_forest()
        before = forest.to_json()
        with pytest.raises(InvalidParameterError, match="token must be a string"):
            forest.insert_sequence(tokens)
        assert forest.to_json() == before


class TestSplitIfViolates:
    def test_fig4_link(self):
        forest = build_fig4_forest()
        assert len(forest.links) == 1
        link = forest.links[0]
        assert link.from_node.label == "cat"
        assert link.to_root.label == "drank"
        assert link.label == "M"

    def test_satisfied_forest_yields_no_events(self):
        forest = build_fig4_forest()
        assert forest.split_if_violates() == []

    def test_chain_with_two_violations(self):
        forest = _load([("a", 1, [("b", 3, [("c", 5, [])])])])
        events = forest.split_if_violates()
        assert len(events) == 2
        assert len(forest.trees) == 3
        assert forest.count_rule_holds()
        assert [(l.from_node.label, l.to_root.label) for l in forest.links] == [
            ("a", "b"), ("b", "c")]

    def test_split_preserves_counts(self):
        forest = _load([("x", 2, [("y", 4, [])])])
        forest.split_if_violates()
        labels = sorted((r.label, r.count) for r in forest.trees)
        assert labels == [("x", 2), ("y", 4)]

    def test_roots_have_maximal_counts(self):
        forest = build_fig4_forest()
        for root in forest.trees:
            nodes = [root]
            while nodes:
                node = nodes.pop()
                assert node.count <= root.count
                nodes.extend(node.children)


class TestSearch:
    def test_query_crosses_dynamic_link(self):
        forest = build_fig4_forest()
        paths = forest.search(tokenize("black cat drank milk"))
        assert len(paths) == 1
        path = paths[0]
        assert path.complete
        assert path.links_crossed == 1
        assert path.segments == ((0, ("black", "cat")), (1, ("drank", "milk")))

    def test_new_base_is_directly_searchable(self):
        forest = build_fig4_forest()
        paths = forest.search(["drank"])
        assert len(paths) == 1
        assert paths[0].segments == ((1, ("drank",)),)
        assert paths[0].complete

    def test_non_root_token_has_no_entry_point(self):
        forest = build_fig4_forest()
        assert forest.search(["milk"]) == []

    def test_partial_match_is_maximal_not_complete(self):
        forest = build_fig4_forest()
        paths = forest.search(tokenize("black cat drank banana"))
        assert len(paths) == 1
        assert not paths[0].complete
        assert paths[0].tokens_matched == 3

    def test_empty_query_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_fig4_forest().search([])


class TestTerminalNodes:
    def test_new_base_tree_terminal(self):
        forest = build_fig4_forest()
        assert [n.label for n in forest.terminal_nodes(1)] == ["milk"]

    def test_original_tree_terminal_excludes_linked_node(self):
        forest = build_fig4_forest()
        assert [n.label for n in forest.terminal_nodes(0)] == ["mat"]

    def test_single_node_tree(self):
        forest = ConceptForest()
        forest.insert_sequence(["alone"])
        assert [n.label for n in forest.terminal_nodes(0)] == ["alone"]

    def test_unknown_tree(self):
        with pytest.raises(NotFoundError):
            ConceptForest().terminal_nodes(0)


class TestSerialization:
    def test_round_trip_is_stable(self):
        forest = build_fig4_forest()
        text = forest.to_json()
        assert ConceptForest.from_json(text).to_json() == text

    @pytest.mark.parametrize("text", [
        "{not json",
        '{"trees": [{"label": "a", "children": []}], "links": []}',
        '{"trees": [{"label": "a", "count": 1, "children": []}], '
        '"links": [{"from_tree": 0, "from_path": [3], "to_tree": 0, "label": "M"}]}',
        '{"trees": 7, "links": []}',
        "[" * 5000,
        '{"trees": [{"label": "a", "count": true, "children": []}], "links": []}',
        '{"trees": [{"label": "a", "count": 0, "children": []}], "links": []}',
        '{"trees": [{"label": "a", "count": 1.0, "children": []}], "links": []}',
        '{"trees": [{"label": "a", "count": 1, "children": '
        '[{"label": "b", "count": 2, "children": []}]}], "links": []}',
        '{"trees": [{"label": "a", "count": 2, "children": '
        '[{"label": "b", "count": 1, "children": []}]}, '
        '{"label": "c", "count": 1, "children": []}], '
        '"links": [{"from_tree": -1, "from_path": [], "to_tree": 1, "label": "M"}]}',
        '{"trees": [{"label": "a", "count": 2, "children": '
        '[{"label": "b", "count": 1, "children": []}]}, '
        '{"label": "c", "count": 1, "children": []}], '
        '"links": [{"from_tree": 0, "from_path": [-1], "to_tree": 1, "label": "M"}]}',
        '{"trees": [{"label": "a", "count": 2, "children": '
        '[{"label": "b", "count": 1, "children": []}]}, '
        '{"label": "c", "count": 1, "children": []}], '
        '"links": [{"from_tree": 0, "from_path": [0], "to_tree": -1, "label": "M"}]}',
        '{"trees": [{"label": 5, "count": 1, "children": []}], "links": []}',
        '{"trees": [{"label": "a", "count": 1, "children": '
        '[{"label": null, "count": 1, "children": []}]}], "links": []}',
        '{"trees": [{"label": "a", "count": 1, "children": []}], '
        '"links": [{"from_tree": 0, "from_path": [], "to_tree": 0, "label": 5}]}',
        '{"trees": [{"label": "a", "count": 1, "children": []}], '
        '"links": [{"from_tree": 0, "from_path": [], "to_tree": 0, "label": null}]}',
    ])
    def test_malformed_document_rejected(self, text):
        with pytest.raises(InvalidParameterError, match="malformed forest document"):
            ConceptForest.from_json(text)

    @pytest.mark.parametrize("lines, depth", [
        ([f"t{i} t{i + 1}" for i in range(1500)], 1500),
        ([" ".join(f"w{i}" for i in range(3000))], 3000),
    ])
    def test_too_deep_forest_names_its_depth(self, lines, depth):
        forest = ConceptForest()
        forest.ingest_lines(lines)
        with pytest.raises(InvalidParameterError, match=f"forest is {depth} levels deep"):
            forest.to_json()

    def test_non_finite_value_is_not_written(self):
        forest = build_fig4_forest()
        forest.trees[0].count = math.inf   # forced past the checks
        with pytest.raises(ValueError, match="not JSON compliant"):
            forest.to_json()

    def test_links_survive_round_trip(self):
        forest = ConceptForest.from_json(build_fig4_forest().to_json())
        paths = forest.search(tokenize("black cat drank milk"))
        assert len(paths) == 1 and paths[0].complete

    def test_ingest_corpus(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("black cat sat mat\nBLACK cat drank milk\n\n",
                          encoding="utf-8")
        forest = ConceptForest()
        assert forest.ingest_lines(read_lines(corpus)) == 2
        assert forest.trees[0].count == 2


sentences = st.lists(
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4),
    min_size=1, max_size=12)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(sentences)
    def test_count_rule_holds_after_every_insert(self, corpus):
        forest = ConceptForest()
        for sentence in corpus:
            forest.insert_sequence(sentence)
            assert forest.count_rule_holds()

    @settings(max_examples=60, deadline=None)
    @given(sentences)
    def test_split_is_idempotent_and_preserves_counts(self, corpus):
        forest = ConceptForest()
        for sentence in corpus:
            forest.insert_sequence(sentence)
        before = sorted((n.label, n.count)
                        for root in forest.trees
                        for n in _all_nodes(root))
        assert forest.split_if_violates() == []
        after = sorted((n.label, n.count)
                       for root in forest.trees
                       for n in _all_nodes(root))
        assert before == after

    def test_retrievability_is_monotone(self):
        rng = random.Random(4)
        alphabet = "abcdefgh"
        forest = ConceptForest()
        inserted = []
        found_ever = set()
        for _ in range(60):
            sentence = tuple(rng.choice(alphabet)
                             for _ in range(rng.randint(1, 4)))
            forest.insert_sequence(sentence)
            inserted.append(sentence)
            findable = {s for s in inserted
                        if any(p.complete for p in forest.search(s))}
            assert found_ever <= findable
            found_ever = findable


tree_shapes = st.recursive(
    st.tuples(st.sampled_from("abc"), st.integers(1, 6), st.just(())),
    lambda children: st.tuples(st.sampled_from("abc"), st.integers(1, 6),
                               st.lists(children, max_size=3)),
    max_leaves=25)


class TestSplitMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(tree_shapes, min_size=1, max_size=4))
    def test_hand_built_trees(self, shapes):
        forest, oracle = _load(shapes), _load(shapes)
        assert forest.split_if_violates() == oracle_split_if_violates(oracle)
        assert forest.to_json() == oracle_to_json(oracle)
        _assert_index_kept(forest)
        assert forest.count_rule_holds()
        assert forest.split_if_violates() == []

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.sampled_from("abcde"), min_size=1, max_size=5),
                              st.booleans()),
                    min_size=1, max_size=30))
    def test_insert_streams(self, stream):
        _check_stream(ConceptForest(), ConceptForest(), stream)


def _capped(shape, limit):
    """``shape`` with every count cut to at most its parent's."""
    label, count, children = shape
    count = min(count, limit)
    return (label, count, [_capped(child, count) for child in children])


def _tree_doc(shape):
    label, count, children = shape
    return {"label": label, "count": count, "children": [_tree_doc(c) for c in children]}


def _load(shapes):
    """A forest of ``shapes`` loaded through ``from_json`` with every count
    capped at its parent's, then raised in place to the shape's own, so it
    may break the count rule until ``split_if_violates`` runs."""
    doc = {"trees": [_tree_doc(_capped(shape, shape[1])) for shape in shapes], "links": []}
    forest = ConceptForest.from_json(json.dumps(doc))
    pairs = list(zip(forest.trees, shapes))
    while pairs:
        node, (_, count, children) = pairs.pop()
        node.count = count
        pairs.extend(zip(node.children, children))
    return forest


def _assert_index_kept(forest):
    """The forest's label index equals one rebuilt from its trees.  Node
    lists are kept in the order nodes entered, so they are compared as sets
    (sorted by identity, which also catches a node indexed twice)."""
    nodes_with, first_root, root_index = oracle_forest_index(forest)
    assert ({label: sorted(nodes, key=id) for label, nodes in forest._nodes_with.items()}
            == {label: sorted(nodes, key=id) for label, nodes in nodes_with.items()})
    assert forest._first_root == first_root
    assert forest._root_index == root_index


def _check_stream(forest, oracle, stream):
    """Insert each sentence into both forests and compare them, reloading
    ``forest`` where the stream says so; a reload keeps the network the
    forest maps onto."""
    for sentence, reload in stream:
        assert forest.insert_sequence(sentence) == oracle_insert_sequence(oracle, sentence)
        assert forest.to_json() == oracle_to_json(oracle)
        _assert_index_kept(forest)
        if reload:
            mapped = network_from_forest(forest)[0].to_json()
            forest = ConceptForest.from_json(forest.to_json())
            _assert_index_kept(forest)
            assert network_from_forest(forest)[0].to_json() == mapped


wide_tree_shapes = st.recursive(
    st.tuples(st.sampled_from("abcdefgh"), st.integers(1, 6), st.just(())),
    lambda children: st.tuples(st.sampled_from("abcdefgh"), st.integers(1, 6),
                               st.lists(children, max_size=3)),
    max_leaves=40)


class TestAttachmentMatchesOracle:
    """Inserts whose head token is no root's label attach through the label
    index; the oracle scans every tree in level order.  Long streams over a
    larger alphabet grow many trees, and deep ones."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(wide_tree_shapes, max_size=5), st.booleans(),
           st.lists(st.tuples(st.lists(st.sampled_from("abcdefghijkl"),
                                       min_size=1, max_size=8),
                              st.booleans()),
                    min_size=5, max_size=60))
    def test_streams_over_hand_built_trees(self, shapes, split, stream):
        # Counts raised in place break the count rule until the split
        # repairs them; without the split the loaded trees are capped.
        if not split:
            shapes = [_capped(shape, shape[1]) for shape in shapes]
        forest, oracle = _load(shapes), _load(shapes)
        if split:
            assert forest.split_if_violates() == oracle_split_if_violates(oracle)
        _assert_index_kept(forest)
        _check_stream(forest, oracle, stream)


class TestSearchMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=5),
                    min_size=1, max_size=30),
           st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=7),
                    min_size=1, max_size=5))
    def test_random_forests(self, corpus, queries):
        forest = ConceptForest()
        forest.ingest_lines(" ".join(sentence) for sentence in corpus)
        for query in queries:
            assert forest.search(query) == oracle_search(forest, query)

    def test_long_query_does_not_recurse(self):
        tokens = [f"w{i}" for i in range(1200)]
        forest = ConceptForest()
        forest.ingest_lines([" ".join(tokens)])
        assert forest.search(tokens) == [SearchPath(
            segments=((0, tuple(tokens)),), links_crossed=0,
            tokens_matched=1200, complete=True)]


def _all_nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)
