"""Every loader, as a property: a mutated valid document either loads or
raises a RenforgeError, and what loads writes back to a fixed point.  The
command line reads forest and config documents, so those also go through
``main``, which must exit 0 or 2."""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renforge import ClusterNet, ConceptForest, InvalidParameterError, Network, RenforgeError
from renforge.cli import main
from renforge.harness import (ExperimentConfig, build_direct_unit, config_from_json,
                              config_to_json, network_from_forest)

# A replaced value is one of these; 10**30 is an int no float holds exactly.
VALUES = [None, True, 2.5, math.nan, 1e308, 10**30, "", [], {}]


def _network_doc():
    net, inputs, target = build_direct_unit(3, 1.0)
    net.set_open_fraction(net.incoming(target)[0].id, 0.5)
    net.step(inputs[:2])
    return json.loads(net.to_json())


def _forest_doc():
    forest = ConceptForest()
    forest.ingest_lines(["black cat sat mat", "black cat drank milk",
                         "drank milk", "drank milk"])
    return json.loads(forest.to_json())


def _cluster_doc():
    net = ClusterNet(decay=0.25)
    for event in [("c0", "c1", "c2"), ("c1", "c2", "c3"), ("x", "y"), ("c1", "c2")]:
        net.present_event(event, fuzzy=True)
    return json.loads(net.to_json())


def _config_doc():
    return json.loads(config_to_json(ExperimentConfig(scenario="fig4_trees")))


def _paths(doc, path=()):
    """The path of ``doc`` and of every value inside it, as key/index tuples."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, base):
    """``base`` after one to three edits: a value replaced by one of
    ``VALUES``, a key deleted, or a list doubled or reversed."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        edits = []
        for path in _paths(doc):
            edits.append(("replace", path))
            if path and isinstance(_at(doc, path[:-1]), dict):
                edits.append(("delete", path))
            if isinstance(_at(doc, path), list):
                edits += [("double", path), ("reverse", path)]
        kind, path = draw(st.sampled_from(edits))
        if kind == "replace":
            value = copy.deepcopy(draw(st.sampled_from(VALUES)))
            if not path:
                doc = value
                continue
            _at(doc, path[:-1])[path[-1]] = value
        elif kind == "delete":
            del _at(doc, path[:-1])[path[-1]]
        else:
            items = _at(doc, path)
            items[:] = items + copy.deepcopy(items) if kind == "double" else items[::-1]
    return doc


def _load(loader, doc):
    """``loader`` applied to ``doc`` as JSON text, or None when it raises a
    RenforgeError; any other exception fails the test."""
    try:
        return loader(json.dumps(doc))
    except RenforgeError:
        return None


def _check_fixed_point(cls, doc):
    loaded = _load(cls.from_json, doc)
    if loaded is not None:
        text = loaded.to_json()
        assert cls.from_json(text).to_json() == text
    return loaded


def _check_cli(doc, name, argv):
    """``renforge <argv>`` on ``doc`` written to ``name`` exits 0, or 2
    with one ``error:`` line, inside a fresh working directory."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with open(name, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(home)
    assert code == 0 or (code == 2 and stderr.getvalue().startswith("error: ")
                         and stderr.getvalue().count("\n") == 1)


@settings(max_examples=300, deadline=None)
@given(mutated(_network_doc()))
def test_network_loader(doc):
    _check_fixed_point(Network, doc)


@settings(max_examples=300, deadline=None)
@given(mutated(_forest_doc()))
def test_forest_loader(doc):
    forest = _check_fixed_point(ConceptForest, doc)
    if forest is not None:
        network_from_forest(forest)     # a forest that loads maps onto a network
    _check_cli(doc, "forest.json",
               ["trees", "query", "--forest", "forest.json", "--terms", "black cat"])


@settings(max_examples=300, deadline=None)
@given(mutated(_cluster_doc()))
def test_cluster_loader(doc):
    _check_fixed_point(ClusterNet, doc)


@settings(max_examples=200, deadline=None)
@given(mutated(_config_doc()))
def test_config_loader(doc):
    config = _load(config_from_json, doc)
    if config is not None:
        text = config_to_json(config)
        assert config_to_json(config_from_json(text)) == text
    _check_cli(doc, "config.json", ["run", "--config", "config.json"])


def _linked_forest(links):
    """Trees a(b), c and d as JSON, with one link per ``(from_tree,
    from_path, to_tree)``."""
    leaf = {"label": "b", "count": 1, "children": []}
    return json.dumps({
        "trees": [{"label": "a", "count": 1, "children": [leaf]},
                  {"label": "c", "count": 1, "children": []},
                  {"label": "d", "count": 1, "children": []}],
        "links": [{"from_tree": tree, "from_path": path, "to_tree": to, "label": "M"}
                  for tree, path, to in links]})


@pytest.mark.parametrize("links, message", [
    ([(0, [], 0)], "leads into its own tree"),
    ([(0, [0], 0)], "leads into its own tree"),
    ([(0, [0], 1), (1, [], 2), (0, [0], 1)], "second link into tree 1"),
    ([(0, [0], 1), (1, [], 2), (0, [], 2)], "second link into tree 2"),
])
def test_forest_links_no_split_makes_are_rejected(links, message):
    # Each split links a node to a new root, so no link leads into its own
    # tree and no tree has two links into it.
    with pytest.raises(InvalidParameterError, match=message):
        ConceptForest.from_json(_linked_forest(links))


def test_forest_links_splits_can_make_load_and_map():
    # Splits made b -> c, then a -> d; the document sorts them the other way.
    forest = ConceptForest.from_json(_linked_forest([(0, [], 2), (0, [0], 1)]))
    assert [forest.tree_index_of(link.to_root) for link in forest.links] == [1, 2]
    net, _, _ = network_from_forest(forest)
    assert [(s.pre, s.post) for s in net.synapses.values()] == [(0, 1), (1, 2), (0, 3)]
