"""Every public entry point rejects the same bad values with a RenforgeError."""

import json
import math

import pytest

from renforge import (FIRING_TOLERANCE, ClusterNet, ConceptForest, ConfigurationError,
                      GrowthConfig, InvalidParameterError, InvalidSpecError, Network,
                      NotFoundError, RefinedSpec, TurbulenceState, accumulate_turbulence,
                      average_excess, close_paths, effective_weight, expand_weighted,
                      growth_tick, is_balanced, repulsion_at, resistance_profile, resonate,
                      run_until_balanced, spawn_and_join, tokenize)
from renforge.errors import check_int, check_labels, check_not_str, check_number, check_str
from renforge.harness import ExperimentConfig, build_direct_unit, network_from_forest, sweep

# Each bad value is a case one of the checkers' rules names: a bool is not a
# number, a float is not an int, a number is finite, text is not a number,
# and nothing is not anything.  A string is bad only where no string is wanted.
NUMBER = [True, math.nan, math.inf, "1", None]
INT = [2.5, *NUMBER]
# A 0.0 sum would reach a threshold at or below the firing tolerance.
THRESHOLD = [*NUMBER, 1e-10, FIRING_TOLERANCE]
STR = [True, 2.5, math.nan, math.inf, None]
# Not a collection of hashable ids.
DRIVE = [5, None, 2.5, [[1]]]


def two_neurons():
    net = Network()
    net.add_neuron(1.0), net.add_neuron(1.0)
    return net


def one_synapse():
    net = two_neurons()
    net.add_synapse(0, 1)
    return net


def two_synapses():
    net = one_synapse()
    net.add_synapse(1, 0)
    return net


def turbulence_state():
    """A growth state whose one accumulate call gave synapses 0 and 1 their stats."""
    net, state = two_synapses(), TurbulenceState()
    accumulate_turbulence(net, net.step(), state)
    return state


def doc_with(doc, path, value):
    """``doc`` as JSON text with the entry at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    return json.dumps(doc)


NETWORK_DOC = json.loads(one_synapse().to_json())

_cluster = ClusterNet()
_cluster.present_event({"a", "b"})
CLUSTER_DOC = json.loads(_cluster.to_json())

FOREST_DOC = {
    "trees": [{"label": "a", "count": 2,
               "children": [{"label": "b", "count": 1, "children": []}]},
              {"label": "c", "count": 1, "children": []}],
    "links": [{"from_tree": 0, "from_path": [0], "to_tree": 1, "label": "M"}]}


def network_doc(*path):
    return lambda value: Network.from_json(doc_with(NETWORK_DOC, path, value))


def cluster_doc(*path):
    return lambda value: ClusterNet.from_json(doc_with(CLUSTER_DOC, path, value))


def forest_doc(*path):
    return lambda value: ConceptForest.from_json(doc_with(FOREST_DOC, path, value))


# (entry point and argument, a value it accepts, the bad values, the call
# with the value in that place)
CASES = [
    ("Network.add_neuron threshold", 0.5, THRESHOLD, lambda v: Network().add_neuron(v)),
    ("Network.add_synapse open_fraction", 0.5, NUMBER,
     lambda v: two_neurons().add_synapse(0, 1, v)),
    ("Network.add_synapse distance", 2, INT, lambda v: two_neurons().add_synapse(0, 1, 1.0, v)),
    ("Network.add_synapse multiplicity", 2, INT,
     lambda v: two_neurons().add_synapse(0, 1, 1.0, 1, v)),
    ("Network.set_open_fraction", 0.5, NUMBER, lambda v: one_synapse().set_open_fraction(0, v)),
    # An id of True would otherwise name neuron or synapse 1.
    ("Network.add_synapse pre", 1, INT, lambda v: one_synapse().add_synapse(v, 0)),
    ("Network.add_synapse post", 1, INT, lambda v: two_neurons().add_synapse(0, v)),
    ("Network.set_open_fraction synapse_id", 1, INT,
     lambda v: two_synapses().set_open_fraction(v, 0.5)),
    # Neuron 1 exists, so True or 1.0 would otherwise name it; 2 does not.
    ("Network.incoming neuron_id", 1, [*INT, 1.0, 2], lambda v: two_neurons().incoming(v)),
    ("Network.synapse_between pre", 1, [*INT, 1.0, 2],
     lambda v: two_synapses().synapse_between(v, 0)),
    ("Network.synapse_between post", 1, [*INT, 1.0, 2],
     lambda v: two_synapses().synapse_between(0, v)),
    ("Network.step external_inputs", [0], DRIVE, lambda v: two_neurons().step(v)),
    ("Network.from_json threshold", 0.5, THRESHOLD, network_doc("neurons", 0, "threshold")),
    ("Network.from_json refractory", 1, INT, network_doc("neurons", 0, "refractory")),
    ("Network.from_json open_fraction", 0.5, NUMBER,
     network_doc("synapses", 0, "open_fraction")),
    ("Network.from_json distance", 2, INT, network_doc("synapses", 0, "distance")),
    ("Network.from_json multiplicity", 2, INT, network_doc("synapses", 0, "multiplicity")),
    # 0.0 and false equal 0, so they would load as neuron 0 and write back as 0.
    ("Network.from_json neuron id", 0, [0.0, False, "0", None], network_doc("neurons", 0, "id")),
    ("average_excess input_total", 0.5, NUMBER, lambda v: average_excess(v, 1.0, 1)),
    ("average_excess threshold", 0.5, NUMBER, lambda v: average_excess(1.0, v, 1)),
    ("average_excess input_count", 2, INT, lambda v: average_excess(1.0, 1.0, v)),
    ("repulsion_at excess_per_input", 0.5, NUMBER, lambda v: repulsion_at(v, 1, 0.1)),
    ("repulsion_at distance", 2, INT, lambda v: repulsion_at(1.0, v, 0.1)),
    ("repulsion_at forward_force_per_segment", 0.5, NUMBER, lambda v: repulsion_at(1.0, 1, v)),
    ("resistance_profile force_per_segment", 0.5, NUMBER, lambda v: resistance_profile(v, 2)),
    ("resistance_profile segments", 2, INT, lambda v: resistance_profile(1.0, v)),
    ("is_balanced window", 2, INT, lambda v: is_balanced(Network(), v)),
    ("is_balanced eps_balance", 0.5, NUMBER, lambda v: is_balanced(Network(), 2, v)),
    ("expand_weighted weight", 2, INT, lambda v: expand_weighted(two_neurons(), 0, 1, v)),
    *((f"GrowthConfig {name}", 0.5, NUMBER, lambda v, name=name: GrowthConfig(**{name: v}))
      for name in ("bud_threshold", "cofire_agreement", "offpattern_decay",
                   "eps_balance", "force_per_segment", "close_cutoff")),
    ("GrowthConfig window", 2, INT, lambda v: GrowthConfig(window=v)),
    *((f"RefinedSpec {name}", 1, INT,
       lambda v, name=name: RefinedSpec(**dict(dict.fromkeys(
           ("input_count", "group_size", "group_threshold", "main_threshold"), 1),
           **{name: v})))
      for name in ("input_count", "group_size", "group_threshold", "main_threshold",
                   "layers")),
    ("ExperimentConfig seed", -2, INT, lambda v: ExperimentConfig(seed=v)),
    ("ExperimentConfig schedule_probability", 0.5, NUMBER,
     lambda v: ExperimentConfig(schedule_probability=v)),
    ("ExperimentConfig max_ticks", 2, INT, lambda v: ExperimentConfig(max_ticks=v)),
    ("ExperimentConfig scenario", "1", STR, lambda v: ExperimentConfig(scenario=v)),
    ("ExperimentConfig output_dir", "1", [*STR, "", "a\0b"],
     lambda v: ExperimentConfig(output_dir=v)),
    ("ExperimentConfig growth", GrowthConfig(window=2), [None, 5, "1", {}],
     lambda v: ExperimentConfig(growth=v)),
    # A list or a tuple is accepted and kept as a tuple.
    ("ExperimentConfig sweep_inputs", (10,), [None, 5, "1"],
     lambda v: ExperimentConfig(sweep_inputs=v)),
    ("ExperimentConfig sweep_thresholds", (5.0,), [None, 5.0, "1"],
     lambda v: ExperimentConfig(sweep_thresholds=v)),
    ("ExperimentConfig sweep_inputs entry", 10 ** 6, [*INT, 10 ** 6 + 1, 10 ** 9],
     lambda v: ExperimentConfig(sweep_inputs=[10, v])),
    ("ExperimentConfig sweep_thresholds entry", 0.5, THRESHOLD,
     lambda v: ExperimentConfig(sweep_thresholds=[5.0, v])),
    ("ClusterNet decay", 0.5, NUMBER, lambda v: ClusterNet(decay=v)),
    ("ClusterNet.prune threshold", 0.5, NUMBER, lambda v: ClusterNet().prune(v)),
    ("ClusterNet.from_json decay", 0.5, NUMBER, cluster_doc("decay")),
    ("ClusterNet.from_json event_count", 2, INT, cluster_doc("event_count")),
    ("ClusterNet.from_json base_concepts", ["b", "a", "c"], [*STR, "1"],
     cluster_doc("base_concepts")),
    ("ClusterNet.from_json base_concepts entry", "a", STR, cluster_doc("base_concepts", 0)),
    ("ClusterNet.from_json hidden node id", 0, INT, cluster_doc("hidden_nodes", 0, "id")),
    ("ClusterNet.from_json hidden node inputs", ["b", "a"], [*STR, "1"],
     cluster_doc("hidden_nodes", 0, "inputs")),
    ("ClusterNet.from_json hidden node weight", 0.5, NUMBER,
     cluster_doc("hidden_nodes", 0, "weight")),
    ("ClusterNet.from_json hidden node created_at", 0, INT,
     cluster_doc("hidden_nodes", 0, "created_at")),
    ("ClusterNet.from_json global_concepts", [{"members": [0], "id": 0}], [*STR, "1"],
     cluster_doc("global_concepts")),
    # One string is not a list of labels: it would be read as its characters.
    ("ConceptForest.insert_sequence tokens", ["c", "a", "t"], ["cat", "c"],
     lambda v: ConceptForest().insert_sequence(v)),
    ("ConceptForest.search query", ["a", "b"], ["ab", "a", [1, None], ["a", 2]],
     lambda v: ConceptForest.from_json(json.dumps(FOREST_DOC)).search(v)),
    ("ClusterNet.present_event concepts", ["c", "0"], ["c0", "c"],
     lambda v: ClusterNet().present_event(v)),
    ("ConceptForest.ingest_lines lines", ["black cat"], ["black cat", [5], ["a b", None]],
     lambda v: ConceptForest().ingest_lines(v)),
    ("ClusterNet.ingest_events lines", ["0\ta,b"], ["0\ta,b", [5], ["0\ta,b", None]],
     lambda v: ClusterNet().ingest_events(v)),
    ("ConceptForest.from_json label", "x", STR, forest_doc("trees", 0, "label")),
    ("ConceptForest.from_json child label", "x", STR,
     forest_doc("trees", 0, "children", 0, "label")),
    ("ConceptForest.from_json count", 1, INT, forest_doc("trees", 0, "count")),
    ("ConceptForest.from_json child count", 2, INT,
     forest_doc("trees", 0, "children", 0, "count")),
    ("ConceptForest.from_json from_tree", 0, INT, forest_doc("links", 0, "from_tree")),
    ("ConceptForest.from_json from_path index", 0, INT,
     forest_doc("links", 0, "from_path", 0)),
    # Tree 0 holds the link's from node, and no link leads into its own tree.
    ("ConceptForest.from_json to_tree", 1, [*INT, 0], forest_doc("links", 0, "to_tree")),
    ("ConceptForest.from_json link label", "x", STR, forest_doc("links", 0, "label")),
    # Tree 1 exists, so True would otherwise name it.
    ("ConceptForest.terminal_nodes tree_index", 1, INT,
     lambda v: ConceptForest.from_json(json.dumps(FOREST_DOC)).terminal_nodes(v)),
    # Two units at layer 1 (4 inputs in groups of 2), so True would otherwise name unit 1.
    ("effective_weight layer_path", [1], INT,
     lambda v: effective_weight(RefinedSpec(4, 2, 1, 1), v)),
    ("effective_weight layer_path entry", 1, INT,
     lambda v: effective_weight(RefinedSpec(4, 2, 1, 1), [v])),
    ("resonate max_depth", 2, INT, lambda v: resonate(two_neurons(), {0}, v)),
    ("run_until_balanced max_ticks", 2, INT,
     lambda v: run_until_balanced(two_neurons(), [{0}], max_ticks=v)),
    # One string is no schedule and no step: it would be read as its characters.
    ("run_until_balanced input_schedule", [{0}], [5, [5], None, "0", ["0"], [[[0]]]],
     lambda v: run_until_balanced(two_neurons(), v, max_ticks=2)),
    # An empty dict once ran with the default constants.
    ("run_until_balanced config", GrowthConfig(window=2), [{}, "x", 5],
     lambda v: run_until_balanced(two_neurons(), [{0}], v, max_ticks=2)),
    ("TurbulenceState config", GrowthConfig(window=2), [{}, "x", 5],
     lambda v: TurbulenceState(v)),
    # Synapses 0 and 1 have stats, so True or 1.0 would otherwise name 1's; 12345 has none.
    ("TurbulenceState.stats_for synapse_id", 0, [12345, True, 1.0, "0"],
     lambda v: turbulence_state().stats_for(v)),
    # two_synapses() builds the network the state's one call saw.
    ("TurbulenceState.window synapse_id", 0, [12345, True, 1.0, "0"],
     lambda v: turbulence_state().window(two_synapses(), v)),
    ("growth_tick external_inputs", [0], DRIVE,
     lambda v: growth_tick(two_synapses(), TurbulenceState(), v)),
    ("spawn_and_join tick", 0, [*INT, -1],
     lambda v: spawn_and_join(two_synapses(), turbulence_state(), v)),
    ("close_paths tick", 0, [*INT, -1],
     lambda v: close_paths(two_synapses(), turbulence_state(), [0], v)),
    ("run_until_balanced on_tick", lambda *args: None, [5, "f"],
     lambda v: run_until_balanced(two_neurons(), [{0}], max_ticks=2, on_tick=v)),
    ("build_direct_unit input_count", 3, [True, 0, -1, 2.5, "3", None],
     lambda v: build_direct_unit(v, 1.0)),
    ("build_direct_unit threshold", 5, [True, None, "5"], lambda v: build_direct_unit(3, v)),
    ("sweep n_samples", 1, INT, lambda v: sweep(ExperimentConfig(max_ticks=10), v)),
    ("network_from_forest forest", ConceptForest(), [5, None, "x", {}],
     lambda v: network_from_forest(v)),
    ("tokenize text", "a b", STR, lambda v: tokenize(v)),
]


# The RenforgeError each entry point, or each place named in full, raises;
# the rest raise InvalidParameterError.
ERRORS = {"ExperimentConfig": ConfigurationError, "RefinedSpec": InvalidSpecError,
          "ConceptForest.terminal_nodes": NotFoundError, "effective_weight": NotFoundError,
          "Network.incoming": NotFoundError, "Network.synapse_between": NotFoundError,
          "TurbulenceState.stats_for": NotFoundError, "TurbulenceState.window": NotFoundError,
          **dict.fromkeys(("Network.add_synapse pre", "Network.add_synapse post",
                           "Network.set_open_fraction synapse_id"), NotFoundError)}


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{name}={value!r}")
    for name, _good, values, call in CASES for value in values])
def test_bad_value_raises_its_renforge_error(name, call, value, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)   # where a sweep that ran would write
    with pytest.raises(ERRORS.get(name) or ERRORS.get(name.split()[0], InvalidParameterError)):
        call(value)


@pytest.mark.parametrize("call, good", [
    pytest.param(call, good, id=name) for name, good, _values, call in CASES])
def test_good_value_in_the_same_place_passes(call, good, tmp_path, monkeypatch):
    # So each bad value above is rejected for itself, not for the rest of the call.
    monkeypatch.chdir(tmp_path)
    call(good)


class TestCheckers:
    @pytest.mark.parametrize("checker, args, message", [
        (check_int, (0, "window", 1), "window must be an integer >= 1, got 0"),
        (check_int, (True, "window", 1, 256), "window must be an integer in [1, 256], got True"),
        (check_int, (None, "seed"), "seed must be an integer, got None"),
        (check_number, (math.nan, "decay", 0), "decay must be a finite number >= 0, got nan"),
        (check_number, (0, "bud_threshold", 0, math.inf, "(]"),
         "bud_threshold must be a finite number > 0, got 0"),
        (check_number, (1, "offpattern_decay", 0, 1, "[)"),
         "offpattern_decay must be a finite number in [0, 1), got 1"),
        (check_number, (-math.inf, "time"), "time must be finite, got -inf"),
        (check_number, (10 ** 400, "x", 0, 1),
         f"x must be a finite number in [0, 1], got {10 ** 400}"),
        (check_str, (5, "label"), "label must be a string, got 5"),
        (check_labels, (["a", "a"], "inputs"),
         "inputs must be a list of distinct strings, got ['a', 'a']"),
        (check_not_str, ("cat", "tokens"),
         "tokens must be a collection of strings, not one string, got 'cat'"),
    ])
    def test_message_names_the_value_and_its_bounds(self, checker, args, message):
        value, name, *bounds = args
        with pytest.raises(InvalidParameterError) as caught:
            checker(value, name, InvalidParameterError, *bounds)
        assert str(caught.value) == message

    @pytest.mark.parametrize("checker, args", [
        (check_number, (0, 0, 1, "[]")), (check_number, (1, 0, 1, "[]")),
        (check_number, (0.5, 0, 1, "()")), (check_number, (-0.0, 0, 1, "[)")),
        (check_number, (10 ** 400, 0)), (check_int, (10 ** 400, 0)),
        (check_str, ("",)), (check_labels, ([],)), (check_labels, (["b", "a"],)),
        (check_not_str, (["cat"],)), (check_not_str, ({"c", "0"},)),
    ])
    def test_accepted_value_is_returned_as_is(self, checker, args):
        value, *bounds = args
        assert checker(value, "x", InvalidParameterError, *bounds) is value
