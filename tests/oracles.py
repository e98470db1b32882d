"""Naive predecessors of optimised library paths, kept as test oracles.

Each function here is the implementation an optimised path replaced, copied
unchanged; a replaced method takes its object as the first argument, and
one that called another replaced method calls its oracle here.  The
eager ``_SynapseStats`` keeps the growth bookkeeping that took a flag for
every synapse on every tick, and ``_agreement`` unpacks int windows to the
flag lists it compared.
``step`` counts refractory ticks down in a map its caller keeps, as a
network once did, so the network's one last-fired set is checked against it;
it computes each synapse's delivery from its open fraction and multiplicity,
as the ``Synapse.delivery`` property once did, not from the stored value;
it asks ``fires``, the activation rule ``Network.step`` once called per
neuron, whether a neuron fires, and it records a dense ``input_sums``, an
entry for every neuron, of which ``sparse_input_sums`` selects the entries a
library record keeps.
``forest_index`` rebuilds a forest's label index from its trees, as the
forest once did on every load and split, and ``to_json`` finds tree indexes
by scanning, as ``tree_index_of`` once did, so it writes a forest that the
oracles here mutated without keeping its index.
``global_concepts`` recomputes a cluster's overlap closure on every read,
so a net whose events ``present_event`` here presented needs no lookups.
``ResonanceReport`` is a search report as the library once stored it, with
the resonance and recognized path that ``_finish`` computes from the waves.
Differential tests check that the optimised path returns the same result on
randomized inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from renforge import growth
from renforge.concept_forest import (ConceptForest, ConceptNode, DynamicLink,
                                     SearchPath, SplitEvent, _preorder)
from renforge.core_net import FIRING_TOLERANCE, FiringRecord, Network
from renforge.errors import (InvalidCombinationError, InvalidParameterError,
                             NotFoundError)
from renforge.feedback import repulsion_at
from renforge.growth import (BUD_SPAWNED, INTERMEDIARY_CREATED, NEURONS_JOINED,
                             GrowthEvent, TurbulenceState)
from renforge.resonance import DEFAULT_MAX_DEPTH
from renforge.symbolic_cluster import (ClusterNet, EventReport, GlobalConcept,
                                       HiddenNode)


def _flags(stats) -> list[bool]:
    """The carry window of a synapse's stats as flags, oldest first."""
    return [bool(stats.carried >> k & 1) for k in reversed(range(stats.length))]


def _agreement(a, b) -> float:
    """Fraction of shared carrying activity over the common recent window."""
    ca, cb = _flags(a), _flags(b)
    span = min(len(ca), len(cb))
    if span == 0:
        return 0.0
    ca, cb = ca[-span:], cb[-span:]
    both = sum(1 for x, y in zip(ca, cb) if x and y)
    either = sum(1 for x, y in zip(ca, cb) if x or y)
    return both / either if either else 0.0


def _greedy_groups(ids: list[int], state: TurbulenceState) -> list[list[int]]:
    """Partition budded synapse ids into co-firing groups.

    Every member of a group must meet the agreement criterion pairwise with
    every other member.  Largest group first; ties go to the lowest seed id.
    """
    threshold = state.config.cofire_agreement
    cache: dict[tuple[int, int], bool] = {}

    def agrees(x: int, y: int) -> bool:
        key = (x, y) if x < y else (y, x)
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = _agreement(state.stats_for(x), state.stats_for(y)) >= threshold
        return hit

    remaining = sorted(ids)
    groups = []
    while True:
        best: list[int] | None = None
        for seed in remaining:
            clique = [seed]
            for other in remaining:
                if other != seed and all(agrees(other, member) for member in clique):
                    clique.append(other)
            if best is None or len(clique) > len(best):
                best = clique
        if best is None or len(best) < 2:
            break
        groups.append(sorted(best))
        chosen = set(best)
        remaining = [i for i in remaining if i not in chosen]
    return groups


REFRACTORY_TICKS = 1


def fires(threshold: float, input_sum: float) -> int:
    """Stepwise activation: 1 when the summed input reaches the threshold.

    Raises InvalidParameterError for a non-positive threshold.
    """
    if threshold <= 0:
        raise InvalidParameterError(f"threshold must be positive, got {threshold}")
    return 1 if input_sum >= threshold - FIRING_TOLERANCE else 0


def step(network: Network, refractory: dict[int, int],
         external_inputs=()) -> FiringRecord:
    """Advance one synchronous tick.

    Each neuron's input sum is the open-fraction-weighted signal over
    incoming synapses whose source fired last tick or is externally
    driven this tick.  Fired neurons enter the refractory period; the
    per-input excess of every fired neuron is recorded as its rejection.
    ``refractory`` maps each refractory neuron to its ticks left (every
    value >= 1); the caller keeps it across ticks and ``step`` updates it.
    """
    externals = frozenset(external_inputs)
    for nid in externals:
        if nid not in network.neurons:
            raise NotFoundError(f"unknown neuron id {nid}")
    sources = network._last_fired | externals

    input_sums: dict[int, float] = {}
    for nid in sorted(network.neurons):
        total = 0.0
        for syn in network.incoming(nid):
            if syn.pre in sources:
                total += syn.open_fraction * syn.multiplicity
        input_sums[nid] = total

    fired = set()
    for nid in sorted(network.neurons):
        if nid not in refractory and fires(network.neurons[nid].threshold, input_sums[nid]):
            fired.add(nid)

    rejections: dict[int, float] = {}
    for nid in sorted(fired):
        open_inputs = open_input_count(network, nid)
        if open_inputs >= 1:
            rejections[nid] = (input_sums[nid] - network.neurons[nid].threshold) / open_inputs

    # A refractory neuron cannot fire, so no id is both counted down and reset.
    countdown = {nid: left - 1 for nid, left in refractory.items() if left > 1}
    refractory.clear()
    refractory.update(countdown)
    refractory.update(dict.fromkeys(fired, REFRACTORY_TICKS))
    network._derived.pop(Network._fingerprint, None)   # the one view a tick changes

    record = FiringRecord(tick=network.tick, fired=frozenset(fired),
                          input_sums=input_sums, rejections=rejections,
                          refractory=network._last_fired, externals=externals)
    network.tick += 1
    network._last_fired = record.fired
    network.history.append(record)
    return record


def sparse_input_sums(record: FiringRecord) -> dict[int, float]:
    """The entries of ``record.input_sums`` that are nonzero, in its order:
    what a library record keeps of the oracle's dense sums."""
    return {nid: total for nid, total in record.input_sums.items() if total}


def open_input_count(network: Network, neuron_id: int) -> int:
    """Number of open direct unit inputs (multiplicity counted)."""
    return sum(s.multiplicity for s in network.incoming(neuron_id)
               if s.open_fraction > 0.0)


class _SynapseStats:
    # carried and rejected hold one flag per recent tick, newest in bit 0; both
    # take a flag every tick, so one length counts the ticks they hold.
    __slots__ = ("accumulator", "carried", "rejected", "length", "budded")

    def __init__(self):
        self.accumulator = 0.0
        self.carried = 0
        self.rejected = 0
        self.length = 0
        self.budded = False


class EagerTurbulenceState(TurbulenceState):
    """A TurbulenceState whose stats take a flag on every accumulate call,
    so ``stats_for`` returns them as they are."""

    def stats_for(self, synapse_id: int) -> _SynapseStats:
        stats = self.stats.get(synapse_id)
        if stats is None:
            stats = self.stats[synapse_id] = _SynapseStats()
        return stats


def accumulate_turbulence(network: Network, record: FiringRecord,
                          state: EagerTurbulenceState) -> EagerTurbulenceState:
    """Fold one tick's firing outcome into the turbulence bookkeeping.

    Synapses that carried signal into a rejecting target gain the clamped
    backward repulsion; synapses that carried signal when the target did
    not reject decay instead, which keeps frequently useful paths open.
    """
    cfg = state.config
    window = cfg.window
    keep = (1 << window) - 1
    rejecting = {nid for nid, excess in record.rejections.items()
                 if excess > cfg.eps_balance}
    for sid, syn in network.synapses.items():
        stats = state.stats_for(sid)
        carried = syn.pre in record.sources and syn.open_fraction > 0.0
        hit_rejection = carried and syn.post in rejecting
        stats.carried = (stats.carried << 1 | carried) & keep
        stats.rejected = (stats.rejected << 1 | hit_rejection) & keep
        if stats.length < window:
            stats.length += 1
        if hit_rejection:
            stats.accumulator += repulsion_at(record.rejections[syn.post],
                                              syn.distance, cfg.force_per_segment)
        elif carried:
            stats.accumulator *= cfg.offpattern_decay
    return state


def spawn_and_join(network: Network, state: EagerTurbulenceState,
                   tick: int) -> list[GrowthEvent]:
    """Spawn buds on over-pressured synapses and join co-firing buds.

    A joined group of size >= 2 gets one intermediary neuron fed by the
    group's sources, with a unit synapse onward to the shared target.  A
    source group that already produced an intermediary into the same target
    never produces a second one; it is reported as joined again so the
    proportional closure step can keep relieving the path.
    """
    cfg = state.config
    events: list[GrowthEvent] = []
    budded_by_target: dict[int, list[int]] = {}
    for sid, syn in network.synapses.items():
        stats = state.stats_for(sid)
        if not stats.budded and stats.accumulator >= cfg.bud_threshold:
            stats.budded = True
            events.append(GrowthEvent(BUD_SPAWNED, tick, (sid,)))
        if stats.budded:
            budded_by_target.setdefault(syn.post, []).append(sid)

    for target in sorted(budded_by_target):
        for group in growth._greedy_groups(budded_by_target[target], state):
            sources = frozenset(network.synapses[sid].pre for sid in group)
            events.append(GrowthEvent(NEURONS_JOINED, tick, tuple(group)))
            key = (target, sources)
            if key not in state.groups_created:
                state.groups_created.add(key)
                intermediary = network.add_neuron(float(len(group)))
                for src in sorted(sources):
                    network.add_synapse(src, intermediary, 1.0, 1)
                network.add_synapse(intermediary, target, 1.0, 1)
                events.append(GrowthEvent(INTERMEDIARY_CREATED, tick,
                                          (intermediary, target)))
            for sid in group:
                stats = state.stats_for(sid)
                stats.accumulator = 0.0
                stats.budded = False
    return events


def network_fingerprint(network: Network) -> str:
    """Stable digest of the network snapshot a report was computed over."""
    return hashlib.sha256(network.to_json().encode("utf-8")).hexdigest()


def _outgoing(network: Network) -> dict[int, list]:
    """Per neuron, the synapses out of it in id order, read from
    ``network.synapses``: the network has no query for them."""
    outgoing: dict[int, list] = {nid: [] for nid in network.neurons}
    for syn in network.synapses.values():
        outgoing[syn.pre].append(syn)
    return outgoing


def find_terminals(network: Network) -> frozenset[int]:
    """Nodes with zero open outgoing synapses; cycles have none."""
    outgoing = _outgoing(network)
    return frozenset(nid for nid in network.neurons
                     if not any(s.open_fraction > 0.0 for s in outgoing[nid]))


def _open_successors(network: Network) -> dict[int, tuple[int, ...]]:
    """Per source with an open outgoing synapse, its targets in synapse-id order."""
    successors = {}
    outgoing = _outgoing(network)
    for nid in network.neurons:
        posts = tuple(s.post for s in outgoing[nid] if s.open_fraction > 0.0)
        if posts:
            successors[nid] = posts
    return successors


def adjacency(network: Network) -> tuple[list, list]:
    """Per node id, a tuple of its open outgoing and one of its open
    incoming ``(pre, post)`` edges in synapse-id order; ``()`` where it has
    none."""
    successors, predecessors = [], []
    outgoing = _outgoing(network)
    for nid in network.neurons:
        successors.append(tuple((nid, s.post) for s in outgoing[nid]
                                if s.open_fraction > 0.0))
        predecessors.append(tuple((s.pre, nid) for s in network.incoming(nid)
                                  if s.open_fraction > 0.0))
    return successors, predecessors


@dataclass(frozen=True)
class ResonanceReport:
    """A search report as the library's once was: both waves, and the
    resonance and recognized path ``_finish`` computed from them."""
    forward_visits: dict
    backward_visits: dict
    resonance: dict
    recognized_path: frozenset
    terminals_hit: frozenset
    seeds: frozenset
    max_depth: int
    network_hash: str


def resonate(network: Network, seeds,
             max_depth: int = DEFAULT_MAX_DEPTH) -> ResonanceReport:
    """Run one forward/backward search wave from ``seeds``.

    Visit counts are additive wave flows: each seed injects one unit, which
    copies down every open outgoing edge per depth layer, so two flows
    through a shared channel count twice.  The backward pass starts from
    each terminal with the total forward signal that arrived there and
    travels only over forward-visited edges.
    """
    seed_set = frozenset(seeds)
    if not seed_set:
        raise InvalidParameterError("seeds must be non-empty")
    for nid in seed_set:
        if nid not in network.neurons:
            raise NotFoundError(f"unknown neuron id {nid}")
    if max_depth < 1:
        raise InvalidParameterError(f"max_depth must be >= 1, got {max_depth}")

    reflectors = find_terminals(network)
    successors = network.derived(_open_successors)

    forward: dict[tuple[int, int], int] = {}
    arrivals: dict[int, int] = {}
    activation = {nid: 1 for nid in sorted(seed_set)}
    for nid in sorted(seed_set & reflectors):
        arrivals[nid] = arrivals.get(nid, 0) + 1
    activation = {nid: flow for nid, flow in activation.items()
                  if nid not in reflectors}
    for _ in range(max_depth):
        if not activation:
            break
        next_activation: dict[int, int] = {}
        for nid in sorted(activation):
            flow = activation[nid]
            for post in successors.get(nid, ()):
                edge = (nid, post)
                forward[edge] = forward.get(edge, 0) + flow
                next_activation[post] = next_activation.get(post, 0) + flow
        for nid in sorted(next_activation):
            if nid in reflectors:
                arrivals[nid] = arrivals.get(nid, 0) + next_activation[nid]
        activation = {nid: flow for nid, flow in next_activation.items()
                      if nid not in reflectors}

    reverse_index: dict[int, list[tuple[int, int]]] = {}
    for (pre, post) in forward:
        reverse_index.setdefault(post, []).append((pre, post))
    for edges in reverse_index.values():
        edges.sort()

    backward: dict[tuple[int, int], int] = {}
    reflection = {nid: arrivals[nid] for nid in sorted(arrivals)}
    for _ in range(max_depth):
        if not reflection:
            break
        next_reflection: dict[int, int] = {}
        for nid in sorted(reflection):
            flow = reflection[nid]
            for edge in reverse_index.get(nid, ()):
                backward[edge] = backward.get(edge, 0) + flow
                pre = edge[0]
                next_reflection[pre] = next_reflection.get(pre, 0) + flow
        reflection = next_reflection

    return _finish(forward, backward, frozenset(arrivals), seed_set, max_depth,
                   network_fingerprint(network))


def _finish(forward, backward, terminals_hit, seeds, max_depth,
            network_hash) -> ResonanceReport:
    """Report over the wave counts; an edge resonates with min(forward, backward)."""
    resonance = {edge: min(count, backward.get(edge, 0))
                 for edge, count in forward.items()}
    recognized = frozenset(edge for edge, value in resonance.items() if value >= 1)
    return ResonanceReport(forward, backward, resonance, recognized, terminals_hit,
                           seeds, max_depth, network_hash)


def combine_searches(report_a: ResonanceReport,
                     report_b: ResonanceReport) -> ResonanceReport:
    """Edgewise sum of two searches over the same network snapshot."""
    if report_a.network_hash != report_b.network_hash:
        raise InvalidCombinationError(
            "reports were computed over different network snapshots")
    forward: dict[tuple[int, int], int] = dict(report_a.forward_visits)
    for edge, count in report_b.forward_visits.items():
        forward[edge] = forward.get(edge, 0) + count
    backward: dict[tuple[int, int], int] = dict(report_a.backward_visits)
    for edge, count in report_b.backward_visits.items():
        backward[edge] = backward.get(edge, 0) + count
    return _finish(forward, backward,
                   report_a.terminals_hit | report_b.terminals_hit,
                   report_a.seeds | report_b.seeds,
                   max(report_a.max_depth, report_b.max_depth),
                   report_a.network_hash)


def report_to_json(report: ResonanceReport) -> str:
    edges = [{"pre": pre, "post": post,
              "forward": report.forward_visits[(pre, post)],
              "backward": report.backward_visits.get((pre, post), 0),
              "resonance": report.resonance[(pre, post)],
              "recognized": (pre, post) in report.recognized_path}
             for pre, post in sorted(report.forward_visits)]
    doc = {"seeds": sorted(report.seeds),
           "terminals_hit": sorted(report.terminals_hit),
           "max_depth": report.max_depth,
           "network_hash": report.network_hash,
           "edges": edges}
    return json.dumps(doc)


def report_csv_rows(report: ResonanceReport) -> list[list]:
    """Header plus one row per forward-visited edge, sorted by edge."""
    rows: list[list] = [["pre", "post", "forward", "backward", "resonance"]]
    for pre, post in sorted(report.forward_visits):
        rows.append([pre, post, report.forward_visits[(pre, post)],
                     report.backward_visits.get((pre, post), 0),
                     report.resonance[(pre, post)]])
    return rows


def forest_index(forest: ConceptForest):
    """The label index rebuilt from the trees: every node by label (tree by
    tree, pre-order), the first tree whose root carries each label, and each
    root's tree index."""
    nodes_with: dict[str, list[ConceptNode]] = {}
    first_root: dict[str, int] = {}
    root_index: dict[ConceptNode, int] = {}
    for index, root in enumerate(forest.trees):
        first_root.setdefault(root.label, index)
        root_index[root] = index
        for node in _preorder(root):
            nodes_with.setdefault(node.label, []).append(node)
    return nodes_with, first_root, root_index


def tree_index_of(forest: ConceptForest, root: ConceptNode) -> int:
    for index, tree in enumerate(forest.trees):
        if tree is root:
            return index
    raise NotFoundError(f"node {root.label!r} is not a tree root")


def to_json(forest: ConceptForest) -> str:
    """``ConceptForest.to_json`` that finds tree indexes by scanning the
    trees, so it also writes a forest the oracles below mutated without
    keeping its index."""
    def node_doc(node):
        return {"label": node.label, "count": node.count,
                "children": [node_doc(c) for c in node.children]}

    def tree_of(node):
        while node.parent is not None:
            node = node.parent
        return tree_index_of(forest, node)

    link_docs = sorted(
        ({"from_tree": tree_of(link.from_node),
          "from_path": forest._node_path(link.from_node),
          "to_tree": tree_index_of(forest, link.to_root),
          "label": link.label}
         for link in forest.links),
        key=lambda d: (d["from_tree"], d["from_path"], d["to_tree"]))
    return json.dumps({"trees": [node_doc(r) for r in forest.trees],
                       "links": link_docs}, allow_nan=False)


def _level_order(root: ConceptNode):
    queue = [root]
    while queue:
        node = queue.pop(0)
        yield node
        queue.extend(node.children)


def split_if_violates(forest: ConceptForest) -> list[SplitEvent]:
    """Detach every over-counted branch into a new linked base tree.

    Scans root-down, lowest tree index first, and repeats until the
    count rule holds forest-wide.  Applying it twice equals once.
    """
    events: list[SplitEvent] = []
    while True:
        found = None
        for tree_index, root in enumerate(forest.trees):
            for node in _level_order(root):
                if node.parent is not None and node.count > node.parent.count:
                    found = (tree_index, node)
                    break
            if found:
                break
        if found is None:
            break
        tree_index, node = found
        parent = node.parent
        parent.children.remove(node)
        node.parent = None
        forest.trees.append(node)
        forest.links.append(DynamicLink(parent, node))
        events.append(SplitEvent(node.label, tree_index, len(forest.trees) - 1))
    return events


def insert_sequence(forest: ConceptForest, tokens) -> list[SplitEvent]:
    """Insert one token sequence, then restore the count rule.

    The attachment point is the first root matching the head token; if
    none, the first non-root node matching it (scanned tree by tree,
    root-down); otherwise a new root.  Counts along the matched path
    increase by one and missing suffix nodes are created with count 1.
    Returns the events of the forest-wide repair.
    """
    toks = list(tokens)
    if not toks:
        raise InvalidParameterError("token sequence is empty")
    node = _attachment_point(forest, toks[0])
    if node is None:
        node = ConceptNode(toks[0])
        forest.trees.append(node)
    node.count += 1
    for tok in toks[1:]:
        child = next((c for c in node.children if c.label == tok), None)
        if child is None:
            child = ConceptNode(tok, parent=node)
            node.children.append(child)
        child.count += 1
        node = child
    return split_if_violates(forest)


def _attachment_point(forest: ConceptForest, label: str) -> ConceptNode | None:
    for root in forest.trees:
        if root.label == label:
            return root
    for root in forest.trees:
        for node in _level_order(root):
            if node is not root and node.label == label:
                return node
    return None


def search(forest: ConceptForest, query) -> list[SearchPath]:
    """All maximal matches for the query, entered through matching roots.

    Descent follows child labels; at any node a dynamic link may be
    crossed when the linked root matches the next token.  A path that
    consumes every token is complete.
    """
    q = list(query)
    if not q:
        raise InvalidParameterError("query is empty")
    results: list[SearchPath] = []
    for tree_index, root in enumerate(forest.trees):
        if root.label == q[0]:
            _explore(forest, root, q, 1, [(tree_index, [root.label])], results)
    return results


def _explore(forest, node, q, qi, segments, results):
    extended = False
    if qi < len(q):
        for child in node.children:
            if child.label == q[qi]:
                extended = True
                grown = [(ti, list(labels)) for ti, labels in segments]
                grown[-1][1].append(child.label)
                _explore(forest, child, q, qi + 1, grown, results)
        for link in forest.links_from(node):
            if link.to_root.label == q[qi]:
                extended = True
                grown = [(ti, list(labels)) for ti, labels in segments]
                grown.append((tree_index_of(forest, link.to_root), [link.to_root.label]))
                _explore(forest, link.to_root, q, qi + 1, grown, results)
    if not extended:
        results.append(SearchPath(
            segments=tuple((ti, tuple(labels)) for ti, labels in segments),
            links_crossed=len(segments) - 1,
            tokens_matched=qi,
            complete=qi == len(q),
        ))


def present_event(net: ClusterNet, concepts, fuzzy: bool = False) -> EventReport:
    """Present one event; duplicate labels collapse to a set.

    An exact-matching hidden node is reinforced, otherwise a new one is
    created with weight 1.  With fuzzy feedback every strict subset of
    the presentation is reinforced as well.  Non-reinforced nodes decay
    by the configured amount (default none).
    """
    concept_set = frozenset(concepts)
    if not concept_set:
        raise InvalidParameterError("event concept set is empty")
    net.base_concepts |= concept_set

    reinforced: list[int] = []
    created = None
    exact = next((h for h in net.hidden.values() if h.inputs == concept_set), None)
    if exact is not None:
        exact.weight += 1.0
        reinforced.append(exact.id)
    else:
        created = max(net.hidden, default=-1) + 1
        net.hidden[created] = HiddenNode(created, concept_set, 1.0,
                                         net.event_count)
    if fuzzy:
        for node in net.hidden.values():
            if node.id != created and node.inputs < concept_set:
                node.weight += 1.0
                reinforced.append(node.id)

    decayed: list[int] = []
    if net.decay > 0:
        touched = set(reinforced)
        if created is not None:
            touched.add(created)
        for node in net.hidden.values():
            if node.id not in touched:
                node.weight = max(0.0, node.weight - net.decay)
                decayed.append(node.id)

    net.event_count += 1
    return EventReport(created, tuple(sorted(reinforced)), tuple(sorted(decayed)))


def global_concepts(net: ClusterNet) -> list[GlobalConcept]:
    by_label: dict[str, list[int]] = {}
    for node in net.hidden.values():
        for label in node.inputs:
            by_label.setdefault(label, []).append(node.id)
    seen: set[int] = set()
    components: list[tuple[int, ...]] = []
    for hid in sorted(net.hidden):
        if hid in seen:
            continue
        component = {hid}
        seen.add(hid)
        queue = [hid]
        while queue:
            current = queue.pop()
            for label in net.hidden[current].inputs:
                for other in by_label[label]:
                    if other not in seen:
                        seen.add(other)
                        component.add(other)
                        queue.append(other)
        components.append(tuple(sorted(component)))
    components.sort(key=lambda c: c[0])
    return [GlobalConcept(i, members) for i, members in enumerate(components)]
