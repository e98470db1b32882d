"""Time-stamped event clustering into hidden nodes and global concepts.

Each distinct concept set presented as an event becomes its own hidden
node; only the exact same presentation reinforces it again, unless fuzzy
feedback is on, in which case nested sub-clusters of the presented set are
reinforced too.  Hidden nodes whose input sets overlap are grouped
transitively into global concepts, which can be queried in the reverse
direction to retrieve the original feature sets.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, combinations

from .errors import (InvalidParameterError, NotFoundError, check_int, check_labels,
                     check_number, check_str, iter_collection, reading_document)


@dataclass
class HiddenNode:
    """An exact event cluster; its input set is immutable after creation, and
    its weight is read-only outside ``ClusterNet``, which tracks decay."""

    id: int
    inputs: frozenset[str]
    weight: float
    created_at: int


@dataclass(frozen=True)
class GlobalConcept:
    id: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class EventReport:
    created: int | None
    reinforced: tuple[int, ...]
    decayed: tuple[int, ...]


class ClusterNet:
    """Base concepts, hidden event nodes, and overlap-closure global concepts."""

    def __init__(self, decay: float = 0.0):
        self.decay = check_number(decay, "decay", InvalidParameterError, 0)
        self.base_concepts: set[str] = set()
        self.hidden: dict[int, HiddenNode] = {}
        self.event_count = 0
        self._reindex()

    # -- training ------------------------------------------------------------

    def present_event(self, concepts, fuzzy: bool = False) -> EventReport:
        """Present one event; duplicate labels collapse to a set.

        The exact-matching hidden node is reinforced, otherwise a new
        one is created with weight 1.  With fuzzy feedback every strict
        subset of the presentation is reinforced as well.  Non-reinforced
        nodes decay by the configured amount (default none).
        """
        concept_set = frozenset(
            check_str(label, "event label", InvalidParameterError)
            for label in iter_collection(concepts, "event", InvalidParameterError))
        if not concept_set:
            raise InvalidParameterError("event concept set is empty")
        self.base_concepts |= concept_set

        hidden, live, exact = self.hidden, self._live, self._exact
        same = exact.get(concept_set)
        reinforced = [] if same is None else [same]
        if fuzzy:
            # Strict subsets: look up each proper subset of the event when
            # there are fewer of those than posting entries, else count hits
            # (every label of the node is hit, and the event has more labels).
            size = len(concept_set)
            postings = [self._with_label.get(label, ()) for label in concept_set]
            if (1 << size) - 2 < sum(map(len, postings)):
                for k in range(1, size):
                    for subset in combinations(concept_set, k):
                        hid = exact.get(frozenset(subset))
                        if hid is not None:
                            reinforced.append(hid)
            else:
                hits: dict[int, int] = {}
                for hid in chain.from_iterable(postings):
                    hits[hid] = hits.get(hid, 0) + 1
                reinforced += [hid for hid, count in hits.items()
                               if count < size and count == len(hidden[hid].inputs)]
        reinforced.sort()
        decayed = []
        if self.decay > 0:
            # A weight that a decay step set to 0.0 stays 0.0, so only live
            # nodes are visited; ``decayed`` is every other id, from ``hidden``.
            d, dead = self.decay, []
            for hid in reinforced:   # kept out of the decay; rejoins when reinforced
                live.pop(hid, None)
            for hid, node in live.items():
                w = node.weight - d
                if w <= 0.0:
                    w = 0.0
                    dead.append(hid)
                node.weight = w
            for hid in dead:
                del live[hid]
            decayed = list(hidden)
            for hid in reversed(reinforced):
                del decayed[bisect_left(decayed, hid)]
        for hid in reinforced:
            node = live[hid] = hidden[hid]
            node.weight += 1.0
        created = None
        if same is None:
            created = next(reversed(hidden), -1) + 1
            hidden[created] = HiddenNode(created, concept_set, 1.0, self.event_count)
            self._join(created)

        self.event_count += 1
        return EventReport(created, tuple(reinforced), tuple(decayed))

    def ingest_events(self, lines, fuzzy: bool = False) -> list[EventReport]:
        """Parse ``time<TAB>label,label,...`` lines, a collection of strings,
        not one string; times are finite and rise strictly."""
        reports = []
        last_time = None
        for line_number, raw in enumerate(
                iter_collection(lines, "lines", InvalidParameterError), 1):
            line = check_str(raw, "line", InvalidParameterError).rstrip("\n")
            if not line.strip():
                continue
            time_part, sep, label_part = line.partition("\t")
            if not sep:
                raise InvalidParameterError(
                    f"line {line_number}: expected time<TAB>labels")
            try:
                moment = float(time_part)
            except ValueError:
                raise InvalidParameterError(
                    f"line {line_number}: bad time {time_part!r}") from None
            check_number(moment, f"line {line_number}: time", InvalidParameterError)
            if last_time is not None and moment <= last_time:
                raise InvalidParameterError(
                    f"line {line_number}: times must be strictly increasing")
            last_time = moment
            labels = [part.strip() for part in label_part.split(",") if part.strip()]
            if not labels:
                raise InvalidParameterError(f"line {line_number}: event concept set is empty")
            reports.append(self.present_event(labels, fuzzy=fuzzy))
        return reports

    # -- queries ---------------------------------------------------------------

    def retrieve(self, global_concept_id: int) -> list[tuple[frozenset[str], float]]:
        """Member feature sets of one global concept, strongest first.

        Ordered by descending weight, ties by creation order; this is the
        reverse-direction query that recovers what was clustered.
        """
        concepts = self.global_concepts   # ids are 0..G-1 in list order
        if type(global_concept_id) is not int or not 0 <= global_concept_id < len(concepts):
            raise NotFoundError(f"unknown global concept {global_concept_id!r}")
        members = sorted((self.hidden[h] for h in concepts[global_concept_id].members),
                         key=lambda node: (-node.weight, node.created_at))
        return [(node.inputs, node.weight) for node in members]

    def prune(self, threshold: float) -> list[int]:
        """Remove hidden nodes with weight <= threshold; bases remain."""
        check_number(threshold, "threshold", InvalidParameterError, 0)
        removed = [hid for hid, h in self.hidden.items() if h.weight <= threshold]
        for hid in removed:
            del self.hidden[hid]
        self._reindex()
        return removed

    # ``hidden`` holds the nodes in ascending id order: ``present_event``
    # appends a node one id above the highest present, ``prune`` deletes and
    # ``from_json`` loads ascending ids.  The lookups over it: ``_exact``
    # maps each input set to its one node, ``_with_label`` lists the nodes
    # carrying each label, in id order.  ``_live`` maps id to node for the
    # nodes a decay step could still change: each node joins it when added
    # (so a loaded weight 0 still decays once into 0.0) or reinforced, and
    # leaves it when a decay step sets its weight to 0.0.

    def _reindex(self):
        """Rebuild the lookups and ``_live`` from ``hidden``."""
        self._exact: dict[frozenset[str], int] = {}
        self._with_label: dict[str, list[int]] = {}
        self._live: dict[int, HiddenNode] = {}
        for hid in self.hidden:
            self._join(hid)
        self._globals = None

    def _join(self, hid: int):
        """Add hidden node ``hid`` to the lookups and ``_live``; drops the
        cached globals."""
        node = self._live[hid] = self.hidden[hid]
        self._exact[node.inputs] = hid
        for label in node.inputs:
            self._with_label.setdefault(label, []).append(hid)
        self._globals = None

    @property
    def global_concepts(self) -> list[GlobalConcept]:
        """Overlap-closure components, each listed by its smallest member.

        Built by a union-find (Tarjan 1975) over the label posting lists on
        the first read after a change and shared until the next one; the
        caller must not mutate the returned list.
        """
        if self._globals is None:
            parent = {hid: hid for hid in self.hidden}

            def find(hid: int) -> int:
                while parent[hid] != hid:
                    parent[hid] = parent[parent[hid]]
                    hid = parent[hid]
                return hid

            for ids in self._with_label.values():
                root = find(ids[0])
                for hid in ids[1:]:
                    parent[find(hid)] = root
            components: dict[int, list[int]] = {}
            for hid in self.hidden:
                components.setdefault(find(hid), []).append(hid)
            self._globals = [GlobalConcept(i, tuple(members))
                             for i, members in enumerate(components.values())]
        return self._globals

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "decay": self.decay,
            "event_count": self.event_count,
            "base_concepts": sorted(self.base_concepts),
            "hidden_nodes": [{"id": h.id, "inputs": sorted(h.inputs),
                              "weight": h.weight, "created_at": h.created_at}
                             for h in self.hidden.values()],
            "global_concepts": self._global_docs(),
        }
        return json.dumps(doc, allow_nan=False)

    def _global_docs(self) -> list[dict]:
        return [{"id": g.id, "members": list(g.members)} for g in self.global_concepts]

    @classmethod
    def from_json(cls, text: str) -> "ClusterNet":
        """Load a document; its ``global_concepts`` must be the ones its
        hidden nodes derive, written as ``to_json`` writes them."""
        error = InvalidParameterError
        with reading_document("cluster"):
            doc = json.loads(text)
            net = cls(decay=doc["decay"])
            net.event_count = check_int(doc["event_count"], "event_count", error, 0)
            net.base_concepts = set(check_labels(doc["base_concepts"], "base_concepts", error))
            for entry in doc["hidden_nodes"]:
                hid = check_int(entry["id"], "hidden node id", error, 0)
                created_at = check_int(entry["created_at"], f"hidden node {hid} created_at",
                                       error, 0, net.event_count - 1)
                if hid <= next(reversed(net.hidden), -1):
                    raise ValueError(f"hidden node id {hid} is not above the id before it")
                weight = check_number(entry["weight"], f"hidden node {hid} weight", error, 0)
                inputs = check_labels(entry["inputs"], f"hidden node {hid} inputs", error)
                if not inputs:
                    raise ValueError(f"hidden node {hid} has no inputs")
                if not net.base_concepts.issuperset(inputs):
                    raise ValueError(f"hidden node {hid} inputs name labels "
                                     "missing from base_concepts")
                inputs = frozenset(inputs)
                if inputs in net._exact:
                    raise ValueError(f"hidden node {hid} repeats the inputs of "
                                     f"hidden node {net._exact[inputs]}")
                net.hidden[hid] = HiddenNode(hid, inputs, weight, created_at)
                net._join(hid)
            if (json.dumps(doc["global_concepts"], sort_keys=True)
                    != json.dumps(net._global_docs(), sort_keys=True)):
                raise ValueError("global_concepts are not the ones the hidden nodes derive")
        return net
