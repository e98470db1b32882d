"""Binary threshold-neuron graphs and the synchronous discrete-time firing engine.

Neurons are all-or-nothing units: the output strength is exactly 1 when a
neuron fires and 0 otherwise.  Graded behaviour enters only through synapse
open fractions, edge multiplicity, and layered wiring, never through the
unit itself.  All neurons update simultaneously from the previous tick's
outputs, so "firing at the same time" is well defined.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from dataclasses import dataclass, field

from .errors import (DuplicateEdgeError, InvalidParameterError, NotFoundError,
                     check_int, check_number, reading_document)

# Real-valued input sums are compared to thresholds with this slack to
# absorb fraction arithmetic.
FIRING_TOLERANCE = 1e-9

HISTORY_LIMIT = 256

_NETWORK = '{"neurons": [%s], "synapses": [%s]}'
_NEURON = '{"id": %d, "threshold": %r, "refractory": %d}'
_SYNAPSE = ('{"pre": %d, "post": %d, "open_fraction": %r, "distance": %d, '
            '"multiplicity": %d}')


@dataclass(slots=True)
class Neuron:
    id: int
    threshold: float


@dataclass(slots=True)
class Synapse:
    """Directed connection carrying forward signal and backward rejection.

    ``multiplicity`` represents parallel unit connections on the same
    (pre, post) pair; a weight-w link is w unit inputs bundled together.
    ``delivery``, the signal handed to the target when the source fires,
    is stored, not computed per read: it is ``open_fraction *
    multiplicity``, set on construction and by ``Network.set_open_fraction``.
    The fields are read-only outside ``Network``: change an open fraction
    with ``Network.set_open_fraction``, so ``delivery`` and the views
    derived from the network follow it.
    """

    id: int
    pre: int
    post: int
    open_fraction: float
    distance: int
    multiplicity: int = 1
    delivery: float = field(init=False)

    def __post_init__(self):
        self.delivery = self.open_fraction * self.multiplicity


@dataclass(frozen=True)
class FiringRecord:
    """Outcome of one synchronous tick.

    ``input_sums`` is sparse: it holds, in ascending id order, exactly the
    nonzero input sums.  A neuron it leaves out had a sum of 0.0, so it did
    not fire: every threshold exceeds ``FIRING_TOLERANCE``.

    The record shares its source sets instead of copying them:
    ``refractory`` is the previous tick's ``fired`` set, and ``externals``
    is the frozenset ``step`` built from its argument, which is that
    argument itself when it is already a frozenset.  Together they hold
    every id that acted as a signal source this tick.  ``sources`` builds
    their union on each read, so hot loops visit the two sets instead.
    ``fired`` may be shared with an earlier record that had the same
    sources on the same topology (see ``Network.step``); ``input_sums``
    and ``rejections`` are the record's own.
    """

    tick: int
    fired: frozenset[int]
    input_sums: dict[int, float]
    rejections: dict[int, float]
    refractory: frozenset[int]
    externals: frozenset[int]

    @property
    def sources(self) -> frozenset[int]:
        return _union(self.refractory, self.externals)


def _union(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
    """``a | b``, without a copy when either is empty."""
    if not a:
        return b
    return a | b if b else a


def _pulls(network: Network) -> deque[tuple]:
    """The step memo: of each of the last two ticks ``step`` pulled, its
    drive, refractory set, fired set and copies of its sums and rejections.
    It reads the topology alone, so ticks and ``reset_dynamics`` keep it."""
    return deque(maxlen=2)


class Network:
    """Directed threshold-unit graph with synchronous tick semantics.

    Externally driven ids act as firing sources for the current tick only.
    The neurons that fired last tick are this tick's other sources and are
    refractory: they cannot fire, and their blocked input is discarded.
    An instance is single-threaded during simulation and shares no state
    with other instances.

    Every change to the topology, the open fractions or the firing state
    goes through a method of this class.  The views ``derived`` builds are
    its one cache.  The topology mutators (``add_neuron``, ``add_synapse``,
    ``set_open_fraction``) drop every view.  A tick or ``reset_dynamics``
    changes only the firing state, so it drops only the fingerprint, the
    one view that reads it; the rest outlive ticks, the step memo of the
    last two pulls among them.
    """

    def __init__(self, rng_seed: int = 0):
        self.rng_seed = rng_seed
        self.neurons: dict[int, Neuron] = {}
        self.synapses: dict[int, Synapse] = {}
        self.tick = 0
        self.history: deque[FiringRecord] = deque(maxlen=HISTORY_LIMIT)
        self._edges: dict[tuple[int, int], int] = {}
        # Per neuron, its incoming and outgoing synapses, in id order.
        self._incoming: dict[int, list[Synapse]] = {}
        self._outgoing: dict[int, list[Synapse]] = {}
        self._last_fired: frozenset[int] = frozenset()
        self._derived: dict = {}

    # -- construction -----------------------------------------------------

    def add_neuron(self, threshold: float) -> int:
        """Add a neuron, which fires only on input: its threshold exceeds
        ``FIRING_TOLERANCE``.  Ids are dense integers in creation order."""
        # Inline, not check_number: the call made build_direct_unit a fifth slower.
        if (type(threshold) is not float and type(threshold) is not int
                or not FIRING_TOLERANCE < threshold < math.inf):
            raise InvalidParameterError(
                f"threshold must be a finite number > {FIRING_TOLERANCE}, got {threshold!r}")
        nid = len(self.neurons)
        self.neurons[nid] = Neuron(id=nid, threshold=float(threshold))
        self._derived.clear()
        return nid

    def add_synapse(self, pre: int, post: int, open_fraction: float = 1.0,
                    distance: int = 1, multiplicity: int = 1) -> int:
        """Add a directed synapse; returns its dense integer id."""
        # Inline, not _neuron_id: the two calls made building synapses 4-5 % slower.
        if type(pre) is not int or pre not in self.neurons:
            raise NotFoundError(f"unknown neuron id {pre!r}")
        if type(post) is not int or post not in self.neurons:
            raise NotFoundError(f"unknown neuron id {post!r}")
        if pre == post:
            raise InvalidParameterError("self-loops are not allowed")
        # Inline, not the checkers: their calls made build_direct_unit a fifth slower.
        if (type(open_fraction) is not float and type(open_fraction) is not int
                or not 0.0 <= open_fraction <= 1.0):
            raise InvalidParameterError(
                f"open_fraction must be a finite number in [0, 1], got {open_fraction!r}")
        if type(distance) is not int or distance < 1:
            raise InvalidParameterError(f"distance must be an integer >= 1, got {distance!r}")
        if type(multiplicity) is not int or multiplicity < 1:
            raise InvalidParameterError(
                f"multiplicity must be an integer >= 1, got {multiplicity!r}")
        if (pre, post) in self._edges:
            raise DuplicateEdgeError(f"synapse {pre}->{post} already exists")
        sid = len(self.synapses)
        syn = self.synapses[sid] = Synapse(id=sid, pre=pre, post=post,
                                           open_fraction=float(open_fraction),
                                           distance=distance, multiplicity=multiplicity)
        self._edges[(pre, post)] = sid
        self._incoming.setdefault(post, []).append(syn)
        self._outgoing.setdefault(pre, []).append(syn)
        self._derived.clear()
        return sid

    def set_open_fraction(self, synapse_id: int, open_fraction: float) -> None:
        """Set a synapse's open fraction, which must lie in [0, 1]."""
        if type(synapse_id) is not int or synapse_id not in self.synapses:
            raise NotFoundError(f"unknown synapse id {synapse_id!r}")
        check_number(open_fraction, "open_fraction", InvalidParameterError, 0, 1)
        syn = self.synapses[synapse_id]
        syn.open_fraction = float(open_fraction)
        syn.delivery = syn.open_fraction * syn.multiplicity
        self._derived.clear()

    # -- queries ----------------------------------------------------------

    def _neuron_id(self, nid) -> int:
        """``nid`` when it is the int id of a neuron; a bool or float is not."""
        if type(nid) is not int or nid not in self.neurons:
            raise NotFoundError(f"unknown neuron id {nid!r}")
        return nid

    def incoming(self, neuron_id: int) -> list[Synapse]:
        """A new list of the synapses into ``neuron_id``, in id order."""
        return list(self._incoming.get(self._neuron_id(neuron_id), ()))

    def synapse_between(self, pre: int, post: int) -> Synapse | None:
        """The synapse ``pre`` -> ``post``, or None when the two neurons
        have none."""
        sid = self._edges.get((self._neuron_id(pre), self._neuron_id(post)))
        return None if sid is None else self.synapses[sid]

    def derived(self, build):
        """``build(self)``, built at most once between two changes that drop it.

        The topology mutators drop every view; ``step`` and
        ``reset_dynamics`` drop only ``Network._fingerprint``, so any other
        ``build`` must read the topology alone, not the firing state.  The
        caller must not mutate the returned value: later callers share it.
        Two views are filled by their owner after they are built: the seed
        memo of ``resonance.resonate``, built empty and filled per seed,
        and the step memo ``_pulls``, built empty and filled by ``step``
        with each tick it pulls.
        """
        try:
            return self._derived[build]
        except KeyError:
            view = self._derived[build] = build(self)
            return view

    def _open_input_counts(self) -> dict[int, int]:
        """Per neuron with an open incoming synapse, its open unit inputs."""
        counts: dict[int, int] = {}
        for syn in self.synapses.values():
            if syn.open_fraction > 0.0:
                counts[syn.post] = counts.get(syn.post, 0) + syn.multiplicity
        return counts

    # -- simulation -------------------------------------------------------

    def step(self, external_inputs=()) -> FiringRecord:
        """Advance one synchronous tick.

        Each neuron's input sum is the open-fraction-weighted signal over
        incoming synapses whose source fired last tick or is externally
        driven this tick.  A neuron that fired last tick cannot fire; the
        per-input excess of every fired neuron is recorded as its rejection.
        The record keeps the nonzero sums, the only ones that reach a threshold.

        A tick whose drive and refractory set equal those of one of the last
        two pulls, with no topology change since, takes that pull's outcome
        instead of pulling again: thresholds and deliveries change only
        through the topology mutators, which drop the memo.
        """
        try:
            externals = frozenset(external_inputs)
        except TypeError:
            raise InvalidParameterError("external_inputs must be a collection of neuron ids, "
                                        f"got {external_inputs!r}") from None
        # The last record's own drive was checked then, and ids are never
        # deleted.  An equal drive is not enough: frozenset({True}) == frozenset({1}).
        if not self.history or externals is not self.history[-1].externals:
            # Inline, not _neuron_id: a call per external made sweep_saturated about 2 % slower.
            for nid in externals:
                if type(nid) is not int or nid not in self.neurons:
                    raise NotFoundError(f"unknown neuron id {nid!r}")
        refractory = self._last_fired
        pulls = self.derived(_pulls)
        for drive, blocked, fired, input_sums, rejections in pulls:
            if ((drive is externals or drive == externals)
                    and (blocked is refractory or blocked == refractory)):
                input_sums, rejections = dict(input_sums), dict(rejections)
                break
        else:
            fired, input_sums, rejections = self._pull(externals, refractory)
            # Copies, so that editing the returned record changes no later one.
            pulls.append((externals, refractory, fired, dict(input_sums), dict(rejections)))

        record = FiringRecord(tick=self.tick, fired=fired,
                              input_sums=input_sums, rejections=rejections,
                              refractory=refractory, externals=externals)
        self.tick += 1
        self._last_fired = fired
        self._derived.pop(Network._fingerprint, None)
        self.history.append(record)
        return record

    def _pull(self, externals: frozenset[int], refractory: frozenset[int]):
        """The fired set, the nonzero input sums and the rejections of a tick
        with these sources, each neuron pulling over its incoming synapses."""
        sources = _union(refractory, externals)
        incoming = self._incoming
        input_sums: dict[int, float] = {}
        rejections: dict[int, float] = {}
        fired = []
        open_counts = None
        # Ids are dense and never deleted, so the dict iterates in id order.
        for nid, neuron in self.neurons.items():
            total = 0.0
            for syn in incoming.get(nid, ()):
                if syn.pre in sources:
                    total += syn.delivery
            if total:
                input_sums[nid] = total
                if nid not in refractory and total >= neuron.threshold - FIRING_TOLERANCE:
                    fired.append(nid)
                    if open_counts is None:
                        open_counts = self.derived(Network._open_input_counts)
                    # A nonzero sum came through an open synapse, so the count is >= 1.
                    rejections[nid] = (total - neuron.threshold) / open_counts[nid]
        return frozenset(fired), input_sums, rejections

    def reset_dynamics(self) -> None:
        """Clear firing state (tick, history, refractory) but keep topology."""
        self.tick = 0
        self.history.clear()
        self._last_fired = frozenset()
        self._derived.pop(Network._fingerprint, None)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON form; re-serialization round-trips bit-exactly.

        The bytes are those ``json.dumps`` gives for one dict per neuron and
        per synapse, written from templates; floats take their
        ``float.__repr__`` form, as in ``json``.
        """
        neurons, synapses = self.neurons.values(), self.synapses.values()
        if not (all(map(math.isfinite, [n.threshold for n in neurons]))
                and all(map(math.isfinite, [s.open_fraction for s in synapses]))):
            raise ValueError("Out of range float values are not JSON compliant")
        fired = self._last_fired
        return _NETWORK % (
            ", ".join([_NEURON % (n.id, n.threshold, n.id in fired) for n in neurons]),
            ", ".join([_SYNAPSE % (s.pre, s.post, s.open_fraction, s.distance, s.multiplicity)
                       for s in synapses]))

    def _fingerprint(self) -> str:
        """The SHA-256 of ``to_json()``: the fingerprint view, which
        ``resonance.network_fingerprint`` reads."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "Network":
        net = cls()
        with reading_document("network"):
            doc = json.loads(text)
            fired = []
            for entry in doc["neurons"]:
                nid = net.add_neuron(entry["threshold"])
                if nid != check_int(entry["id"], "neuron id", InvalidParameterError):
                    raise InvalidParameterError(
                        f"neuron ids must be dense and ascending, got {entry['id']}")
                if check_int(entry["refractory"], "refractory", InvalidParameterError, 0, 1):
                    fired.append(nid)
            net._last_fired = frozenset(fired)
            for entry in doc["synapses"]:
                net.add_synapse(entry["pre"], entry["post"], entry["open_fraction"],
                                entry["distance"], entry["multiplicity"])
        return net
