"""Self-organising rewiring driven by rejected excess signal.

Over-driven synapses accumulate turbulence each time their target fires
with excess; once the accumulator crosses the bud threshold the synapse
grows a bud.  Buds into the same target whose sources co-fired closely
enough join into a new intermediary neuron, and the original paths close
in proportion to how often they met rejection.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from functools import reduce
from itertools import chain
from operator import add

from .core_net import HISTORY_LIMIT, FiringRecord, Network
from .errors import InvalidParameterError, NotFoundError, check_int, check_number
from .feedback import DEFAULT_EPS_BALANCE, is_balanced, repulsion_at

BUD_SPAWNED = "bud_spawned"
NEURONS_JOINED = "neurons_joined"
INTERMEDIARY_CREATED = "intermediary_created"
PATH_CLOSED = "path_closed"
PATH_REDUCED = "path_reduced"


def float_total(values):
    """The sum of ``values``, added left to right on every Python.

    From 3.12 on, ``sum`` adds floats with compensated summation, which
    changes the last bits of the totals that artifacts record.  Like
    ``sum`` before 3.12, this returns the int 0 for no values.
    """
    return reduce(add, values, 0)


@dataclass(frozen=True)
class GrowthConfig:
    """Tunable constants of the growth process.

    The defaults are starting points; the experiment harness sweeps them.
    An intermediary's threshold is not among them: it is always the size
    of its joined group (see ``spawn_and_join``).
    """

    bud_threshold: float = 3.0        # accumulated turbulence that spawns a bud
    window: int = 8                   # ticks of co-firing/rejection statistics
    cofire_agreement: float = 0.9     # fraction of shared activity to join
    offpattern_decay: float = 0.5     # accumulator multiplier on clean carries
    eps_balance: float = DEFAULT_EPS_BALANCE
    force_per_segment: float = 0.1    # opposing forward force per backward segment
    close_cutoff: float = 0.05        # open fractions below this snap to zero

    def __post_init__(self):
        error = InvalidParameterError
        check_number(self.bud_threshold, "bud_threshold", error, 0, brackets="(]")
        # is_balanced can look back no further than the kept history.
        check_int(self.window, "window", error, 1, HISTORY_LIMIT)
        check_number(self.cofire_agreement, "cofire_agreement", error, 0, 1, "(]")
        check_number(self.offpattern_decay, "offpattern_decay", error, 0, 1, "[)")
        check_number(self.eps_balance, "eps_balance", error, 0)
        check_number(self.force_per_segment, "force_per_segment", error, 0)
        check_number(self.close_cutoff, "close_cutoff", error, 0, 1)


@dataclass(frozen=True)
class GrowthEvent:
    kind: str
    tick: int
    affected: tuple[int, ...]


@dataclass(slots=True)
class _SynapseStats:
    accumulator: float = 0.0
    budded: bool = False


def _closed_ids(network: Network) -> frozenset[int]:
    """The ids of the synapses that carry nothing: their open fraction is 0."""
    return frozenset(sid for sid, syn in network.synapses.items() if syn.open_fraction <= 0.0)


class TurbulenceState:
    """Per-synapse turbulence accumulators, and the last ``window`` calls.

    Each ``accumulate_turbulence`` call keeps one entry of what the tick
    did: its external and refractory sources, its rejecting targets, how
    many synapses it saw and which of them were closed.  ``window``
    rebuilds a synapse's recent carries and rejections from those entries,
    so no call touches a window.
    """

    def __init__(self, config: GrowthConfig | None = None):
        if not isinstance(config, (GrowthConfig, type(None))):
            raise InvalidParameterError(f"config must be a GrowthConfig or None, got {config!r}")
        self.config = GrowthConfig() if config is None else config
        self.stats: dict[int, _SynapseStats] = {}
        self._recent: deque[tuple] = deque(maxlen=self.config.window)
        # (target, frozenset of sources) pairs that already own an intermediary
        self.groups_created: set[tuple[int, frozenset[int]]] = set()
        self._crossed: set[int] = set()   # may have reached bud_threshold since spawn
        self._budded: set[int] = set()

    def stats_for(self, synapse_id: int) -> _SynapseStats:
        """The stats of ``synapse_id``."""
        stats = self.stats.get(synapse_id) if type(synapse_id) is int else None
        if stats is None:
            raise NotFoundError(f"no stats for synapse id {synapse_id!r}: accumulate_turbulence "
                                f"registers new synapses on its next call")
        return stats

    def window(self, network: Network, synapse_id: int) -> tuple[int, int, int]:
        """Flags of ``synapse_id``'s carries and rejections, newest in bit 0,
        over the kept calls since it was registered, and their number: it
        carried when open with its source acting, into a rejecting target."""
        self.stats_for(synapse_id)
        syn = network.synapses[synapse_id]
        pre, post = syn.pre, syn.post
        carried = rejected = length = 0
        for externals, refractory, rejecting, registered, closed in self._recent:
            if synapse_id < registered:
                length += 1
                carry = synapse_id not in closed and (pre in externals or pre in refractory)
                carried = carried << 1 | carry
                rejected = rejected << 1 | (carry and post in rejecting)
        return carried, rejected, length

    def total_turbulence(self) -> float:
        return float_total(st.accumulator for st in self.stats.values())


def accumulate_turbulence(network: Network, record: FiringRecord,
                          state: TurbulenceState) -> TurbulenceState:
    """Fold one tick's firing outcome into the turbulence bookkeeping.

    Synapses that carried signal into a rejecting target gain the clamped
    backward repulsion; synapses that carried signal when the target did
    not reject decay instead, which keeps frequently useful paths open.
    Only the open synapses out of the tick's sources carried, so only they
    are visited: those out of ``record.externals``, then those out of the
    ``record.refractory`` ids not among them, without building the union.
    The call's entry in ``state`` gives every window its flags.
    """
    cfg = state.config
    stats_map, synapses = state.stats, network.synapses
    # New synapses join in id order, so ``stats`` keeps the order in which
    # an eager pass over every synapse would have met them.
    for sid in range(len(stats_map), len(synapses)):
        stats_map[sid] = _SynapseStats()
    rejecting = {nid: excess for nid, excess in record.rejections.items()
                 if excess > cfg.eps_balance}
    state._recent.append((record.externals, record.refractory, rejecting, len(synapses),
                          network.derived(_closed_ids)))
    gains: dict[tuple[int, int], float] = {}
    crossed, bud_threshold, decay = state._crossed, cfg.bud_threshold, cfg.offpattern_decay
    outgoing = network._outgoing
    externals = record.externals
    for src in chain(externals, record.refractory - externals):
        for syn in outgoing.get(src, ()):
            if syn.open_fraction <= 0.0:
                continue
            stats = stats_map[syn.id]
            post = syn.post
            if post in rejecting:
                key = (post, syn.distance)
                gain = gains.get(key)
                if gain is None:
                    gain = gains[key] = repulsion_at(rejecting[post], syn.distance,
                                                     cfg.force_per_segment)
                stats.accumulator += gain
                if stats.accumulator >= bud_threshold and not stats.budded:
                    crossed.add(syn.id)
            else:
                stats.accumulator *= decay
    return state


def _bit_indices(bits: int):
    """Positions of the set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _greedy_groups(ids: list[int], state: TurbulenceState,
                   network: Network) -> list[list[int]]:
    """Partition budded synapse ids into co-firing groups.

    Every member of a group must meet the agreement criterion pairwise with
    every other member: over the recent span both windows cover, the ticks
    both carried make up at least ``cofire_agreement`` of the ticks either
    carried.  Largest group first; ties go to the lowest seed id.

    Bit ``k`` of every bitset below stands for the ``k``-th smallest id.  A
    seed's group grows by taking the lowest candidate that agrees with every
    member so far, the order in which a scan of the sorted ids meets them.
    """
    threshold = state.config.cofire_agreement
    order = sorted(ids)
    # Ids by carry window, keyed (mask, length) as ``state.window`` gives it.
    windows: dict[tuple[int, int], int] = {}
    for index, sid in enumerate(order):
        carried, _, length = state.window(network, sid)
        key = (carried, length)
        windows[key] = windows.get(key, 0) | (1 << index)
    adjacency = [0] * len(order)
    for (mask_a, len_a), bits_a in windows.items():
        row = 0
        for (mask_b, len_b), bits_b in windows.items():
            cut = (1 << min(len_a, len_b)) - 1
            a, b = mask_a & cut, mask_b & cut
            either = (a | b).bit_count()
            if either and (a & b).bit_count() / either >= threshold:
                row |= bits_b
        for index in _bit_indices(bits_a):
            adjacency[index] = row & ~(1 << index)

    remaining = (1 << len(order)) - 1
    groups = []
    while True:
        best = best_size = 0
        left = remaining.bit_count()
        for seed in _bit_indices(remaining):
            if best_size == left:
                break  # a later seed wins only with a strictly larger group
            candidates = adjacency[seed] & remaining
            if candidates.bit_count() + 1 <= best_size:
                continue
            clique = 1 << seed
            while candidates:
                pick = candidates & -candidates
                clique |= pick
                candidates &= adjacency[pick.bit_length() - 1]
            size = clique.bit_count()
            if size > best_size:
                best, best_size = clique, size
        if best_size < 2:
            break
        groups.append([order[index] for index in _bit_indices(best)])
        remaining &= ~best
    return groups


def spawn_and_join(network: Network, state: TurbulenceState,
                   tick: int) -> list[GrowthEvent]:
    """Spawn buds on over-pressured synapses and join co-firing buds.

    A joined group of size >= 2 gets one intermediary neuron fed by the
    group's sources, with a unit synapse onward to the shared target.  Its
    threshold is the group's size: it demands the whole group, so the
    joined inputs give one unit output again.  A
    source group that already produced an intermediary into the same target
    never produces a second one; it is reported as joined again so the
    proportional closure step can keep relieving the path.
    """
    check_int(tick, "tick", InvalidParameterError, 0)
    cfg = state.config
    events: list[GrowthEvent] = []
    # An accumulator rises only on a rejection, where accumulate_turbulence
    # notes each one that reached the threshold.  When it ran more than once
    # since the last spawn, a later clean carry may have decayed one below.
    for sid in sorted(state._crossed):
        stats = state.stats[sid]
        if not stats.budded and stats.accumulator >= cfg.bud_threshold:
            stats.budded = True
            state._budded.add(sid)
            events.append(GrowthEvent(BUD_SPAWNED, tick, (sid,)))
    state._crossed.clear()
    budded_by_target: dict[int, list[int]] = {}
    for sid in state._budded:   # _greedy_groups orders each target's ids
        budded_by_target.setdefault(network.synapses[sid].post, []).append(sid)

    for target in sorted(budded_by_target):
        for group in _greedy_groups(budded_by_target[target], state, network):
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
                stats = state.stats[sid]
                stats.accumulator = 0.0
                stats.budded = False
                state._budded.discard(sid)
    return events


def close_paths(network: Network, state: TurbulenceState, joined_group,
                tick: int) -> list[GrowthEvent]:
    """Close the joined originals in proportion to their observed rejection.

    A source that only ever fired into rejection closes completely; one
    that also completed clean transmissions keeps a reduced open fraction.
    Synapses with no carrying evidence in the window are skipped.
    """
    check_int(tick, "tick", InvalidParameterError, 0)
    cfg = state.config
    events: list[GrowthEvent] = []
    for sid in sorted(joined_group):
        syn = network.synapses[sid]
        carried, rejected, _ = state.window(network, sid)
        if not carried:
            continue
        ratio = rejected.bit_count() / carried.bit_count()
        new_fraction = syn.open_fraction * (1.0 - ratio)
        if new_fraction < cfg.close_cutoff:
            network.set_open_fraction(sid, 0.0)
            events.append(GrowthEvent(PATH_CLOSED, tick, (sid,)))
        else:
            network.set_open_fraction(sid, new_fraction)
            events.append(GrowthEvent(PATH_REDUCED, tick, (sid,)))
    return events


def growth_tick(network: Network, state: TurbulenceState,
                external_inputs=()) -> tuple[FiringRecord, list[GrowthEvent]]:
    """One engine tick: step, accumulate, join, and close in order."""
    record = network.step(external_inputs)
    accumulate_turbulence(network, record, state)
    events = spawn_and_join(network, state, record.tick)
    closures: list[GrowthEvent] = []
    for event in events:
        if event.kind == NEURONS_JOINED:
            closures.extend(close_paths(network, state, event.affected, record.tick))
    events.extend(closures)
    return record, events


@dataclass
class ConvergenceReport:
    """Outcome of a run-until-balanced experiment.

    ``ticks_to_balance`` counts the ticks before the lasting balanced
    window began: 0 means no firing neuron ever exceeded the excess
    tolerance.  None means balance was not confirmed within max_ticks;
    non-convergence is a report outcome, not an error.
    """

    ticks_to_balance: int | None
    intermediaries_created: int
    final_total_excess: float
    initial_max_excess: float
    final_max_excess: float
    ticks_run: int
    events: tuple[GrowthEvent, ...] = field(default_factory=tuple)

    def to_doc(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self) if f.name != "events"},
                "events_total": len(self.events)}


def _as_schedule(input_schedule):
    """Normalize a schedule to a tick -> ids callable.

    Accepts a callable, a constant id set, or a per-tick list or tuple of
    id collections (cycled when the run outlasts it).  One string is none
    of these: it would be read as its characters.
    """
    if callable(input_schedule):
        return input_schedule
    if isinstance(input_schedule, (set, frozenset)):
        ids = frozenset(input_schedule)
        return lambda tick: ids
    if isinstance(input_schedule, (list, tuple)) and not any(
            isinstance(step, str) for step in input_schedule):
        try:
            steps = [frozenset(step) for step in input_schedule] or [frozenset()]
            return lambda tick: steps[tick % len(steps)]
        except TypeError:   # a step that is not a collection of hashable ids
            pass
    raise InvalidParameterError("input_schedule must be a callable, a set of ids or a list "
                                f"or tuple of id collections, got {input_schedule!r}")


def run_until_balanced(network: Network, input_schedule,
                       config: GrowthConfig | None = None,
                       max_ticks: int = 500, on_tick=None) -> ConvergenceReport:
    """Step the network with growth until balanced or out of ticks.

    The run stops once a full window of ticks has passed with no firing
    neuron above the excess tolerance; confirming balance therefore takes
    at least ``config.window`` ticks.  Fully deterministic given the
    network and schedule.
    """
    check_int(max_ticks, "max_ticks", InvalidParameterError, 1)
    if on_tick is not None and not callable(on_tick):
        raise InvalidParameterError(f"on_tick must be None or a callable, got {on_tick!r}")
    state = TurbulenceState(config)
    cfg = state.config
    schedule = _as_schedule(input_schedule)
    events: list[GrowthEvent] = []
    ticks_to_balance = None
    initial_max = 0.0
    ticks_run = 0
    for tick in range(max_ticks):
        record, tick_events = growth_tick(network, state, schedule(tick))
        events.extend(tick_events)
        ticks_run = tick + 1
        if tick == 0:
            initial_max = max(record.rejections.values(), default=0.0)
        balanced = is_balanced(network, cfg.window, cfg.eps_balance)
        if on_tick is not None:
            on_tick(record, state, tick_events, balanced)
        if balanced and ticks_run >= cfg.window:
            ticks_to_balance = ticks_run - cfg.window
            break
    final_excesses = [excess for record in list(network.history)[-cfg.window:]
                      for excess in record.rejections.values()]
    return ConvergenceReport(
        ticks_to_balance=ticks_to_balance,
        intermediaries_created=sum(1 for e in events
                                   if e.kind == INTERMEDIARY_CREATED),
        final_total_excess=float_total(final_excesses),
        initial_max_excess=initial_max,
        final_max_excess=max(final_excesses, default=0.0),
        ticks_run=ticks_run,
        events=tuple(events),
    )
