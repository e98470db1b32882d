"""Turbulence accumulation, bud joining, path closure, and convergence."""

import dataclasses
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import _greedy_groups as oracle_greedy_groups
from renforge import (FiringRecord, GrowthConfig, GrowthEvent, InvalidParameterError,
                      Network, NotFoundError, TurbulenceState, accumulate_turbulence,
                      close_paths, growth_tick, repulsion_at, run_until_balanced)
from renforge.growth import (BUD_SPAWNED, INTERMEDIARY_CREATED,
                             NEURONS_JOINED, PATH_CLOSED, PATH_REDUCED,
                             _greedy_groups, float_total)
from renforge.harness import ALL_FIRING_GROWTH, build_direct_unit


def pack(flags) -> int:
    """A window of flags, oldest first, as an int with the newest in bit 0."""
    mask = 0
    for flag in flags:
        mask = mask << 1 | flag
    return mask


def seed_window(net, state, windows):
    """Fold one accumulate_turbulence call per flag into ``state``, so that
    each synapse id of ``windows`` ends with the window its ``(carried,
    rejected)`` flags, oldest first, describe.  On each call the sources of
    the carrying synapses act and the targets of the rejected ones reject;
    synapses that share a source or a target must agree on its flags."""
    ticks = len(next(iter(windows.values()))[0])
    for tick in range(ticks):
        acting = frozenset(net.synapses[sid].pre for sid, (carried, _) in windows.items()
                           if carried[tick])
        rejections = {net.synapses[sid].post: 1.0 for sid, (_, rejected) in windows.items()
                      if rejected[tick]}
        accumulate_turbulence(net, FiringRecord(tick, frozenset(rejections), {}, rejections,
                                                frozenset(), acting), state)
    for sid, (carried, rejected) in windows.items():
        assert state.window(net, sid) == (pack(carried), pack(rejected), ticks)


class TestGrowthConfig:
    def test_defaults(self):
        cfg = GrowthConfig()
        assert cfg.bud_threshold == 3.0
        assert cfg.window == 8
        assert cfg.cofire_agreement == 0.9
        assert cfg.offpattern_decay == 0.5
        assert cfg.eps_balance == 0.2

    @pytest.mark.parametrize("kwargs", [
        {"bud_threshold": 0}, {"window": 0}, {"cofire_agreement": 0},
        {"cofire_agreement": 1.5}, {"offpattern_decay": 1.0},
        {"eps_balance": -0.1}, {"close_cutoff": -0.01}, {"close_cutoff": 1.5},
        {"window": 257}, {"force_per_segment": -0.1},
        {"offpattern_decay": False},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            GrowthConfig(**kwargs)


class TestAccumulateTurbulence:
    def test_balanced_unit_accumulates_nothing(self):
        net, inputs, _ = build_direct_unit(5, 4.0)
        state = TurbulenceState(GrowthConfig())
        events = []
        for _ in range(20):
            _, tick_events = growth_tick(net, state, inputs)
            events.extend(tick_events)
        assert state.total_turbulence() == 0.0
        assert events == []

    def test_overdriven_trajectory_matches_formulas(self):
        # 25 saturating inputs against threshold 5: excess 0.8 on every
        # firing tick, decay on the refractory carries in between.
        net, inputs, main = build_direct_unit(25, 5.0)
        cfg = ALL_FIRING_GROWTH
        state = TurbulenceState(cfg)
        expected = 0.0
        probe = net.incoming(main)[0].id
        original_ids = [s.id for s in net.incoming(main)]
        for _ in range(6):
            record, events = growth_tick(net, state, inputs)
            if record.rejections.get(main, 0.0) > cfg.eps_balance:
                expected += repulsion_at(0.8, 1, cfg.force_per_segment)
            else:
                expected *= cfg.offpattern_decay
            assert state.stats_for(probe).accumulator == expected
            assert not any(e.kind == BUD_SPAWNED for e in events)
            assert expected < cfg.bud_threshold
        # The next firing tick pushes every synapse over the bud threshold;
        # the group joins at once and its accumulators reset.
        _, events = growth_tick(net, state, inputs)
        buds = [e for e in events if e.kind == BUD_SPAWNED]
        assert sorted(e.affected[0] for e in buds) == original_ids
        assert any(e.kind == NEURONS_JOINED for e in events)
        assert state.stats_for(probe).accumulator == 0.0

    def test_source_firing_alone_halves_its_accumulator(self):
        net, inputs, main = build_direct_unit(3, 1.0)
        cfg = GrowthConfig(bud_threshold=100.0)
        state = TurbulenceState(cfg)
        growth_tick(net, state, inputs)          # excess 2/3, all gain
        gain = repulsion_at(2 / 3, 1, cfg.force_per_segment)
        sids = [s.id for s in net.incoming(main)]
        assert [state.stats_for(s).accumulator for s in sids] == [gain] * 3
        growth_tick(net, state, [inputs[0]])     # target refractory, no rejection
        assert state.stats_for(sids[0]).accumulator == gain * cfg.offpattern_decay
        assert state.stats_for(sids[1]).accumulator == gain
        assert state.stats_for(sids[2]).accumulator == gain

    @pytest.mark.parametrize("n, threshold, cfg, probability", [
        (25, 5.0, ALL_FIRING_GROWTH, 1.0),
        (23, 1.0, GrowthConfig(bud_threshold=0.3, window=6), 0.5),
    ])
    def test_reading_stats_changes_no_later_value(self, n, threshold, cfg, probability):
        # An intermediary's synapses appear after the tick's accumulate
        # call.  Stats that a read gave them, newest first, would stand out
        # of id order, and total_turbulence, which sums in dict order, would
        # change in its last bits under a random drive.
        def run(read):
            net, inputs, _ = build_direct_unit(n, threshold)
            state = TurbulenceState(cfg)
            draw = random.Random(0).random
            totals = []
            for _ in range(60):
                growth_tick(net, state, [i for i in inputs if draw() < probability])
                for sid in reversed(range(len(net.synapses)) if read else ()):
                    try:
                        state.window(net, sid)
                    except NotFoundError:
                        pass
                totals.append(state.total_turbulence().hex())
            return list(state.stats), totals

        assert run(read=True) == run(read=False)

    def test_rejection_counts_never_exceed_fired_counts(self):
        net, inputs, main = build_direct_unit(10, 5.0)
        state = TurbulenceState(GrowthConfig(bud_threshold=100.0))
        for tick in range(12):
            growth_tick(net, state, inputs if tick % 3 else [])
        for syn in net.incoming(main):
            carried, rejected, _ = state.window(net, syn.id)
            assert rejected.bit_count() <= carried.bit_count()


class TestSpawnAndJoin:
    def test_two_always_cofiring_inputs_join(self):
        # Sources a and b fire only with the over-driving group; c also
        # fires alone and keeps its path.
        net, inputs, main = build_direct_unit(3, 1.0)
        a, b, c = inputs
        cfg = GrowthConfig(bud_threshold=1.0)
        state = TurbulenceState(cfg)
        schedule = {0: {a, b, c}, 2: {c}}
        joined = []
        for tick in range(6):
            _, events = growth_tick(net, state, schedule.get(tick % 4, ()))
            joined.extend(e for e in events if e.kind == NEURONS_JOINED)
        assert len(joined) == 1
        intermediary = max(net.neurons)
        assert net.neurons[intermediary].threshold == 2.0
        assert {s.pre for s in net.incoming(intermediary)} == {a, b}
        assert net.synapse_between(intermediary, main) is not None
        # The joined originals closed fully; the independent path is intact.
        assert net.synapse_between(a, main).open_fraction == 0.0
        assert net.synapse_between(b, main).open_fraction == 0.0
        assert net.synapse_between(c, main).open_fraction == 1.0

    def test_all_pairwise_cofire_forms_one_group(self):
        net, inputs, main = build_direct_unit(4, 1.0)
        cfg = GrowthConfig(bud_threshold=1.0)
        state = TurbulenceState(cfg)
        events = []
        for tick in range(4):
            _, tick_events = growth_tick(net, state, inputs if tick % 2 == 0 else ())
            events.extend(tick_events)
        created = [e for e in events if e.kind == INTERMEDIARY_CREATED]
        assert len(created) == 1
        # The intermediary demands its whole group of four.
        assert net.neurons[created[0].affected[0]].threshold == 4.0
        # Only the intermediary remains open.
        assert net.derived(Network._open_input_counts)[main] == 1

    def test_single_bud_without_partner_persists(self):
        net = Network()
        src = net.add_neuron(1.0)
        main = net.add_neuron(1.0)
        sid = net.add_synapse(src, main, 1.0, 1, multiplicity=3)
        state = TurbulenceState(GrowthConfig(bud_threshold=1.0))
        events = []
        for tick in range(8):
            _, tick_events = growth_tick(net, state, [src] if tick % 2 == 0 else ())
            events.extend(tick_events)
        assert any(e.kind == BUD_SPAWNED and e.affected == (sid,) for e in events)
        assert not any(e.kind == NEURONS_JOINED for e in events)
        assert [s for s, stats in state.stats.items() if stats.budded] == [sid]

    def test_groups_are_pairwise_cliques(self):
        net, _inputs, _main = build_direct_unit(3, 1.0)
        state = TurbulenceState(GrowthConfig(cofire_agreement=0.5))
        patterns = {0: [True, True, False, False],
                    1: [True, True, True, True],
                    2: [False, False, True, True]}
        seed_window(net, state, {sid: (flags, [False] * 4) for sid, flags in patterns.items()})
        groups = _greedy_groups([0, 1, 2], state, net)
        # 0~1 and 1~2 agree, 0~2 do not: no group may contain both 0 and 2.
        assert groups == [[0, 1]]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_greedy_groups_match_naive_oracle(self, data):
        # Members are noisy copies of a few prototype windows, so large
        # cliques and equal-size ties occur; some windows are cut short.
        # The eager state holds them as drawn and reads no network.
        window = data.draw(st.integers(1, 12))
        agreement = data.draw(st.floats(0.0, 1.0, exclude_min=True))
        state = oracles.EagerTurbulenceState(GrowthConfig(window=window,
                                                          cofire_agreement=agreement))
        pattern = st.lists(st.booleans(), min_size=window, max_size=window)
        prototypes = data.draw(st.lists(pattern, min_size=1, max_size=4))
        ids = data.draw(st.lists(st.integers(0, 99), max_size=30, unique=True))
        for sid in ids:
            flags = list(data.draw(st.sampled_from(prototypes)))
            for flip in data.draw(st.lists(st.integers(0, window - 1), max_size=2)):
                flags[flip] = not flags[flip]
            length = data.draw(st.just(window) | st.integers(0, window))
            stats = state.stats_for(sid)
            stats.carried, stats.length = pack(flags[:length]), length
        assert _greedy_groups(ids, state, None) == oracle_greedy_groups(ids, state, None)

    def test_duplicate_group_creates_no_second_intermediary(self):
        net, inputs, _main = build_direct_unit(25, 5.0)
        report = run_until_balanced(net, frozenset(inputs), ALL_FIRING_GROWTH, 500)
        joins = [e for e in report.events if e.kind == NEURONS_JOINED]
        created = [e for e in report.events if e.kind == INTERMEDIARY_CREATED]
        assert len(joins) >= 2      # renewed pressure re-joined the same group
        assert len(created) == 1    # but only one intermediary ever exists


class TestTickMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_graphs_and_drives(self, data):
        # Neuron 0 takes a fan-in from 1..k, and low bud thresholds make its
        # buds join mid-run, so intermediaries and their synapses appear
        # between ticks and joined paths close.  Drives repeat for stretches,
        # some of them empty, so synapses go many ticks without carrying:
        # more than a window of 1-10 ticks, less than one of 256.  Closed
        # synapses whose sources are driven must not carry.
        cfg = GrowthConfig(
            bud_threshold=data.draw(st.sampled_from([0.05, 0.3, 1.0])),
            window=data.draw(st.sampled_from([1, 256]) | st.integers(2, 10)),
            cofire_agreement=data.draw(st.sampled_from([0.3, 0.6, 0.9, 1.0])),
            offpattern_decay=data.draw(st.sampled_from([0.0, 0.5, 0.9])),
            eps_balance=data.draw(st.sampled_from([0.0, 0.2])))
        n = data.draw(st.integers(2, 10))
        net = Network()
        for _ in range(n):
            net.add_neuron(data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])))
        fan_in = [(pre, 0) for pre in range(1, data.draw(st.integers(1, n - 1)) + 1)]
        pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
        for pre, post in fan_in + data.draw(st.lists(
                pair.filter(lambda p: p[0] != p[1]), max_size=2 * n, unique=True)):
            net.add_synapse(pre, post, data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
                            data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
        twin = Network.from_json(net.to_json())
        state = TurbulenceState(cfg)
        oracle_state = oracles.EagerTurbulenceState(cfg)
        countdown: dict[int, int] = {}
        drive = st.just(range(n)) | st.just(()) | st.sets(st.integers(0, n - 1))
        stretches = data.draw(st.lists(st.tuples(drive, st.integers(1, 12)),
                                       min_size=2, max_size=8))
        drives = [d for d, repeat in stretches for _ in range(repeat)]
        fraction = st.sampled_from([0.0, 0.5, 1.0])
        while drives:
            external = drives.pop(0)
            # Paths close, reduce and reopen between ticks, mid-window.
            for sid, open_fraction in data.draw(st.lists(
                    st.tuples(st.sampled_from(sorted(net.synapses)), fraction), max_size=2)):
                net.set_open_fraction(sid, open_fraction)
                twin.set_open_fraction(sid, open_fraction)
            if data.draw(st.booleans()):
                # A loaded network takes the same next tick; only the tick
                # count and the history are not saved.
                net = Network.from_json(net.to_json())
            expected = oracles.step(twin, countdown, external)
            oracles.accumulate_turbulence(twin, expected, oracle_state)
            if data.draw(st.integers(0, 3)):
                record, events = growth_tick(net, state, external)
                expected_events = oracles.spawn_and_join(twin, oracle_state, expected.tick)
                expected_events += [closure for event in expected_events
                                    if event.kind == NEURONS_JOINED
                                    for closure in close_paths(twin, oracle_state,
                                                               event.affected, expected.tick)]
            else:
                # No spawn this tick: the next one buds what crossed in both.
                record = net.step(external)
                accumulate_turbulence(net, record, state)
                events = expected_events = []
            # The library keeps only the oracle's nonzero sums.
            expected = dataclasses.replace(
                expected, input_sums=oracles.sparse_input_sums(expected))
            assert dataclasses.replace(record, tick=expected.tick) == expected
            assert list(record.input_sums) == list(expected.input_sums)
            assert list(record.rejections) == list(expected.rejections)
            assert [dataclasses.replace(e, tick=expected.tick) for e in events] == expected_events
            assert net.to_json() == twin.to_json()
            assert list(state.stats) == list(oracle_state.stats)
            for sid, old in oracle_state.stats.items():
                new = state.stats[sid]
                assert (*state.window(net, sid), new.accumulator, new.budded) == (
                    old.carried, old.rejected, old.length, old.accumulator, old.budded)
            assert state.total_turbulence() == oracle_state.total_turbulence()
            if any(e.kind == INTERMEDIARY_CREATED for e in events) and data.draw(st.booleans()):
                # The new synapses first carry after a silence.
                drives[:0] = [()] * data.draw(st.integers(2, 40))


class TestClosePaths:
    def make_single_edge(self):
        net = Network()
        src, dst = net.add_neuron(1.0), net.add_neuron(1.0)
        sid = net.add_synapse(src, dst, 1.0, 1)
        return net, sid

    def seeded_state(self, net, sid, carried, rejected):
        state = TurbulenceState(GrowthConfig())
        seed_window(net, state, {sid: (carried, rejected)})
        return state

    def test_full_rejection_closes_completely(self):
        net, sid = self.make_single_edge()
        state = self.seeded_state(net, sid, [True] * 4, [True] * 4)
        events = close_paths(net, state, [sid], tick=9)
        assert events == [GrowthEvent(PATH_CLOSED, 9, (sid,))]
        assert net.synapses[sid].open_fraction == 0.0

    def test_half_rejection_halves_fraction(self):
        net, sid = self.make_single_edge()
        state = self.seeded_state(net, sid, [True] * 4, [True, True, False, False])
        events = close_paths(net, state, [sid], tick=3)
        assert events[0].kind == PATH_REDUCED
        assert net.synapses[sid].open_fraction == 0.5

    def test_zero_rejection_leaves_fraction_unchanged(self):
        net, sid = self.make_single_edge()
        state = self.seeded_state(net, sid, [True] * 4, [False] * 4)
        events = close_paths(net, state, [sid], tick=1)
        assert events[0].kind == PATH_REDUCED
        assert net.synapses[sid].open_fraction == 1.0

    def test_no_evidence_skips_synapse(self):
        net, sid = self.make_single_edge()
        state = self.seeded_state(net, sid, [False] * 4, [False] * 4)
        assert close_paths(net, state, [sid], tick=0) == []
        assert net.synapses[sid].open_fraction == 1.0


class TestRunUntilBalanced:
    def test_already_balanced_unit(self):
        net, inputs, _ = build_direct_unit(5, 4.0)
        report = run_until_balanced(net, frozenset(inputs), GrowthConfig(), 100)
        assert report.ticks_to_balance == 0
        assert report.intermediaries_created == 0

    def test_subthreshold_inputs_balance_with_zero_events(self):
        net, inputs, _ = build_direct_unit(3, 4.0)
        report = run_until_balanced(net, frozenset(inputs), GrowthConfig(), 100)
        assert report.ticks_to_balance == 0
        assert report.events == ()

    def test_overdriven_unit_converges_with_lower_excess(self):
        net, inputs, _ = build_direct_unit(25, 5.0)
        report = run_until_balanced(net, frozenset(inputs), ALL_FIRING_GROWTH, 500)
        assert report.ticks_to_balance is not None
        assert report.intermediaries_created >= 1
        assert report.initial_max_excess == pytest.approx(0.8)
        assert report.final_max_excess < report.initial_max_excess

    def test_non_convergence_is_reported_not_raised(self):
        net, inputs, _ = build_direct_unit(25, 5.0)
        # Default constants cannot bud under saturating drive; the run just
        # reports no balance.
        report = run_until_balanced(net, frozenset(inputs), GrowthConfig(), 60)
        assert report.ticks_to_balance is None
        assert report.ticks_run == 60

    def test_determinism(self):
        reports = []
        for _ in range(2):
            net, inputs, _ = build_direct_unit(10, 5.0)
            reports.append(run_until_balanced(net, frozenset(inputs),
                                              ALL_FIRING_GROWTH, 200))
        assert reports[0].events == reports[1].events
        assert reports[0].to_doc() == reports[1].to_doc()

    def test_rewiring_never_increases_delivered_input(self):
        net, inputs, main = build_direct_unit(25, 5.0)
        totals = []

        def on_tick(record, state, events, balanced):
            totals.append((sum(s.delivery for s in net.incoming(main)),
                           any(e.kind == NEURONS_JOINED for e in events)))

        run_until_balanced(net, frozenset(inputs), ALL_FIRING_GROWTH, 500,
                           on_tick=on_tick)
        rewirings = 0
        for (before, _), (after, joined) in zip(totals, totals[1:]):
            if joined:
                rewirings += 1
                assert after <= before + 1e-9
        assert rewirings >= 1

    def test_invalid_max_ticks(self):
        net, inputs, _ = build_direct_unit(5, 4.0)
        with pytest.raises(InvalidParameterError):
            run_until_balanced(net, frozenset(inputs), GrowthConfig(), 0)


class TestScriptedRewiring:
    def test_end_state_has_two_open_paths(self):
        from renforge.harness import ExperimentConfig, run_scenario
        with tempfile.TemporaryDirectory() as tmp:
            summary = run_scenario(ExperimentConfig(
                seed=0, scenario="fig2_growth", output_dir=tmp, max_ticks=200))
            with open(f"{tmp}/network.json", encoding="utf-8") as handle:
                final = Network.from_json(handle.read())
        main = summary["main_neuron"]
        open_paths = [s for s in final.incoming(main) if s.open_fraction > 0]
        assert len(open_paths) == 2
        intermediary = max(final.neurons)
        kinds = {s.pre for s in open_paths}
        assert intermediary in kinds
        assert summary["independent_input"] in kinds
        reduced = final.synapse_between(summary["independent_input"], main)
        assert 0.0 < reduced.open_fraction < 1.0


class TestFloatTotal:
    def test_adds_left_to_right(self):
        # sum() from Python 3.12 on compensates and returns 1.0 here.
        assert float_total([1e16, 1.0, -1e16]) == 0.0

    def test_empty_total_is_int_zero(self):
        total = float_total([])
        assert total == 0 and type(total) is int
