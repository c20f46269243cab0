"""Transition intervals, participation shares, and behavior mining.

The interval tests compare against a dense-grid hull oracle: every
achievable level difference must land inside the band and the band's ends
must be achievable. Participation is checked against a direct evaluation
of the averaging rule on randomly generated count tables.
"""

import re
from collections import Counter

import numpy as np
import pytest

from eventnilm.errors import DataConsistencyError
from eventnilm.features import (
    OVERSHOOT_WINDOW,
    day_columns,
    find_signature,
    label_training_events,
    min_off_gap,
    overshoot_floor,
    overshoot_heights,
    participation_index,
    train_appliance,
    transition_interval,
)
from eventnilm.filtering import detect_events, filter_and_detect
from eventnilm.modes import OFF_MODE, State, StateSet
from eventnilm.signals import EventRecord

from helpers import (
    all_transitions,
    count_table,
    reference_day_columns,
    reference_label_training_events,
    reference_nearest,
    reference_overshoot_height,
    reference_train_appliance,
    sig,
    table,
)


def state(mode, lo, hi):
    return State(mode, low=lo, high=hi, centroid=(lo + hi) / 2.0)


def dw_states():
    return StateSet(
        states=(
            State(OFF_MODE, 0.0, 0.0, 0.0),
            state("on1", 198.0, 261.0),
            state("on2", 1078.0, 1247.0),
        )
    )


def ev(index, pre, post, post_index=None):
    return EventRecord(
        index=index,
        magnitude=post - pre,
        pre_level=pre,
        post_level=post,
        post_index=index + 2 if post_index is None else post_index,
    )


class TestTransitionInterval:
    def test_reference_band_examples(self):
        assert transition_interval(state("a", 198, 261), state("b", 1078, 1247)) == (
            817.0,
            1049.0,
        )
        assert transition_interval(state("a", 185, 260), state("b", 415, 425)) == (
            155.0,
            240.0,
        )

    def test_from_zero_width_origin_band_is_target_state(self):
        off = State(OFF_MODE, 0.0, 0.0, 0.0)
        assert transition_interval(off, state("b", 1078, 1247)) == (1078.0, 1247.0)

    def test_falling_band_is_mirrored(self):
        lo, hi = transition_interval(state("b", 1078, 1247), state("a", 198, 261))
        assert (lo, hi) == (-1049.0, -817.0)

    def test_overlap_clamps_at_zero(self):
        lo, hi = transition_interval(state("a", 100, 200), state("b", 180, 300))
        assert (lo, hi) == (0.0, 200.0)
        lo, hi = transition_interval(state("b", 180, 300), state("a", 100, 200))
        assert (lo, hi) == (-200.0, 0.0)

    def test_matches_grid_hull_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            a_lo = rng.uniform(0, 800)
            a_hi = a_lo + rng.uniform(0, 300)
            b_lo = a_hi + rng.uniform(1, 900)  # strictly above, no overlap
            b_hi = b_lo + rng.uniform(0, 300)
            src, dst = state("a", a_lo, a_hi), state("b", b_lo, b_hi)
            grid_a = np.linspace(a_lo, a_hi, 25)
            grid_b = np.linspace(b_lo, b_hi, 25)
            diffs = grid_b[None, :] - grid_a[:, None]
            lo, hi = transition_interval(src, dst)
            assert lo == pytest.approx(diffs.min())
            assert hi == pytest.approx(diffs.max())
            # falling direction is the exact mirror
            flo, fhi = transition_interval(dst, src)
            assert (flo, fhi) == (-hi, -lo)

    def test_band_ordering_invariant(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            bounds = np.sort(rng.uniform(0, 2000, size=4))
            src = state("a", bounds[0], bounds[1])
            dst = state("b", bounds[2], bounds[3])
            lo, hi = transition_interval(src, dst)
            assert lo <= hi


class TestLabelTrainingEvents:
    def test_containment_labels(self):
        events = table([ev(5, 0.0, 1100.0), ev(20, 230.0, 1100.0)])
        positions, transitions, which = label_training_events(events, dw_states())
        assert positions.tolist() == [0, 1]
        assert [t.key for t in transitions] == [(OFF_MODE, "on2"), ("on1", "on2")]
        assert which.tolist() == [0, 1]

    def test_nearest_interval_when_level_falls_outside(self):
        # 1070 is 8 W under the top state's lower bound and 809 W above
        # the middle state, so the top state wins
        _, transitions, which = label_training_events(table([ev(5, 230.0, 1070.0)]), dw_states())
        assert [transitions[t].key for t in which] == [("on1", "on2")]

    def test_self_transition_dropped(self):
        events = table([ev(5, 210.0, 255.0), ev(9, 0.0, 230.0), ev(12, 230.0, 0.0)])
        positions, transitions, which = label_training_events(events, dw_states())
        assert positions.tolist() == [1, 2]
        assert [t.key for t in transitions] == [(OFF_MODE, "on1"), ("on1", OFF_MODE)]
        assert label_training_events(table([ev(5, 210.0, 255.0)]), dw_states())[1] == ()

    def test_interval_attached_matches_states(self):
        _, transitions, _ = label_training_events(table([ev(5, 0.0, 1100.0)]), dw_states())
        assert [(t.low, t.high) for t in transitions] == [(1078.0, 1247.0)]


class TestDaySplitting:
    def test_days_floor_relative_time(self):
        s = sig(np.ones(86401), start=1.6e9 + 0.5, period=1.0)
        days = day_columns(np.array([86400, 0, 86399]), s)
        assert days == {0: [1, 2], 1: [0]}

    def test_day_columns_groups_by_sample_time(self):
        s = sig(np.ones(72), period=3600.0)
        index = np.array([2, 30, 50, 31])
        days = day_columns(index, s)
        assert sorted(days) == [0, 1, 2]
        assert [index[c] for c in days[1]] == [30, 31]

    def test_day_zero_is_the_first_sample(self):
        s = sig(np.ones(48), start=43200.0, period=3600.0)  # noon of epoch day 0
        assert list(day_columns(np.array([0, 23, 24]), s)) == [0, 1]
        assert day_columns(np.array([11, 12]), s) == {0: [0, 1]}


class TestDayColumnsParity:
    """Days computed as one array against the scalar floor rule, event by event."""

    def test_random_grids(self):
        rng = np.random.default_rng(55)
        on_boundary = rounded_off = most_days = 0
        for _ in range(200):
            start = float(rng.choice([0.0, 1.6e9, rng.uniform(-1e5, 1e5)]))
            period = float(rng.choice([900.0, 3600.0, 7300.0, 86400.0, 1e5 / 3]))
            n = int(rng.integers(1, 400))
            s = sig(np.ones(n), start=start, period=period)
            index = rng.integers(0, n, size=int(rng.integers(0, 30)))
            if rng.uniform() < 0.5:
                index = np.sort(index)
            events = [ev(int(i), 0.0, 1.0) for i in index]
            want = reference_day_columns(events, s)
            assert day_columns(table(events).index, s) == want
            for i in index.tolist():
                t = s.time_at(i) - start
                on_boundary += t > 0 and t % 86400.0 == 0.0
                # whole days in, but the time's rounding moves it off the boundary
                rounded_off += i > 0 and i * period % 86400.0 == 0.0 and t % 86400.0 != 0.0
            most_days = max(most_days, len(want))
        assert on_boundary > 0 and rounded_off > 0 and most_days > 5


class TestLabelTrainingEventsParity:
    """Nearest states as one distance array against the scalar min, event by event."""

    @staticmethod
    def random_states(rng):
        count = 2 * int(rng.integers(1, 5))
        edges = np.sort(rng.choice(np.arange(10, 3000, 10), size=count, replace=False))
        if count > 2 and rng.uniform() < 0.3:
            edges[2] = edges[1]  # two states touching at one bound
        states = [State(OFF_MODE, 0.0, float(rng.choice([0.0, 4.0])), 0.0)]
        for i, (lo, hi) in enumerate(edges.reshape(-1, 2)):
            centroid = float(rng.choice([(lo + hi) / 2.0, lo, hi]))
            states.append(State(f"on{i + 1}", float(lo), float(hi), centroid))
        if rng.uniform() < 0.3:  # a second state sharing a centroid with the last
            last = states[-1]
            states.append(State("on9", last.low, last.high + 10.0, last.centroid))
        rest = states[1:]
        rng.shuffle(rest)  # tuple order need not be centroid order
        return StateSet(states=(states[0], *rest))

    def test_random_state_sets(self):
        rng = np.random.default_rng(77)
        on_bound = equidistant = 0
        for _ in range(300):
            states = self.random_states(rng)
            bounds = sorted({v for st in states.states for v in (st.low, st.high)})
            levels = []
            for _ in range(int(rng.integers(1, 40))):
                kind = int(rng.integers(4))
                if kind == 0:
                    levels.append(float(rng.choice(bounds)))
                elif kind == 1 and len(bounds) > 1:  # midway between two bounds
                    i = int(rng.integers(len(bounds) - 1))
                    levels.append((bounds[i] + bounds[i + 1]) / 2.0)
                else:
                    levels.append(float(rng.uniform(0.0, 3500.0)))
            for w in levels:
                nearest = states.states[states.nearest_indices(np.array([w]))[0]]
                assert nearest is reference_nearest(states, w)
                dist = sorted(max(st.low - w, w - st.high, 0.0) for st in states.states)
                equidistant += len(dist) > 1 and dist[0] == dist[1]
                on_bound += w in bounds
            steps = zip(levels, levels[1:])
            events = [ev(10 * i, a, b) for i, (a, b) in enumerate(steps) if a != b]
            positions, transitions, which = label_training_events(table(events), states)
            want = reference_label_training_events(events, states)
            assert [events[p] for p in positions.tolist()] == [e for e, _ in want]
            assert [transitions[t] for t in which.tolist()] == [tr for _, tr in want]
            assert list(transitions) == sorted({tr for _, tr in want}, key=lambda t: t.key)
        assert on_bound > 0 and equidistant > 0


def participation_oracle(daily_counts, daily_totals):
    keys = sorted({k for day in daily_counts for k in day})
    out = {}
    for key in keys:
        shares = [
            day.get(key, 0) / total
            for day, total in zip(daily_counts, daily_totals)
            if day.get(key, 0) > 0 and total > 0
        ]
        if shares:
            out[key] = sum(shares) / len(shares)
    return out


def shares(daily_counts, daily_totals, **kwargs):
    return participation_index(*count_table(daily_counts), np.array(daily_totals), **kwargs)


def signature(daily_transitions, states):
    """``find_signature`` on the table of per-day transition lists."""
    transitions = tuple(sorted({t for day in daily_transitions for t in day}, key=lambda t: t.key))
    counts = np.array(
        [[day.count(t) for t in transitions] for day in daily_transitions], dtype=np.int64
    )
    return find_signature(
        transitions, counts.reshape(len(daily_transitions), len(transitions)), states
    )


class TestParticipationIndex:
    def test_two_day_worked_example(self):
        counts = [{("off", "on1"): 2}, {("off", "on1"): 1}]
        out = shares(counts, [10, 5])
        assert out[("off", "on1")] == pytest.approx(0.2)

    def test_reference_share_table(self):
        counts = [
            {("off", "on1"): 11, ("on1", "on2"): 20, ("on2", "off"): 17},
            {("off", "on2"): 73},
        ]
        out = shares(counts, [100, 100])
        assert out[("off", "on1")] == pytest.approx(0.11)
        assert out[("on1", "on2")] == pytest.approx(0.20)
        assert out[("on2", "off")] == pytest.approx(0.17)
        assert out[("off", "on2")] == pytest.approx(0.73)

    def test_matches_direct_oracle_on_random_tables(self):
        rng = np.random.default_rng(47)
        keys = [("off", "on1"), ("on1", "off"), ("on1", "on2")]
        for _ in range(300):
            n_days = int(rng.integers(1, 8))
            counts, totals = [], []
            for _ in range(n_days):
                day = {
                    k: int(rng.integers(0, 5)) for k in keys if rng.uniform() < 0.7
                }
                day = {k: c for k, c in day.items() if c > 0}
                own = sum(day.values())
                quiet = rng.uniform() < 0.1  # a day the aggregate shows no event on
                totals.append(own + int(rng.integers(0, 20)) if own and not quiet else 0)
                counts.append(day)
            out = shares(counts, totals)
            expect = participation_oracle(counts, totals)
            assert set(out) == set(expect)
            for k in out:
                assert out[k] == pytest.approx(expect[k])
                assert 0.0 <= out[k] <= 1.0

    def test_zero_total_day_with_counts_skipped(self):
        counts = [{("off", "on1"): 2, ("on1", "off"): 2}, {("off", "on1"): 1}]
        assert shares(counts, [0, 4]) == {("off", "on1"): 0.25}
        assert shares(counts, [0, 4], count_all_days=True) == {("off", "on1"): 0.25}

    def test_zero_total_day_without_counts_skipped(self):
        out = shares([{}, {("off", "on1"): 1}], [0, 4])
        assert out[("off", "on1")] == pytest.approx(0.25)

    def test_all_days_variant_divides_by_active_days(self):
        counts = [{("off", "on1"): 2}, {("on1", "off"): 3}]
        out = shares(counts, [10, 10], count_all_days=True)
        assert out[("off", "on1")] == pytest.approx(0.1)
        assert out[("on1", "off")] == pytest.approx(0.15)

    def test_length_mismatch_rejected(self):
        transitions, counts = count_table([{("off", "on1"): 1}])
        with pytest.raises(ValueError):
            participation_index(transitions, counts, np.array([1, 2]))
        with pytest.raises(ValueError):
            participation_index(transitions[:0], counts, np.array([1]))


class TestFindSignature:
    def test_all_modes_each_active_day_yields_marker(self):
        states = dw_states()
        trs = {t.key: t for t in all_transitions(states)}
        chain = [
            trs[(OFF_MODE, "on1")],
            trs[("on1", "on2")],
            trs[("on2", OFF_MODE)],
        ]
        marker = signature([chain, [], chain], states)
        assert marker is not None
        # the rising transition with the highest band wins
        assert marker.key == ("on1", "on2")
        assert marker.low == 817.0

    def test_partial_day_disables_marker(self):
        states = dw_states()
        trs = {t.key: t for t in all_transitions(states)}
        full = [
            trs[(OFF_MODE, "on1")],
            trs[("on1", "on2")],
            trs[("on2", OFF_MODE)],
        ]
        partial = [trs[(OFF_MODE, "on1")], trs[("on1", OFF_MODE)]]
        assert signature([full, partial], states) is None

    def test_no_common_transition_disables_marker(self):
        states = StateSet(
            states=(State(OFF_MODE, 0.0, 0.0, 0.0), state("on1", 500, 520))
        )
        trs = {t.key: t for t in all_transitions(states)}
        day1 = [trs[(OFF_MODE, "on1")]]
        day2 = [trs[("on1", OFF_MODE)]]
        assert signature([day1, day2], states) is None

    def test_no_active_days(self):
        assert signature([[], []], dw_states()) is None
        trs = all_transitions(dw_states())
        assert find_signature(trs, np.zeros((2, len(trs)), np.int64), dw_states()) is None


class TestOvershootFloor:
    @staticmethod
    def rises(*pairs):
        """``post_index`` and ``post_level`` columns of rising events."""
        post_index, post_level = zip(*pairs)
        return np.array(post_index), np.array(post_level, dtype=np.float64)

    def test_min_gap_over_rises(self):
        values = np.zeros(60)
        values[12:30] = 500.0
        values[12] = 620.0  # overshoot 120 at first rise
        values[42:] = 500.0
        values[42] = 580.0  # overshoot 80 at second rise
        raw = sig(values)
        assert overshoot_floor(raw, *self.rises((12, 500), (42, 500))) == pytest.approx(80.0)

    def test_one_weak_rise_disables(self):
        values = np.zeros(60)
        values[12:30] = 500.0
        values[12] = 620.0
        values[42:] = 500.0
        values[42] = 530.0  # only 30 above the settled level
        raw = sig(values)
        assert overshoot_floor(raw, *self.rises((12, 500), (42, 500))) == 0.0

    def test_falling_events_ignored(self):
        raw = np.zeros(60)
        raw[12:30] = 500.0
        raw[12] = 620.0  # the rise overshoots by 120
        filtered = np.zeros(60)
        filtered[12:30] = 500.0
        states = StateSet(states=(State(OFF_MODE, 0.0, 0.0, 0.0), state("on1", 500, 500)))
        # the fall's window peaks 0 W above its settled level, under the floor
        events = table([ev(10, 0, 500, post_index=12), ev(29, 500, 0, post_index=31)])
        model = train_appliance("a", sig(raw), sig(filtered), events, states, {0: 2})
        assert model.behaviors.overshoot_min == pytest.approx(120.0)
        assert overshoot_floor(sig(raw), *self.rises((31, 0))) == 0.0

    def test_floor_parameter(self):
        values = np.zeros(40)
        values[12:] = 500.0
        values[12] = 570.0
        raw = sig(values)
        assert overshoot_floor(raw, *self.rises((12, 500)), floor=50.0) == 70.0
        assert overshoot_floor(raw, *self.rises((12, 500)), floor=100.0) == 0.0

    def test_window_stops_at_the_signal_end(self):
        raw = sig(np.array([0.0, 0.0, 700.0, 900.0]))
        assert overshoot_floor(raw, *self.rises((2, 500), (4, 0))) == pytest.approx(400.0)
        assert overshoot_floor(raw, *self.rises((4, 0))) == 0.0


class TestOvershootHeights:
    """The vectorised rule against the scalar one on a slice, event by event."""

    def test_random_columns(self):
        rng = np.random.default_rng(97)
        seen = set()
        for _ in range(300):
            levels = rng.choice([0.0, 300.0, 900.0], size=int(rng.integers(1, 7)))
            values = np.repeat(levels, rng.integers(3, 15, size=levels.size))
            values[rng.uniform(size=values.size) < 0.1] += 200.0  # overshoots and spikes
            raw, n = sig(values), values.size
            _, events = filter_and_detect(raw)
            # detected events, rising and falling, and events settling near the end
            extra = rng.integers(max(0, n - OVERSHOOT_WINDOW - 2), n + 1, size=3)
            post_index = np.concatenate((events.post_index, extra))
            post_level = np.concatenate((events.post_level, rng.uniform(0.0, 1000.0, 3)))
            falling = np.concatenate((events.magnitude < 0, np.zeros(3, bool)))
            pick = np.flatnonzero(rng.uniform(size=post_index.size) < 0.6)
            got = overshoot_heights(raw, post_index[pick], post_level[pick])
            assert got.shape == pick.shape
            for c, height in zip(pick.tolist(), got.tolist()):
                want = reference_overshoot_height(raw, int(post_index[c]), float(post_level[c]))
                if want is None:
                    assert np.isnan(height)
                    seen.add("settles past the last sample")
                    continue
                assert height == want
                if post_index[c] == n - 1:
                    seen.add("settles on the last sample")
                elif post_index[c] + OVERSHOOT_WINDOW > n:
                    seen.add("window cut by the end")
                if falling[c]:
                    seen.add("falling")
            if not pick.size:
                seen.add("empty")
        assert seen == {
            "settles past the last sample",
            "settles on the last sample",
            "window cut by the end",
            "falling",
            "empty",
        }


class TestMinOffGap:
    def test_shortest_gap_in_seconds(self):
        s = sig(np.zeros(100), period=2.0)
        index, post_index = np.array([10, 20, 40, 45]), np.array([12, 22, 42, 47])
        into_off = np.array([True, False, True, False])
        # gaps (20 - 12) * 2 s = 16 s and (45 - 42) * 2 s = 6 s
        assert min_off_gap(s, index, post_index, into_off, ~into_off) == pytest.approx(6.0)

    def test_no_complete_gap_returns_zero(self):
        s = sig(np.zeros(50))
        one = np.array([5])
        assert min_off_gap(s, one, one + 2, np.array([False]), np.array([True])) == 0.0

    def test_only_changes_touching_off_count(self):
        s = sig(np.zeros(100))
        index, post_index = np.array([10, 20, 30, 40, 50]), np.array([12, 22, 32, 42, 52])
        into_off = np.array([True, False, True, False, False])
        out_of_off = np.array([False, False, False, True, True])
        # on->off at 10, on1->on2 at 20 (ignored), a second into-OFF at 30
        # restarts the dwell, out at 40; the out at 50 follows no into-OFF
        assert min_off_gap(s, index, post_index, into_off, out_of_off) == 8.0


class TestTrainAppliance:
    def _two_day_signal(self):
        # 24 samples per day at a 3600 s period; one 500 W run each day
        day = np.zeros(24)
        day[6:13] = 500.0
        values = np.concatenate([day, day])
        return sig(values, period=3600.0)

    def test_model_fields(self):
        s = self._two_day_signal()
        events = detect_events(s)
        states = StateSet(
            states=(State(OFF_MODE, 0.0, 0.0, 0.0), state("on1", 500, 500))
        )
        model = train_appliance("heater", s, s, events, states, daily_totals={0: 2, 1: 2})
        assert model.appliance_id == "heater"
        assert {t.key for t in model.transitions} == {
            (OFF_MODE, "on1"),
            ("on1", OFF_MODE),
        }
        # each day one rise and one fall out of two household events
        assert model.participation[(OFF_MODE, "on1")] == pytest.approx(0.5)
        assert model.participation[("on1", OFF_MODE)] == pytest.approx(0.5)
        assert model.behaviors is not None

    def test_household_totals_shrink_shares(self):
        s = self._two_day_signal()
        events = detect_events(s)
        states = StateSet(
            states=(State(OFF_MODE, 0.0, 0.0, 0.0), state("on1", 500, 500))
        )
        model = train_appliance(
            "heater", s, s, events, states, daily_totals={0: 8, 1: 8}
        )
        assert model.participation[(OFF_MODE, "on1")] == pytest.approx(1 / 8)

    def test_no_transitions_rejected(self):
        s = sig(np.zeros(48), period=3600.0)
        states = StateSet(states=(State(OFF_MODE, 0.0, 0.0, 0.0),))
        with pytest.raises(DataConsistencyError):
            train_appliance("idle", s, s, table([]), states, daily_totals={0: 0, 1: 0})


class TestTrainApplianceParity:
    """Columnar training against the per-event references, on seeded random
    state sets, event tables, grid starts and household totals. Some cases
    span nine days or more with one transition, where adding the shares
    pairwise would round differently, and some have days with mode changes
    but no aggregate event."""

    def test_random_trainings(self):
        rng = np.random.default_rng(91)
        seen = Counter()
        for _ in range(400):
            states = TestLabelTrainingEventsParity.random_states(rng)
            pool = [v for st in states.states for v in (st.low, st.high, st.centroid)]
            long = rng.uniform() < 0.15  # nine to fifteen days of one transition
            period = 7200.0 if long else float(rng.choice([900.0, 3600.0, 7200.0]))
            n = int(rng.integers(9 * 12, 16 * 12) if long else rng.integers(8, 4 * 86400 / period))
            start = float(rng.choice([0.0, 1.6e9, rng.uniform(-1e5, 1e5)]))
            filtered = sig(np.ones(n), start=start, period=period)
            raw = sig(rng.uniform(0.0, 5000.0, n - int(rng.integers(0, 3))), start, period)
            size = rng.integers(9, 25) if long else rng.integers(0, min(n, 30))
            index = np.sort(rng.choice(n, size=int(size), replace=False))
            once = (0.0, float(rng.choice([st.centroid for st in states.states[1:]])))
            events = []
            for i in index.tolist():
                pre, post = once if long else (
                    float(rng.choice(pool)) if rng.uniform() < 0.7 else rng.uniform(0, 3500)
                    for _ in range(2)
                )
                if pre != post:
                    post_index = min(i + int(rng.integers(1, 4)), n - 1)
                    events.append(ev(i, pre, post, post_index=post_index))
            days = reference_day_columns(events, filtered)
            lo, hi = min(days, default=0) - 1, max(days, default=0) + 1
            daily_totals = {
                d: len(days.get(d, ())) + int(rng.integers(0, 5)) for d in range(lo, hi + 1)
            }
            for d in days:
                if rng.uniform() < 0.1:  # a day with changes but no aggregate event
                    if rng.uniform() < 0.5:
                        del daily_totals[d]
                    else:
                        daily_totals[d] = 0
            args = ("a", raw, filtered, table(events), states)
            kwargs = dict(
                daily_totals=daily_totals,
                overshoot_floor_w=float(rng.choice([0.0, 50.0, 1000.0])),
                count_all_days=bool(rng.uniform() < 0.3),
            )
            try:
                want = reference_train_appliance(*args, **kwargs)
            except DataConsistencyError as exc:
                with pytest.raises(DataConsistencyError, match=re.escape(str(exc))):
                    train_appliance(*args, **kwargs)
                seen["no mode change"] += 1
                continue
            assert train_appliance(*args, **kwargs) == want

            labeled = reference_label_training_events(events, states)
            touching = [
                tr.to_mode == OFF_MODE for _, tr in labeled if OFF_MODE in tr.key
            ]
            seen["consecutive into-OFF"] += any(a and b for a, b in zip(touching, touching[1:]))
            seen["out-of-OFF first"] += bool(touching) and not touching[0]
            seen["settles at the end"] += any(
                e.magnitude > 0 and e.post_index >= len(raw) for e, _ in labeled
            )
            changed = set(reference_day_columns([e for e, _ in labeled], filtered))
            seen["day without change"] += bool(set(daily_totals) - changed)
            seen["several days"] += len(changed) > 1
            seen["nine days, one transition"] += len(changed) >= 9 and len(want.transitions) == 1
            seen["quiet day with changes"] += any(not daily_totals.get(d) for d in changed)
            seen["signature"] += want.behaviors.signature is not None
            seen["overshoot"] += want.behaviors.overshoot_min > 0
            seen["off gap"] += want.behaviors.min_off_gap_s > 0
        assert len(seen) == 11 and min(seen.values()) > 0, seen
