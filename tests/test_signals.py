"""Core signal model: grids, resampling, alignment, aggregation."""

import re

import numpy as np
import pytest

from eventnilm.classifier import STAGES, Cycle, CycleTable, LabeledEvent, LabelRow, LabelTable
from eventnilm.errors import AlignmentError
from eventnilm.evaluation import LabelPoint, PointTable
from eventnilm.features import Transition
from eventnilm.signals import (
    EventRecord,
    EventTable,
    PowerSignal,
    aggregate,
    resample_step_hold,
)

from helpers import reference_resample_step_hold, sig, table


class TestPowerSignal:
    def test_values_become_read_only(self):
        s = sig([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_caller_arrays_are_copied(self):
        """A writeable array or a view may change later, so the signal keeps
        its own copy; a read-only array that owns its data is taken as is."""
        mine = np.array([1.0, 2.0, 3.0])
        view = mine[:]
        view.flags.writeable = False
        signals = [PowerSignal(mine), PowerSignal(view)]
        mine[0] = 9.0
        for s in signals:
            assert s.values.tolist() == [1.0, 2.0, 3.0]
        frozen = np.array([1.0, 2.0])
        frozen.flags.writeable = False
        assert PowerSignal(frozen).values is frozen

    def test_read_only_view_of_owned_read_only_array_is_taken(self):
        frozen = np.arange(6.0)
        frozen.flags.writeable = False
        view = frozen[2:5]
        assert PowerSignal(view).values is view
        loose = np.arange(6.0)[2:5]  # a view of a writeable array
        loose.flags.writeable = False
        assert not np.shares_memory(PowerSignal(loose).values, loose)
        inner = np.frombuffer(np.arange(6.0).tobytes())  # read-only, owns nothing
        assert not np.shares_memory(PowerSignal(inner[1:]).values, inner)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PowerSignal(values=np.array([]))

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            sig([1.0, -0.5])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sig([1.0, np.nan])
        with pytest.raises(ValueError):
            sig([1.0, np.inf])

    @pytest.mark.parametrize(
        "values, problem",
        [
            ([1.0, np.nan, 2.0], "non-finite"),
            ([1.0, np.inf, 2.0], "non-finite"),
            ([1.0, -np.inf, 2.0], "non-finite"),
            ([1.0, -0.5, 2.0], "negative"),
            ([-0.5, np.nan, 2.0], "non-finite"),  # non-finite is reported first
            ([np.nan, -0.5, np.inf], "non-finite"),
        ],
    )
    def test_sample_check_names_the_first_problem(self, values, problem):
        with pytest.raises(ValueError, match=f"signal 'test' contains {problem} samples"):
            sig(values)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            PowerSignal(values=np.array([1.0]), sample_period=0.0)

    def test_time_arithmetic(self):
        s = sig([0, 0, 0], start=100.0, period=20.0)
        assert s.time_at(0) == 100.0
        assert s.time_at(2) == 140.0
        assert len(s) == 3

    def test_replace_values_keeps_grid(self):
        s = sig([1, 2, 3], start=5.0, period=2.0)
        r = s.replace_values(np.array([4.0, 5.0, 6.0]))
        assert r.start_time == 5.0
        assert r.sample_period == 2.0
        assert list(r.values) == [4.0, 5.0, 6.0]

    def test_same_grid(self):
        a = sig([1, 2], start=0.0, period=1.0)
        b = sig([3, 4], start=0.0, period=1.0)
        c = sig([3, 4], start=0.5, period=1.0)
        assert a.same_grid(b)
        assert not a.same_grid(c)


class TestEventRecord:
    def test_defaults_post_index(self):
        ev = EventRecord(index=4, magnitude=100.0, pre_level=0.0, post_level=100.0)
        assert ev.post_index == 5

    def test_rejects_zero_magnitude(self):
        with pytest.raises(ValueError):
            EventRecord(index=0, magnitude=0.0, pre_level=5.0, post_level=5.0)

    def test_rejects_inconsistent_levels(self):
        with pytest.raises(ValueError):
            EventRecord(index=0, magnitude=50.0, pre_level=0.0, post_level=100.0)

    def test_falling_sign(self):
        ev = EventRecord(index=1, magnitude=-80.0, pre_level=80.0, post_level=0.0)
        assert ev.magnitude < 0

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            EventRecord(index=-1, magnitude=5.0, pre_level=0.0, post_level=5.0)


class TestEventTable:
    ROWS = [
        EventRecord(index=3, magnitude=100.0, pre_level=0.0, post_level=100.0, post_index=5),
        EventRecord(index=9, magnitude=-60.5, pre_level=100.0, post_level=39.5, post_index=10),
    ]

    def test_rows_and_columns(self):
        t = table(self.ROWS)
        assert len(t) == 2 and bool(t)
        assert list(t) == self.ROWS
        assert (t[0], t[-1]) == (self.ROWS[0], self.ROWS[1])
        assert t.index.dtype == t.post_index.dtype == np.int64
        assert t.magnitude.dtype == t.pre_level.dtype == t.post_level.dtype == np.float64
        assert t.index.tolist() == [3, 9] and t.post_index.tolist() == [5, 10]
        assert type(t[0].index) is int and type(t[0].magnitude) is float
        with pytest.raises(IndexError):
            t[2]

    def test_empty_table_is_falsy(self):
        t = table([])
        assert len(t) == 0 and not t and list(t) == []

    def test_columns_are_read_only_copies(self):
        index = np.array([3, 9])
        t = EventTable(index, [1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [4, 10])
        index[0] = 7
        assert t.index[0] == 3
        with pytest.raises(ValueError):
            t.magnitude[0] = 5.0

    @pytest.mark.parametrize(
        "index, magnitude, pre, post",
        [
            ([2, -1], [5.0, 5.0], [0.0, 0.0], [5.0, 5.0]),  # negative index
            ([2, 4], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]),  # no change
            ([2, 4], [5.0, 50.0], [0.0, 0.0], [5.0, 100.0]),  # magnitude off the levels
        ],
    )
    def test_rejects_what_event_record_rejects(self, index, magnitude, pre, post):
        post_index = [i + 1 for i in index]
        with pytest.raises(ValueError):
            EventRecord(index[1], magnitude[1], pre[1], post[1], post_index[1])
        with pytest.raises(ValueError):
            EventTable(index, magnitude, pre, post, post_index)

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            EventTable([1, 2], [1.0], [0.0], [1.0], [2])


def random_tables(rng, n):
    """Each column table built from seeded random columns of n rows, with
    its rows built one at a time from the same columns."""
    index = rng.integers(0, 1000, n)
    pre = rng.uniform(0.0, 500.0, n).round(1)
    magnitude = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 300.0, n).round(1)
    post, post_index = pre + magnitude, index + rng.integers(1, 4, n)
    events = EventTable(index, magnitude, pre, post, post_index)
    records = [
        EventRecord(int(index[i]), float(magnitude[i]), float(pre[i]), float(post[i]),
                    int(post_index[i]))
        for i in range(n)
    ]
    starts = rng.integers(0, 50, n)
    ends = starts + rng.integers(0, 5, n)
    keys = [("a", "off", "on1"), ("a", "on1", "off"), ("b", "off", "on1")]
    code = rng.integers(0, len(keys), n)
    rows = [LabelRow(k[0], Transition(k[1], k[2], 1.0, 2.0)) for k in keys]
    stage = rng.integers(0, len(STAGES), n)
    cycles = [Cycle(int(starts[i]), int(ends[i])) for i in range(n)]
    points = [LabelPoint(int(index[i]), *keys[code[i]]) for i in range(n)]
    labels = [
        LabeledEvent(records[i], rows[code[i]].appliance, rows[code[i]].transition,
                     STAGES[stage[i]])
        for i in range(n)
    ]
    return [
        (events, records),
        (CycleTable(starts, ends), cycles),
        (PointTable(index, code, keys), points),
        (LabelTable(events, rows, code, stage), labels),
    ]


class TestRowViews:
    """One row mechanism serves the four column tables."""

    @pytest.mark.parametrize("n", [0, 1, 9])
    @pytest.mark.parametrize("seed", range(3))
    def test_rows_match_rows_built_one_at_a_time(self, seed, n):
        for t, want in random_tables(np.random.default_rng(seed), n):
            assert len(t) == n and bool(t) == (n > 0)
            got = [t[i] for i in range(-n, n)]
            assert got == want + want and repr(got) == repr(want + want)  # plain scalars
            assert list(t) == want and repr(list(t)) == repr(want)
            for i in (-n - 1, n):
                with pytest.raises(IndexError):
                    t[i]


class TestResampleStepHold:
    def test_holds_last_value(self):
        times = np.array([0.0, 10.0, 25.0])
        values = np.array([1.0, 2.0, 3.0])
        out, gaps = resample_step_hold(times, values, period=5.0)
        # grid 0,5,10,15,20,25: most recent source at or before each instant
        assert list(out.values) == [1.0, 1.0, 2.0, 2.0, 2.0, 3.0]
        assert out.start_time == 0.0
        assert gaps == []

    def test_reports_long_gaps_but_fills(self):
        times = np.array([0.0, 200.0])
        values = np.array([5.0, 7.0])
        out, gaps = resample_step_hold(times, values, period=50.0, max_gap=60.0)
        assert list(out.values) == [5.0, 5.0, 5.0, 5.0, 7.0]
        assert len(gaps) == 1
        assert gaps[0].start_time == 0.0
        assert gaps[0].end_time == 200.0

    def test_default_gap_rule_follows_the_period(self):
        times = np.arange(1440) * 120.0
        _, gaps = resample_step_hold(times, np.ones(1440), 120.0)
        assert gaps == []  # regular 120 s spacing is no gap
        _, gaps = resample_step_hold(times, np.ones(1440), 120.0, max_gap=60.0)
        assert len(gaps) == 1439

    def test_explicit_span(self):
        times = np.array([0.0, 10.0, 20.0, 30.0])
        values = np.array([1.0, 2.0, 3.0, 4.0])
        out, _ = resample_step_hold(times, values, period=10.0, start=10.0, end=20.0)
        assert list(out.values) == [2.0, 3.0]
        assert out.start_time == 10.0

    def test_unsorted_input_is_sorted_first(self):
        times = np.array([10.0, 0.0])
        values = np.array([2.0, 1.0])
        out, _ = resample_step_hold(times, values, period=10.0)
        assert list(out.values) == [1.0, 2.0]

    def test_duplicate_times_keep_the_last_reading(self):
        # in order or not, the stable order of equal timestamps decides
        for times, values in (([0.0, 10.0, 10.0], [1.0, 2.0, 3.0]), ([10.0, 0.0, 10.0], [2.0, 1.0, 3.0])):
            out, _ = resample_step_hold(np.array(times), np.array(values), period=5.0)
            assert list(out.values) == [1.0, 1.0, 3.0]

    def test_column_views_accepted(self):
        table = np.array([[0.0, 1.0], [10.0, 2.0], [25.0, 3.0]])
        out, _ = resample_step_hold(table[:, 0], table[:, 1], period=5.0)
        assert list(out.values) == [1.0, 1.0, 2.0, 2.0, 2.0, 3.0]

    def test_start_before_first_sample_rejected(self):
        with pytest.raises(AlignmentError):
            resample_step_hold(
                np.array([10.0]), np.array([1.0]), period=1.0, start=0.0, end=10.0
            )

    def test_empty_source_rejected(self):
        with pytest.raises(AlignmentError):
            resample_step_hold(np.array([]), np.array([]), period=1.0)

    @pytest.mark.parametrize("period, length", [(1e-300, "8.64e+304"), (5e-324, "inf")])
    def test_grid_too_long_to_index_rejected(self, period, length):
        # checked before anything is allocated: the span over the period can
        # even overflow to an infinite length
        times = np.array([0.0, 86_400.0])
        message = re.escape(f"'meter' at period {period:g} s needs {length} samples")
        with pytest.raises(AlignmentError, match=message):
            resample_step_hold(times, np.ones(2), period, source_id="meter")


class TestResampleStepHoldReference:
    """Every grid instant takes the sample one ``np.searchsorted`` names,
    whether or not the channel sits on the grid."""

    KINDS = (
        "on_grid",
        "shift_below_eps",
        "shift_above_eps",
        "dropped",
        "duplicated",
        "trailing",
        "inside_span",
    )

    @staticmethod
    def series(kind, rng):
        period = float(rng.choice([0.1, 1.0, 3.0, 20.0]))
        n = int(rng.integers(1, 300))
        times = float(rng.choice([0.0, 100.0, 1234.5])) + np.arange(n) * period
        start = end = None
        pick = rng.random(n) < 0.3
        if kind == "shift_below_eps":
            times[pick] += rng.choice([-0.5e-9, 0.5e-9], pick.sum())
        elif kind == "shift_above_eps":
            times[pick] += rng.choice([-2e-9, 2e-9, 0.3 * period], pick.sum())
        elif kind == "dropped":
            times = times[~pick] if (~pick).any() else times
        elif kind == "duplicated":
            times = np.sort(np.concatenate([times, times[pick]]))
        elif kind == "trailing":
            end = times[-1]
            # the first extra sample may sit exactly at the last instant plus _GRID_EPS
            steps = [rng.choice([1e-9, 0.5e-9]), *rng.choice([0.3 * period, period], 3)]
            extra = times[-1] + np.cumsum(steps)
            times = np.concatenate([times, extra])
        elif kind == "inside_span":
            a, b = sorted(rng.integers(0, n, 2))
            start = times[a] + rng.choice([0.0, 0.5e-9, 0.5 * period])
            end = max(start, times[b] - rng.choice([0.0, 0.5e-9, 0.5 * period]))
        values = rng.integers(0, 3000, times.size).astype(float)
        return times, values, period, start, end

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_searchsorted(self, kind, seed):
        rng = np.random.default_rng(seed)
        times, values, period, start, end = self.series(kind, rng)
        max_gap = float(rng.choice([0.5 * period, 60.0]))
        out, gaps = resample_step_hold(times, values, period, start, end, max_gap)
        want, want_gaps = reference_resample_step_hold(times, values, period, start, end, max_gap)
        assert np.array_equal(out.values, want)
        assert [(g.start_time, g.end_time) for g in gaps] == want_gaps

    def test_on_grid_channel_needs_no_search(self, monkeypatch):
        times = 100.0 + np.arange(50) * 3.0
        values = np.arange(50.0)

        def refuse(*args, **kwargs):
            raise AssertionError("searched an on-grid channel")

        monkeypatch.setattr(np, "searchsorted", refuse)
        out, _ = resample_step_hold(times, values, 3.0, end=130.0)
        assert out.values.tolist() == values[:11].tolist()


class TestAggregate:
    def test_samplewise_sum(self):
        a = sig([1, 2, 3])
        b = sig([10, 20, 30])
        total = aggregate([a, b])
        assert list(total.values) == [11.0, 22.0, 33.0]
        assert total.source_id == "aggregate"

    def test_grid_mismatch_rejected(self):
        a = sig([1, 2, 3], period=1.0)
        b = sig([1, 2, 3], period=2.0)
        with pytest.raises(AlignmentError):
            aggregate([a, b])

    def test_needs_at_least_one(self):
        with pytest.raises(ValueError):
            aggregate([])
