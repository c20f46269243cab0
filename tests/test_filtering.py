"""Outlier detection, spike flattening, and event extraction.

The hand-worked cases at the top pin the arithmetic down sample by sample;
the seeded loops then check the behavior that matters downstream, that
spikes vanish and genuine steps survive with their magnitudes intact.
"""

import numpy as np
import pytest

from eventnilm.errors import InsufficientDataError
from eventnilm.filtering import (
    REPLACEMENT_RUN_CAP,
    OutlierReport,
    RatioSeries,
    _runs,
    build_filtered_signal,
    change_ratios,
    detect_events,
    detect_outliers,
    filter_and_detect,
)

from eventnilm.synth import balanced_household, demo_household, generate

from helpers import (
    assert_events_equal,
    reference_build_filtered_signal,
    reference_detect_events,
    reference_filter_and_detect,
    reference_ratios,
    sig,
)


def ratio_oracle(values):
    """Direct 1 - min/max per consecutive pair, zero when both are zero."""
    out = []
    for a, b in zip(values[:-1], values[1:]):
        hi, lo = max(a, b), min(a, b)
        out.append(0.0 if hi == 0 else 1.0 - lo / hi)
    return np.array(out)


class TestChangeRatios:
    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            vals = rng.uniform(0, 500, size=rng.integers(2, 40))
            vals[rng.uniform(size=vals.size) < 0.3] = 0.0
            assert np.allclose(change_ratios(vals), ratio_oracle(vals), atol=1e-12)

    def test_zero_pair_counts_as_no_change(self):
        m = change_ratios(np.array([0.0, 0.0, 5.0]))
        assert m[0] == 0.0
        assert m[1] == 1.0

    def test_all_ratios_in_unit_interval(self):
        rng = np.random.default_rng(8)
        vals = rng.uniform(0, 3000, size=500)
        m = change_ratios(vals)
        assert np.all(m >= 0.0) and np.all(m <= 1.0)


class TestDetectOutliers:
    def test_hand_worked_spike(self):
        # pairs: (100,100)=0 (100,500)=.8 (500,100)=.8 (100,100)=0
        s = sig([100, 100, 500, 100, 100])
        report = detect_outliers(s)
        m = report.ratios.m
        assert np.allclose(m, [0.0, 0.8, 0.8, 0.0])
        sd = float(np.std(m, ddof=1))
        assert report.ratios.threshold_sd == pytest.approx(sd)
        assert list(report.instances) == [1, 2]
        assert list(report.sample_marks) == [2, 3]

    def test_hand_worked_step(self):
        s = sig([100, 100, 500, 500, 500, 500, 500, 500, 500, 500])
        report = detect_outliers(s)
        assert list(report.instances) == [1]
        assert list(report.sample_marks) == [2]

    def test_constant_signal_has_no_outliers(self):
        report = detect_outliers(sig([42.0] * 30))
        assert report.instances.size == 0

    def test_threshold_is_strict(self):
        # two equal nonzero ratios and nothing else: sd > 0, both ratios
        # sit above it, a flat tail sits below
        s = sig([10, 10, 20, 20, 10, 10, 10, 10])
        report = detect_outliers(s)
        m = report.ratios.m
        sd = report.ratios.threshold_sd
        assert set(report.instances) == {i for i, v in enumerate(m) if v > sd}

    def test_too_short_rejected(self):
        with pytest.raises(InsufficientDataError):
            detect_outliers(sig([1.0]))


class TestBuildFilteredSignal:
    def test_spike_replaced_by_following_inliers(self):
        s = sig([100, 100, 500, 100, 100])
        filtered = build_filtered_signal(s, detect_outliers(s))
        assert list(filtered.values) == [100, 100, 100, 100, 100]

    def test_step_survives(self):
        s = sig([100, 100, 500, 500, 500, 500, 500, 500, 500, 500])
        filtered = build_filtered_signal(s, detect_outliers(s))
        assert list(filtered.values) == list(s.values)

    def test_replacement_run_is_capped(self):
        # one marked sample at a step edge, then a slow climb of inliers;
        # only the first REPLACEMENT_RUN_CAP of them may enter the mean
        values = [100.0] * 10 + [500.0] + [501.0 + i for i in range(40)]
        s = sig(values)
        report = detect_outliers(s)
        assert list(report.sample_marks) == [10]
        filtered = build_filtered_signal(s, report)
        run = values[11 : 11 + REPLACEMENT_RUN_CAP]
        assert filtered.values[10] == pytest.approx(np.mean(run))

    def test_trailing_run_uses_preceding_inliers(self):
        values = [100.0] * 10 + [900.0]
        s = sig(values)
        report = detect_outliers(s)
        assert list(report.sample_marks) == [10]
        filtered = build_filtered_signal(s, report)
        assert filtered.values[10] == pytest.approx(100.0)

    def test_never_negative(self):
        rng = np.random.default_rng(5)
        vals = np.abs(rng.normal(50, 40, size=300))
        s = sig(vals)
        filtered = build_filtered_signal(s, detect_outliers(s))
        assert np.all(filtered.values >= 0.0)


class TestFilteredSignalParity:
    """The bulk replacement means against the run-by-run reference, bit for bit.

    Values span many orders of magnitude, so a mean summed in any other
    order than ``np.mean``'s would differ in its last bits.
    """

    @staticmethod
    def values(rng, n):
        vals = rng.lognormal(4.0, 3.0, size=n)
        vals[rng.uniform(size=n) < 0.05] = 0.0
        return vals

    @staticmethod
    def run_kinds(marks, n):
        """Which cases a mark set exercises: capped, short, at 1, at the end."""
        kinds = set()
        inliers = np.diff(np.r_[marks, n]) - 1  # unmarked samples after each mark
        if (inliers >= REPLACEMENT_RUN_CAP).any():
            kinds.add("capped")
        if ((inliers > 0) & (inliers < REPLACEMENT_RUN_CAP)).any():
            kinds.add("short")
        if marks.size and marks[0] == 1:
            kinds.add("at 1")
        if marks.size and marks[-1] == n - 1:
            kinds.add("at end")
        return kinds

    def check(self, signal, report):
        got = build_filtered_signal(signal, report).values
        want = reference_build_filtered_signal(signal, report.sample_marks).values
        assert got.tobytes() == want.tobytes()

    def test_random_mark_sets(self):
        rng = np.random.default_rng(2024)
        seen = set()
        for density in (0.02, 0.1, 0.3, 0.6, 0.9):
            for _ in range(40):
                n = int(rng.integers(2, 300))
                marks = np.flatnonzero(rng.uniform(size=n) < density)
                marks = marks[marks >= 1]  # sample t + 1 of pair t: never 0
                if rng.uniform() < 0.3:
                    marks = np.union1d(marks, [1, n - 1])
                report = OutlierReport(marks - 1, marks, RatioSeries(np.zeros(0), 0.0))
                self.check(sig(self.values(rng, n)), report)
                seen |= self.run_kinds(marks, n)
        assert seen == {"capped", "short", "at 1", "at end"}

    @pytest.mark.parametrize("seed", range(8))
    def test_detected_spike_dense_signals(self, seed):
        rng = np.random.default_rng(seed)
        n = 2000
        levels = np.repeat(rng.uniform(50, 3000, size=n // 50), 50)
        spikes = rng.uniform(size=n) < rng.uniform(0.05, 0.4)
        vals = levels * (1.0 + rng.normal(0, 0.002, size=n))
        vals[spikes] *= rng.uniform(1.5, 10.0, size=int(spikes.sum()))
        vals[rng.uniform(size=n) < 0.02] = 0.0
        vals[-1] = 10.0 * vals[-2] + 1000.0  # a spike that ends the signal
        s = sig(vals)
        report = detect_outliers(s)
        assert report.sample_marks[-1] == n - 1
        self.check(s, report)


class TestDetectEvents:
    def test_step_event_fields(self):
        s = sig([100, 100, 500, 500, 500, 500, 500, 500, 500, 500])
        events = detect_events(s)
        assert len(events) == 1
        ev = events[0]
        assert ev.index == 1
        assert ev.pre_level == 100.0
        assert ev.post_level == 500.0
        assert ev.magnitude == 400.0
        assert ev.post_index == 3

    def test_two_steps(self):
        s = sig([0.0] * 20 + [1000.0] * 20 + [0.0] * 20)
        events = detect_events(s)
        assert [(e.index, e.magnitude) for e in events] == [(19, 1000.0), (39, -1000.0)]

    def test_unchanged_level_run_dropped(self):
        # an isolated spike leaves pre == post, which is not an event
        s = sig([100.0] * 10 + [900.0] + [100.0] * 10)
        events = detect_events(s)
        assert list(events) == []

    def test_post_index_clamped_at_end(self):
        s = sig([100.0] * 10 + [900.0, 900.0])
        events = detect_events(s)
        assert len(events) == 1
        assert events[0].post_index == 11


class TestFilterAndDetect:
    def test_spikes_removed_steps_kept(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = 400
            base = np.zeros(n)
            # one genuine appliance run
            a, b = sorted(rng.integers(50, n - 50, size=2))
            if b - a < 20:
                b = a + 20
            level = rng.uniform(500, 2000)
            base[a:b] = level
            # one isolated spike well away from the step edges
            while True:
                p = int(rng.integers(20, n - 20))
                if min(abs(p - a), abs(p - b)) > 10:
                    break
            spiked = base.copy()
            spiked[p] += rng.uniform(3000, 5000)
            filtered, events = filter_and_detect(sig(spiked))
            assert filtered.values[p] == pytest.approx(base[p], abs=1e-6)
            assert [(e.index, round(e.magnitude)) for e in events] == [
                (a - 1, round(level)),
                (b - 1, -round(level)),
            ]

    def test_noisy_steps_recovered(self):
        rng = np.random.default_rng(12)
        n = 2000
        base = np.zeros(n)
        edges = [200, 700, 1200, 1700]
        base[edges[0] : edges[1]] = 1200.0
        base[edges[2] : edges[3]] = 900.0
        noisy = base * (1.0 + rng.uniform(-0.01, 0.01, size=n))
        filtered, events = filter_and_detect(sig(noisy))
        assert [e.index for e in events] == [e - 1 for e in edges]
        mags = [e.magnitude for e in events]
        assert mags[0] == pytest.approx(1200.0, rel=0.03)
        assert mags[1] == pytest.approx(-1200.0, rel=0.03)
        assert mags[2] == pytest.approx(900.0, rel=0.03)
        assert mags[3] == pytest.approx(-900.0, rel=0.03)


class TestDetectEventsParity:
    """Array-built events against the run-by-run reference, field for field."""

    def test_random_signals(self):
        rng = np.random.default_rng(404)
        dropped = clamped = 0
        for _ in range(300):
            n = int(rng.integers(2, 200))
            levels = rng.choice([0.0, 40.0, 500.0, 1234.5], size=n // 5 + 1)
            vals = np.repeat(levels, 5)[:n]
            if rng.uniform() < 0.5:
                vals = vals * (1.0 + rng.normal(0, 0.01, size=n))
            spikes = rng.uniform(size=n) < 0.05
            vals[spikes] = rng.lognormal(6.0, 2.0, size=int(spikes.sum()))
            s = sig(vals)
            want = reference_detect_events(s)
            assert_events_equal(detect_events(s), want)
            dropped += len(_runs(detect_outliers(s).instances)[0]) > len(want)
            clamped += any(e.post_index == n - 1 for e in want)
        assert dropped > 0 and clamped > 0

    @pytest.mark.parametrize("household", ["demo", "balanced"])
    def test_generated_channels(self, household):
        result = generate(
            demo_household() if household == "demo" else balanced_household(), days=2, seed=3
        )
        for s in [result.aggregate, *result.appliances.values()]:
            filtered, events = filter_and_detect(s)
            assert_events_equal(events, reference_detect_events(filtered))


def random_signal(rng):
    """Levels with spikes, built to hit the edges the event pass must patch:
    marked runs at the first and the last pair, a marked run ending the
    signal, runs one inlier apart, all-zero stretches and ``-0.0`` samples,
    constant signals, and 2- and 3-sample signals."""
    n = int(rng.choice([2, 3, int(rng.integers(4, 40)), int(rng.integers(40, 300))]))
    if rng.uniform() < 0.1:
        return np.full(n, float(rng.choice([0.0, -0.0, 7.0, 1500.0])))
    levels = rng.choice([0.0, -0.0, 40.0, 500.0, 1234.5], size=n // 4 + 1)
    vals = np.repeat(levels, 4)[:n]
    if rng.uniform() < 0.5:
        vals = vals * (1.0 + rng.normal(0, 0.01, size=n))
    spikes = list(np.flatnonzero(rng.uniform(size=n) < 0.06))
    for _ in range(int(rng.integers(0, 3))):
        p = int(rng.integers(0, n))
        spikes += [p, p + 2]  # two runs one inlier apart
    spikes += [i for i in (0, 1, n - 2, n - 1) if rng.uniform() < 0.25]
    spikes = [p for p in spikes if p < n]
    vals[spikes] = rng.lognormal(6.0, 2.0, size=len(spikes))
    return vals


class TestFilterAndDetectParity:
    """The event pass, which rewrites only the ratios next to replaced
    samples, against two full passes: filtered values and every event field."""

    def check(self, s):
        assert change_ratios(s.values).tobytes() == reference_ratios(s.values).tobytes()
        filtered, events = filter_and_detect(s)
        want_filtered, want = reference_filter_and_detect(s)
        assert filtered.values.tobytes() == want_filtered.values.tobytes()
        assert_events_equal(events, want)
        return filtered

    def test_random_signals(self):
        rng = np.random.default_rng(1010)
        seen = set()
        for _ in range(600):
            vals = random_signal(rng)
            n = vals.size
            marks = detect_outliers(sig(vals)).sample_marks
            self.check(sig(vals))
            firsts, lasts = _runs(marks)
            seen |= {
                ("first pair" if 1 in marks else None),
                ("last pair" if n - 1 in marks else None),
                ("run ends signal" if lasts.size and lasts[-1] == n - 1 else None),
                ("one inlier apart" if (firsts[1:] - lasts[:-1] == 2).any() else None),
                ("zero pair" if ((vals[:-1] == 0) & (vals[1:] == 0)).any() else None),
                ("negative zero" if np.signbit(vals[vals == 0]).any() else None),
                ("constant" if (vals == vals[0]).all() else None),
                (n if n < 4 else None),
            }
        assert seen - {None} == {
            "first pair", "last pair", "run ends signal", "one inlier apart",
            "zero pair", "negative zero", "constant", 2, 3,
        }

    @pytest.mark.parametrize("household", ["demo", "balanced"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_households(self, household, seed):
        result = generate(
            demo_household() if household == "demo" else balanced_household(), days=3, seed=seed
        )
        for s in [result.aggregate, *result.appliances.values()]:
            self.check(s)


class TestFilterAndDetectInvariants:
    """What every filtered signal and event list must hold, on generated households."""

    @pytest.mark.parametrize("household", ["demo", "balanced"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sweep(self, household, seed):
        result = generate(
            demo_household() if household == "demo" else balanced_household(), days=3, seed=seed
        )
        assert filter_and_detect(result.aggregate)[1]
        for s in [result.aggregate, *result.appliances.values()]:
            filtered, events = filter_and_detect(s)
            assert (filtered.values >= 0).all()
            index = np.array([e.index for e in events])
            assert (np.diff(index) > 0).all()
            for e in events:
                assert e.index < e.post_index
                assert e.magnitude == e.post_level - e.pre_level
                assert e.pre_level == filtered.values[e.index]
                assert e.post_level == filtered.values[e.post_index]
