"""Outlier detection, spike flattening, and event extraction.

The hand-worked cases at the top pin the arithmetic down sample by sample;
the seeded loops then check the behavior that matters downstream, that
spikes vanish and genuine steps survive with their magnitudes intact.
"""

import numpy as np
import pytest

from eventnilm import filtering
from eventnilm.errors import InsufficientDataError
from eventnilm.filtering import (
    REPLACEMENT_RUN_CAP,
    _dense,
    _passes,
    _replacements,
    _runs,
    detect_events,
    filter_and_detect,
    filtered_events,
)

from eventnilm.synth import balanced_household, demo_household, generate

from helpers import (
    assert_events_equal,
    reference_build_filtered_signal,
    reference_detect_events,
    reference_filter_and_detect,
    reference_outliers,
    reference_ratios,
    sig,
)


def pair_ratios(values):
    """The library's ratio of each consecutive pair of ``values``."""
    return filtering._pair_ratios(values[:-1], values[1:])


def outliers(signal):
    """The library's first outlier pass: its outlier instances."""
    _, _, at, _, hit = filtering._outlier_pass(signal)
    return at[hit]


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
            assert np.allclose(pair_ratios(vals), ratio_oracle(vals), atol=1e-12)

    def test_zero_pair_counts_as_no_change(self):
        m = pair_ratios(np.array([0.0, 0.0, 5.0]))
        assert m[0] == 0.0
        assert m[1] == 1.0

    def test_all_ratios_in_unit_interval(self):
        rng = np.random.default_rng(8)
        vals = rng.uniform(0, 3000, size=500)
        m = pair_ratios(vals)
        assert np.all(m >= 0.0) and np.all(m <= 1.0)


class TestDetectOutliers:
    def test_hand_worked_spike(self):
        # pairs: (100,100)=0 (100,500)=.8 (500,100)=.8 (100,100)=0
        s = sig([100, 100, 500, 100, 100])
        m = pair_ratios(s.values)
        assert np.allclose(m, [0.0, 0.8, 0.8, 0.0])
        sd = float(np.std(m, ddof=1))
        assert filtering._ratio_sd(m[[1, 2]], m.size)[0] == pytest.approx(sd)
        assert list(outliers(s)) == [1, 2]
        assert list(_passes(s)[1]) == [2, 3]

    def test_hand_worked_step(self):
        s = sig([100, 100, 500, 500, 500, 500, 500, 500, 500, 500])
        assert list(outliers(s)) == [1]
        assert list(_passes(s)[1]) == [2]

    def test_constant_signal_has_no_outliers(self):
        assert outliers(sig([42.0] * 30)).size == 0

    def test_threshold_is_strict(self):
        # two equal nonzero ratios and nothing else: sd > 0, both ratios
        # sit above it, a flat tail sits below
        s = sig([10, 10, 20, 20, 10, 10, 10, 10])
        m = pair_ratios(s.values)
        at = np.flatnonzero(m)
        sd = filtering._ratio_sd(m[at], m.size)[0]
        assert set(outliers(s)) == {i for i, v in enumerate(m) if v > sd}

    def test_too_short_rejected(self):
        for entry in (detect_events, filter_and_detect, filtered_events):
            with pytest.raises(InsufficientDataError):
                entry(sig([1.0]))


class TestBuildFilteredSignal:
    def test_spike_replaced_by_following_inliers(self):
        s = sig([100, 100, 500, 100, 100])
        filtered = filter_and_detect(s)[0]
        assert list(filtered.values) == [100, 100, 100, 100, 100]

    def test_step_survives(self):
        s = sig([100, 100, 500, 500, 500, 500, 500, 500, 500, 500])
        filtered = filter_and_detect(s)[0]
        assert list(filtered.values) == list(s.values)

    def test_replacement_run_is_capped(self):
        # one marked sample at a step edge, then a slow climb of inliers;
        # only the first REPLACEMENT_RUN_CAP of them may enter the mean
        values = [100.0] * 10 + [500.0] + [501.0 + i for i in range(40)]
        s = sig(values)
        assert list(_passes(s)[1]) == [10]
        filtered = filter_and_detect(s)[0]
        run = values[11 : 11 + REPLACEMENT_RUN_CAP]
        assert filtered.values[10] == pytest.approx(np.mean(run))

    def test_trailing_run_uses_preceding_inliers(self):
        values = [100.0] * 10 + [900.0]
        s = sig(values)
        assert list(_passes(s)[1]) == [10]
        filtered = filter_and_detect(s)[0]
        assert filtered.values[10] == pytest.approx(100.0)

    def test_never_negative(self):
        rng = np.random.default_rng(5)
        vals = np.abs(rng.normal(50, 40, size=300))
        s = sig(vals)
        filtered = filter_and_detect(s)[0]
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

    def check(self, signal, marks):
        got = _dense(signal, marks, _replacements(signal.values, marks)).values
        want = reference_build_filtered_signal(signal, marks).values
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
                self.check(sig(self.values(rng, n)), marks)
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
        marks = _passes(s)[1]
        assert marks[-1] == n - 1
        self.check(s, marks)


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
            dropped += len(_runs(reference_outliers(vals))[0]) > len(want)
            clamped += any(e.post_index == n - 1 for e in want)
        assert dropped > 0 and clamped > 0

    def test_ratio_tied_with_np_std(self):
        s = sig(TestSdFallback.tied())
        assert_events_equal(detect_events(s), reference_detect_events(s))

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
        assert pair_ratios(s.values).tobytes() == reference_ratios(s.values).tobytes()
        filtered, events = filter_and_detect(s)
        want_filtered, want = reference_filter_and_detect(s)
        assert filtered.values.tobytes() == want_filtered.values.tobytes()
        assert_events_equal(events, want)
        assert_events_equal(filtered_events(s), want)
        return filtered

    def test_random_signals(self):
        rng = np.random.default_rng(1010)
        seen = set()
        for _ in range(600):
            vals = random_signal(rng)
            n = vals.size
            marks = reference_outliers(vals) + 1
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


def changing_share_signal(rng, n_pairs, k):
    """A signal of ``n_pairs`` pairs of which exactly ``k`` change: a new
    level (zero or a random wattage, never the level before) after each of
    ``k`` random pairs, the same sample elsewhere."""
    steps = np.zeros(n_pairs, dtype=np.int64)
    steps[rng.choice(n_pairs, size=k, replace=False)] = 1
    levels = rng.uniform(10.0, 3000.0, size=k + 1)
    zero = rng.uniform(size=k + 1) < 0.3
    zero[1:] &= ~zero[:-1]  # no two zero levels in a row
    levels[zero] = 0.0
    return levels[np.r_[0, np.cumsum(steps)]]


def bursts_on_zeros(rng):
    """Long zero stretches with a few flat or noisy bursts, some with a
    turn-on overshoot, and rare isolated spikes; a burst may end the signal."""
    n = int(rng.integers(400, 3000))
    vals = np.zeros(n)
    for _ in range(int(rng.integers(1, 6))):
        a = int(rng.integers(0, n))
        b = min(n, a + int(rng.integers(1, 30)))
        vals[a:b] = rng.uniform(40.0, 2500.0)
        if rng.uniform() < 0.5:
            vals[a:b] *= 1.0 + rng.normal(0, 0.01, size=b - a)
        if rng.uniform() < 0.5:
            vals[a] *= rng.uniform(1.5, 4.0)  # turn-on overshoot
    spikes = np.flatnonzero(rng.uniform(size=n) < 0.003)
    vals[spikes] = rng.lognormal(6.0, 1.5, size=spikes.size)
    return vals


class TestIdleHeavyParity:
    """Idle-heavy signals and every share of changing pairs, against two full
    reference passes.

    Only the pairs that change get a ratio, and the event pass adds the pairs
    whose equal raw samples the flattening pulled apart.
    """

    check = TestFilterAndDetectParity.check

    def test_bursts_on_zero_stretches(self):
        rng = np.random.default_rng(2311)
        added = 0
        for _ in range(300):
            vals = bursts_on_zeros(rng)
            filtered = self.check(sig(vals)).values
            # a pair of equal raw samples that the flattening pulled apart
            added += bool(((vals[1:] == vals[:-1]) & (filtered[1:] != filtered[:-1])).any())
        assert added > 30

    def test_replaced_sample_next_to_raw_equal_sample(self):
        # the spike at 50 marks samples 50 and 51; their run is replaced by
        # the mean of samples 52..61 (101 W), so pair 51, (100, 100) in the
        # raw signal, becomes (101, 100) and must enter the event pass
        vals = np.full(120, 100.0)
        vals[50] = 1000.0
        vals[55] = 110.0
        vals[80:100] = 700.0
        assert list(_passes(sig(vals))[1]) == [50, 51, 80, 100]
        filtered = self.check(sig(vals))
        assert filtered.values[51] == 101.0 and filtered.values[52] == 100.0

    @pytest.mark.parametrize("share", [0.01, 0.49, 0.5, 0.51, 0.99, 1.0])
    @pytest.mark.parametrize("n_pairs", [40, 400, 4000])
    def test_change_shares(self, n_pairs, share):
        rng = np.random.default_rng(n_pairs + int(share * 100))
        k = max(1, round(n_pairs * share))
        for _ in range(20):
            vals = changing_share_signal(rng, n_pairs, k)
            assert np.count_nonzero(vals[1:] != vals[:-1]) == k
            self.check(sig(vals))

    @pytest.mark.parametrize("pair", [(100.0, 500.0), (500.0, 100.0), (0.0, 7.0), (7.0, 0.0)])
    def test_two_samples_one_ratio_is_an_outlier(self, pair):
        # one ratio: sd 0, and a ratio above 0 exceeds it
        s = sig(pair)
        assert list(reference_outliers(s.values)) == [0]
        r = pair_ratios(np.array(pair))
        assert list(filtering._above_sd(r, 1, np.array([0]))) == [0]
        self.check(s)

    @pytest.mark.parametrize("n", [2, 3, 50, 5000])
    @pytest.mark.parametrize("level", [0.0, -0.0, 7.0, 1500.0])
    def test_all_equal_signals(self, n, level):
        assert len(filter_and_detect(sig(np.full(n, level)))[1]) == 0
        assert self.check(sig(np.full(n, level))).values.tobytes() == np.full(n, abs(level)).tobytes()

    @pytest.mark.parametrize("household", ["demo", "balanced"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stock_household_channels(self, household, seed):
        """Every channel as generated and on a noisy 50 W base, where every
        pair changes."""
        result = generate(
            demo_household() if household == "demo" else balanced_household(), days=3, seed=seed
        )
        rng = np.random.default_rng(seed)
        for s in [result.aggregate, *result.appliances.values()]:
            self.check(s)
            self.check(sig(s.values + 50.0 + rng.normal(0, 1.0, size=len(s))))


class TestSdFallback:
    """A ratio at ``np.std``'s own value: the fast sd, nudged to the ratio's
    other side, leaves the decision to ``np.std``, whose marks stand."""

    @staticmethod
    def signal(low, high):
        vals = np.zeros(60)
        vals[10:14] = 900.0
        vals[30:34] = 1500.0
        vals[45:50] = high
        vals[50:55] = low  # pair 49: the step high -> low
        return vals

    @classmethod
    def tied(cls):
        """A signal whose step ratio equals ``np.std`` of its ratio series,
        found by a fixed-point iteration and a walk over neighbouring floats."""
        for low in np.arange(700.0, 716.0):
            high = low / 0.7
            for _ in range(40):
                high = low / (1.0 - float(np.std(reference_ratios(cls.signal(low, high)), ddof=1)))
            for step in range(-20, 21):
                h = high
                for _ in range(abs(step)):
                    h = np.nextafter(h, np.inf if step > 0 else -np.inf)
                m = reference_ratios(cls.signal(low, h))
                if m[49] == np.std(m, ddof=1):
                    return cls.signal(low, h)
        raise AssertionError("no exact tie found")

    @pytest.fixture
    def std_calls(self, monkeypatch):
        calls = []
        std = np.std

        def spy(*args, **kwargs):
            calls.append(args[0].size)
            return std(*args, **kwargs)

        monkeypatch.setattr(np, "std", spy)
        return calls

    @pytest.mark.parametrize("above", [False, True])
    def test_nudged_estimate_falls_back_to_np_std(self, monkeypatch, std_calls, above):
        vals = self.tied()
        if above:  # the next float ratio, now just above np.std's value
            vals[45:50] = np.nextafter(vals[45], np.inf)
        m = reference_ratios(vals)
        sd = np.std(m, ddof=1)
        assert (m[49] > sd) == above and abs(m[49] - sd) <= 2.3e-16
        # the fast sd a few ulps on the far side of the ratio: alone, it would flip the decision
        fast = m[49]
        for _ in range(4):
            fast = np.nextafter(fast, np.inf if above else -np.inf)
        assert (m[49] > fast) != (m[49] > sd)
        real = filtering._ratio_sd
        monkeypatch.setattr(filtering, "_ratio_sd", lambda r, n: (float(fast), real(r, n)[1]))
        at = np.flatnonzero(m)
        std_calls.clear()
        hit = at[filtering._above_sd(m[at], m.size, at)]
        assert std_calls == [m.size]  # np.std ran once, over the full series
        assert hit.tobytes() == reference_outliers(vals).tobytes()
        assert (49 in hit) == above

    def test_tie_without_nudge(self, std_calls):
        # the fast sd lands within the band of the tied ratio by itself
        vals = self.tied()
        std_calls.clear()
        filter_and_detect(sig(vals))
        assert std_calls == [vals.size - 1]
        TestFilterAndDetectParity().check(sig(vals))
