"""Clustering and state extraction.

Three oracles anchor this module: the merge cost is checked against the
literal increase in within-cluster sum of squares, the round-based
agglomeration is checked against a quadratic greedy reference that considers
every cluster pair at every step, and, on larger inputs, against a heap that
makes the greedy merges one at a time.
"""

import numpy as np
import pytest

from eventnilm.dataset import slice_days
from eventnilm.errors import InsufficientDataError
from eventnilm.filtering import filter_and_detect
from eventnilm.modes import (
    OFF_MODE,
    Cluster,
    State,
    StateSet,
    distance_merge,
    extract_states,
    lw_cluster,
    states_from_clusters,
    ward_merge_cost,
)
from eventnilm.synth import balanced_household, demo_household, generate

from helpers import reference_lw_cluster, sig


def sse(members):
    arr = np.asarray(members, dtype=np.float64)
    return float(((arr - arr.mean()) ** 2).sum())


def greedy_reference(samples, k):
    """Quadratic greedy agglomeration over all pairs, not just neighbours."""
    groups = [[float(v)] for v in sorted(samples)]
    while len(groups) > k:
        best = None
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                a, b = groups[i], groups[j]
                ca, cb = np.mean(a), np.mean(b)
                cost = len(a) * len(b) / (len(a) + len(b)) * (ca - cb) ** 2
                key = (cost, min(ca, cb), max(ca, cb))
                if best is None or key < best[0]:
                    best = (key, i, j)
        _, i, j = best
        groups[i] = sorted(groups[i] + groups[j])
        del groups[j]
    return sorted(groups, key=np.mean)


class TestWardCost:
    def test_cost_is_sse_increase(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.uniform(0, 2000, size=rng.integers(1, 30))
            b = rng.uniform(0, 2000, size=rng.integers(1, 30))
            ca, cb = Cluster.of(a), Cluster.of(b)
            merged_sse = sse(np.concatenate((a, b)))
            assert ward_merge_cost(ca, cb) == pytest.approx(
                merged_sse - sse(a) - sse(b), abs=1e-8
            )

    def test_symmetric(self):
        a = Cluster.of([10.0, 20.0])
        b = Cluster.of([100.0])
        assert ward_merge_cost(a, b) == ward_merge_cost(b, a)

    def test_identical_centroids_cost_zero(self):
        a = Cluster.of([50.0, 50.0])
        b = Cluster.of([50.0])
        assert ward_merge_cost(a, b) == 0.0


def summaries(clusters):
    """(min, max, size) per cluster; on contiguous slices of sorted data
    these fix the partition."""
    return [(c.min, c.max, c.size) for c in clusters]


def duplicate_heavy(rng, n):
    """Mostly exact 0 W OFF samples plus a few levels rounded to 0.1 W."""
    levels = rng.uniform(0, 1500, size=int(rng.integers(1, 6)))
    on = levels[rng.integers(0, levels.size, size=n)] + rng.normal(0, 2.0, size=n)
    off = rng.uniform(size=n) < rng.uniform(0.6, 0.7)
    return np.where(off, 0.0, np.round(np.maximum(on, 0.0), 1))


class TestLwCluster:
    def test_matches_quadratic_reference(self):
        rng = np.random.default_rng(17)
        cases = []
        for _ in range(60):
            n = int(rng.integers(4, 25))
            samples = rng.uniform(0, 1500, size=n)
            cases.append((samples, int(rng.integers(1, min(6, n) + 1))))
        for _ in range(60):
            samples = duplicate_heavy(rng, int(rng.integers(8, 40)))
            distinct = np.unique(samples).size
            cases.append((samples, int(rng.integers(1, min(6, distinct) + 1))))
        for samples, k in cases:
            fast = lw_cluster(samples, k)
            slow = greedy_reference(samples, k)
            assert summaries(fast) == [(min(g), max(g), len(g)) for g in slow]

    def test_tie_break_on_duplicates(self):
        clusters = lw_cluster([0.0, 0.0, 1.0, 1.0], k=3)
        assert summaries(clusters) == [(0.0, 0.0, 2), (1.0, 1.0, 1), (1.0, 1.0, 1)]

    def test_result_sorted_and_contiguous(self):
        rng = np.random.default_rng(19)
        samples = rng.uniform(0, 3000, size=200)
        clusters = lw_cluster(samples, k=7)
        assert len(clusters) == 7
        cents = [c.centroid for c in clusters]
        assert cents == sorted(cents)
        # contiguity: every cluster's range ends before the next one starts
        for a, b in zip(clusters[:-1], clusters[1:]):
            assert a.max <= b.min

    def test_preserves_all_samples(self):
        rng = np.random.default_rng(23)
        samples = rng.uniform(0, 500, size=60)
        clusters = lw_cluster(samples, k=4)
        assert sum(c.size for c in clusters) == samples.size
        for c in clusters:
            assert np.count_nonzero((samples >= c.min) & (samples <= c.max)) == c.size

    def test_large_input_is_exact(self):
        rng = np.random.default_rng(29)
        n = 1_000_001
        levels = np.array([0.0, 600.0, 1400.0])
        samples = levels[rng.integers(0, 3, size=n)] + rng.uniform(-0.3, 0.3, size=n)
        clusters = lw_cluster(samples, k=3)
        cents = sorted(c.centroid for c in clusters)
        assert cents == pytest.approx([0.0, 600.0, 1400.0], abs=1.0)
        assert sum(c.size for c in clusters) == n
        # envelopes come from the samples themselves, not from rounded values
        distinct = set(samples.tolist())
        assert all(c.min in distinct and c.max in distinct for c in clusters)
        assert len(lw_cluster(samples, k=4)) == 4

    def test_k_validation(self):
        with pytest.raises(ValueError):
            lw_cluster([1.0, 2.0], k=0)
        with pytest.raises(InsufficientDataError):
            lw_cluster([1.0, 2.0], k=3)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                lw_cluster([1.0, bad, 2.0], k=2)


def full(clusters):
    return [(c.min, c.max, c.size, c.centroid) for c in clusters]


def evenly_spaced(rng, n):
    """Equal counts on an even grid: every adjacent merge costs the same."""
    step = float(rng.choice([0.1, 1.0, 2.5, 7.0]))
    reps = int(rng.integers(1, 4))
    return np.repeat(np.arange(max(n // reps, 1)) * step, reps)


class TestLwClusterHeapParity:
    """The merge rounds give the one-merge-at-a-time heap's clusters,
    centroids included, on every k from 1 to 12."""

    KINDS = {
        "uniform": lambda rng, n: rng.uniform(0, 1500, size=n),
        "duplicate_heavy": duplicate_heavy,
        "integer_grid": lambda rng, n: rng.integers(0, rng.integers(2, 40), size=n) * 1.0,
        "evenly_spaced": evenly_spaced,
        # fewer distinct values than most k: one cluster per sample
        "few_distinct": lambda rng, n: rng.integers(0, 3, size=n) * 50.0,
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_seeded_inputs(self, kind):
        rng = np.random.default_rng(sorted(self.KINDS).index(kind))
        for n in [2, 3, 5, 12, 2000] + [int(v) for v in rng.integers(2, 2001, size=6)]:
            samples = self.KINDS[kind](rng, n)
            for k in range(1, min(12, samples.size) + 1):
                assert full(lw_cluster(samples, k)) == full(
                    reference_lw_cluster(samples, k)
                ), (kind, n, k)

    @pytest.mark.parametrize(
        "household, days, train_days", [(demo_household, 28, 21), (balanced_household, 120, 7)]
    )
    def test_training_channels(self, household, days, train_days):
        result = generate(household(), days=days, seed=0)
        base = result.aggregate.start_time
        for signal in result.appliances.values():
            filtered, _ = filter_and_detect(slice_days(signal, (0, train_days - 1), base))
            assert full(lw_cluster(filtered.values, 10)) == full(
                reference_lw_cluster(filtered.values, 10)
            )


class TestDistanceMerge:
    def test_close_pair_merges(self):
        out = distance_merge([Cluster.of([1000.0]), Cluster.of([870.0])])
        assert len(out) == 1
        assert out[0].centroid == pytest.approx(935.0)
        assert (out[0].min, out[0].max) == (870.0, 1000.0)

    def test_distant_pair_stays_apart(self):
        out = distance_merge([Cluster.of([1000.0]), Cluster.of([840.0])])
        assert [c.centroid for c in out] == [840.0, 1000.0]

    def test_merged_root_tested_against_next(self):
        # 1000 absorbs 900 (gap 100 < 150); the merged root at 950 then
        # rejects 800 because 150 is not under 142.5
        out = distance_merge(
            [Cluster.of([1000.0]), Cluster.of([900.0]), Cluster.of([800.0])]
        )
        assert [c.centroid for c in out] == [800.0, 950.0]

    def test_weighted_centroid(self):
        big = Cluster.of([1000.0] * 9)
        small = Cluster.of([900.0])
        out = distance_merge([big, small])
        assert len(out) == 1
        assert out[0].centroid == pytest.approx(990.0)

    def test_ascending_output(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            clusters = [
                Cluster.of(rng.uniform(0, 2500, size=rng.integers(1, 8)))
                for _ in range(rng.integers(1, 9))
            ]
            out = distance_merge(clusters)
            cents = [c.centroid for c in out]
            assert cents == sorted(cents)
            assert sum(c.size for c in out) == sum(c.size for c in clusters)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distance_merge([])


class TestStatesFromClusters:
    def test_low_cluster_becomes_off(self):
        clusters = [Cluster.of([0.0, 1.0, 2.0]), Cluster.of([500.0, 520.0])]
        ss = states_from_clusters(clusters)
        assert ss.mode_ids() == [OFF_MODE, "on1"]
        off = ss.off_state
        assert (off.low, off.high) == (0.0, 2.0)
        assert off.size == 3

    def test_no_off_observed_adds_zero_width_off(self):
        clusters = [Cluster.of([200.0]), Cluster.of([900.0])]
        ss = states_from_clusters(clusters)
        assert ss.mode_ids() == [OFF_MODE, "on1", "on2"]
        off = ss.off_state
        assert (off.low, off.high, off.centroid, off.size) == (0.0, 0.0, 0.0, 0)

    def test_threshold_boundary_is_strict(self):
        ss = states_from_clusters([Cluster.of([5.0]), Cluster.of([100.0])])
        # exactly 5 W is not under the threshold, so it is a running mode
        assert ss.mode_ids() == [OFF_MODE, "on1", "on2"]

    def test_modes_named_by_ascending_centroid(self):
        clusters = [Cluster.of([1500.0]), Cluster.of([1.0]), Cluster.of([700.0])]
        ss = states_from_clusters(clusters)
        assert ss.mode_ids() == [OFF_MODE, "on1", "on2"]
        assert ss.get("on1").centroid == 700.0
        assert ss.get("on2").centroid == 1500.0


class TestStateSet:
    def test_requires_exactly_one_off(self):
        on = State("on1", 100.0, 200.0, 150.0)
        with pytest.raises(ValueError):
            StateSet(states=(on,))
        off = State(OFF_MODE, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            StateSet(states=(off, off, on))

    def test_off_must_be_lowest(self):
        off = State(OFF_MODE, 400.0, 450.0, 425.0)
        on = State("on1", 10.0, 20.0, 15.0)
        with pytest.raises(ValueError):
            StateSet(states=(off, on))

    def test_nearest_prefers_containment(self):
        ss = StateSet(
            states=(
                State(OFF_MODE, 0.0, 3.0, 1.0),
                State("on1", 100.0, 200.0, 150.0),
                State("on2", 300.0, 400.0, 350.0),
            )
        )
        assert ss.nearest(170.0).mode == "on1"
        assert ss.nearest(250.0).mode == "on1"  # 50 from each side, lower wins
        assert ss.nearest(260.0).mode == "on2"
        assert ss.nearest(0.0).mode == OFF_MODE

    def test_get_unknown_mode(self):
        ss = StateSet(states=(State(OFF_MODE, 0.0, 0.0, 0.0),))
        with pytest.raises(KeyError):
            ss.get("on9")


class TestExtractStates:
    def test_recovers_planted_levels(self):
        # off samples sit at exactly zero, as a filtered signal's do
        rng = np.random.default_rng(37)
        parts = [np.zeros(300)]
        for lv in (480.0, 1150.0):
            parts.append(lv + rng.uniform(-2.0, 2.0, size=300))
        values = np.concatenate(parts)
        values = values[rng.permutation(values.size)]
        ss = extract_states(sig(values))
        assert ss.mode_ids() == [OFF_MODE, "on1", "on2"]
        assert ss.get("on1").centroid == pytest.approx(480.0, abs=2.0)
        assert ss.get("on2").centroid == pytest.approx(1150.0, abs=2.0)

    def test_short_signal_caps_initial_k(self):
        ss = extract_states(sig([0.0, 800.0, 800.0]))
        assert ss.mode_ids() == [OFF_MODE, "on1"]
        assert ss.get("on1").centroid == pytest.approx(800.0)

    def test_k_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            extract_states(sig([1.0] * 20), k=9)
