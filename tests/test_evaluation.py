"""Scoring: greedy matching against an exhaustive maximum-matching oracle.

The greedy matcher walks both sides in index order; the oracle below finds
a true maximum one-to-one matching by augmenting paths, so any instance
where greedy dropped a pair it should have kept would fail loudly.
"""

import numpy as np
import pytest

from eventnilm.evaluation import (
    ConfusionCounts,
    LabelPoint,
    PointTable,
    f_measure,
    macro_average_f,
    match_events,
    precision_recall,
)

from helpers import reference_match_events


def lp(index, appliance="x", from_mode="off", to_mode="on1"):
    return LabelPoint(index, appliance, from_mode, to_mode)


def max_matching(preds, truths, tolerance):
    """Maximum bipartite matching size via augmenting paths."""
    match_of_truth = [None] * len(truths)

    def feasible(i, j):
        return (
            preds[i].key == truths[j].key
            and abs(preds[i].index - truths[j].index) <= tolerance
        )

    def augment(i, seen):
        for j in range(len(truths)):
            if feasible(i, j) and j not in seen:
                seen.add(j)
                if match_of_truth[j] is None or augment(match_of_truth[j], seen):
                    match_of_truth[j] = i
                    return True
        return False

    size = 0
    for i in range(len(preds)):
        if augment(i, set()):
            size += 1
    return size


class TestMatchEvents:
    def test_exact_and_tolerant_hits(self):
        preds = [lp(10), lp(30)]
        truth = [lp(11), lp(30)]
        counts = match_events(preds, truth, tolerance=1)["x"]
        assert (counts.tp, counts.fp, counts.fn) == (2, 0, 0)

    def test_outside_tolerance_misses(self):
        counts = match_events([lp(12)], [lp(10)], tolerance=1)["x"]
        assert (counts.tp, counts.fp, counts.fn) == (0, 1, 1)

    def test_label_must_agree(self):
        preds = [lp(10, to_mode="on1")]
        truth = [lp(10, to_mode="on2")]
        counts = match_events(preds, truth)["x"]
        assert (counts.tp, counts.fp, counts.fn) == (0, 1, 1)

    def test_one_to_one_consumption(self):
        preds = [lp(10), lp(11)]
        truth = [lp(10)]
        counts = match_events(preds, truth, tolerance=1)["x"]
        assert (counts.tp, counts.fp, counts.fn) == (1, 1, 0)

    def test_per_appliance_split_and_tn(self):
        preds = [lp(10, "x"), lp(30, "x")]
        truth = [lp(10, "x"), lp(50, "y")]
        out = match_events(preds, truth, tolerance=1)
        # one match; slots = 2 + 2 - 1 = 3
        assert out["x"] == ConfusionCounts(tp=1, fp=1, fn=0, tn=1)
        assert out["y"] == ConfusionCounts(tp=0, fp=0, fn=1, tn=2)

    def test_empty_inputs(self):
        assert match_events([], []) == {}
        out = match_events([], [lp(5)])
        assert out["x"] == ConfusionCounts(tp=0, fp=0, fn=1, tn=0)

    def test_matches_maximum_matching_oracle(self):
        rng = np.random.default_rng(71)
        keys = [
            ("x", "off", "on1"),
            ("x", "on1", "off"),
            ("y", "off", "on1"),
        ]
        for _ in range(300):
            tolerance = int(rng.integers(0, 4))
            preds = [
                LabelPoint(int(rng.integers(0, 40)), *keys[rng.integers(0, 3)])
                for _ in range(rng.integers(0, 10))
            ]
            truth = [
                LabelPoint(int(rng.integers(0, 40)), *keys[rng.integers(0, 3)])
                for _ in range(rng.integers(0, 10))
            ]
            out = match_events(preds, truth, tolerance=tolerance)
            greedy_tp = sum(c.tp for c in out.values())
            optimal = max_matching(
                sorted(preds, key=lambda e: e.index),
                sorted(truth, key=lambda e: e.index),
                tolerance,
            )
            assert greedy_tp == optimal
            # count conservation per appliance
            for app, c in out.items():
                assert c.tp + c.fp == sum(1 for p in preds if p.appliance == app)
                assert c.tp + c.fn == sum(1 for t in truth if t.appliance == app)

    def test_equals_record_reference(self):
        """Index lists per label against the LabelPoint walk with used flags:
        unsorted input, repeated indices, labels on one side only."""
        rng = np.random.default_rng(72)
        keys = [("x", "off", "on1"), ("x", "on1", "off"), ("y", "off", "on1"), ("z", "a", "b")]
        for _ in range(400):
            tolerance = int(rng.integers(0, 4))
            span = int(rng.choice([5, 40, 400]))
            preds, truth = (
                [
                    LabelPoint(int(rng.integers(0, span)), *keys[rng.integers(0, k)])
                    for _ in range(rng.integers(0, 30))
                ]
                for k in (3, 4)
            )
            want = reference_match_events(preds, truth, tolerance)
            tables = PointTable.of(preds), PointTable.of(truth)
            assert match_events(preds, truth, tolerance) == want
            assert match_events(*tables, tolerance) == want
            assert match_events(tables[0], truth, tolerance) == want
            assert match_events(preds, tables[1], tolerance) == want

    def test_counts_are_deterministic(self):
        preds = [lp(3), lp(4), lp(5)]
        truth = [lp(4), lp(5)]
        a = match_events(preds, truth, tolerance=1)
        b = match_events(list(reversed(preds)), list(reversed(truth)), tolerance=1)
        assert a == b


class TestPointTable:
    def test_rows_and_columns(self):
        points = [lp(7, "y"), lp(3), lp(7, "y"), lp(9, to_mode="on2")]
        t = PointTable.of(points)
        assert len(t) == 4 and list(t) == points
        assert [t[i] for i in range(-4, 4)] == points + points
        assert t.index.tolist() == [7, 3, 7, 9] and t.code.tolist() == [0, 1, 0, 2]
        assert not t.index.flags.writeable and not t.code.flags.writeable
        assert PointTable.of(t) is t
        assert all(type(p.index) is int for p in [*t, t[0]])

    def test_equality_compares_content(self):
        a = PointTable([1, 2], [0, 1], [("x", "off", "on1"), ("y", "off", "on1")])
        b = PointTable([1, 2], [1, 0], [("y", "off", "on1"), ("x", "off", "on1"), ("z", "", "")])
        assert a == b and a == PointTable.of(list(b))
        assert a != PointTable([1, 3], [0, 1], a.keys)
        assert a != PointTable([1, 2], [0, 0], a.keys)
        assert a != list(a)
        assert PointTable([], []) == PointTable.of([])

    @pytest.mark.parametrize(
        "index, code, keys",
        [
            ([1, 2], [0], [("x", "a", "b")]),  # ragged
            ([[1]], [[0]], [("x", "a", "b")]),  # not 1-D
            ([1], [1], [("x", "a", "b")]),  # code past the keys
            ([1], [-1], [("x", "a", "b")]),
        ],
    )
    def test_rejects_bad_columns(self, index, code, keys):
        with pytest.raises(ValueError):
            PointTable(index, code, keys)


class TestScores:
    def test_f_measure_worked_example(self):
        assert f_measure(ConfusionCounts(tp=8, fp=2, fn=2, tn=0)) == pytest.approx(0.8)

    def test_f_measure_zero_when_nothing_hit(self):
        assert f_measure(ConfusionCounts(tp=0, fp=3, fn=5, tn=2)) == 0.0

    def test_precision_recall(self):
        p, r = precision_recall(ConfusionCounts(tp=6, fp=2, fn=3, tn=0))
        assert p == pytest.approx(0.75)
        assert r == pytest.approx(6 / 9)
        assert precision_recall(ConfusionCounts()) == (0.0, 0.0)

    def test_macro_average(self):
        per = {
            "x": ConfusionCounts(tp=8, fp=2, fn=2, tn=0),
            "y": ConfusionCounts(tp=1, fp=0, fn=0, tn=0),
        }
        assert macro_average_f(per) == pytest.approx((0.8 + 1.0) / 2)
        assert macro_average_f({}) == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1)
