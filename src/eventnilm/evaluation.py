"""Scoring predicted event labels against ground truth.

Matching is greedy one-to-one per appliance: a prediction and a truth event
pair up when their sample indices sit within the tolerance and their
transition labels agree. With non-overlapping tolerance windows greedy
matching is optimal; the tests check it against exhaustive matching on small
instances.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LabelPoint:
    """One labeled event, reduced to what scoring needs."""

    index: int
    appliance: str
    from_mode: str
    to_mode: str

    @property
    def key(self):
        return (self.appliance, self.from_mode, self.to_mode)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")


@dataclass(frozen=True, eq=False)
class PointTable:
    """Labeled events as read-only columns: event ``i`` sits at sample
    ``index[i]`` and has the (appliance, from mode, to mode) label
    ``keys[code[i]]``. ``len``, ``table[i]`` and iteration give the rows as
    :class:`LabelPoint`s; ``==`` compares content.
    """

    index: np.ndarray
    code: np.ndarray
    keys: tuple[tuple[str, str, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "keys", tuple(map(tuple, self.keys)))
        for name in ("index", "code"):
            object.__setattr__(self, name, np.array(getattr(self, name), np.int64))
            getattr(self, name).flags.writeable = False
        coded = not self.code.size or 0 <= self.code.min() <= self.code.max() < len(self.keys)
        if self.index.ndim != 1 or self.code.shape != self.index.shape or not coded:
            raise ValueError("point columns must be 1-D, of one length, with codes indexing keys")

    @classmethod
    def of(cls, points) -> "PointTable":
        """A table as it is; else the rows (LabelPoints or alike) as columns."""
        if isinstance(points, PointTable):
            return points
        slot, index, code = {}, [], []  # slot: label -> code
        for p in points:
            index.append(p.index)
            code.append(slot.setdefault((p.appliance, p.from_mode, p.to_mode), len(slot)))
        return cls(index, code, tuple(slot))

    def __len__(self):
        return self.index.size

    def __getitem__(self, i: int) -> LabelPoint:
        return LabelPoint(self.index[i].item(), *self.keys[self.code[i]])

    def __iter__(self):
        labels = map(self.keys.__getitem__, self.code.tolist())
        return map(LabelPoint, self.index.tolist(), *zip(*labels))

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, PointTable) else NotImplemented


def match_events(
    predicted: PointTable | list[LabelPoint],
    truth: PointTable | list[LabelPoint],
    tolerance: int = 1,
) -> dict[str, ConfusionCounts]:
    """Greedy one-to-one matching, then per-appliance confusion counts.

    Predictions walk in index order; each takes the earliest unmatched truth
    event with the same label within ``tolerance`` samples. Leftover
    predictions are false positives, leftover truths false negatives; true
    negatives fill each appliance's counts up to the number of distinct
    event slots (matched pairs count once).
    """
    sides = [PointTable.of(points) for points in (predicted, truth)]
    counts: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])  # tp, fp, fn
    keys = sorted({s.keys[c] for s in sides for c in np.unique(s.code).tolist()})
    rank = {k: g for g, k in enumerate(keys)}  # label -> position in keys
    ranks = [np.array([rank.get(k, -1) for k in s.keys], np.int64)[s.code] for s in sides]
    for g, key in enumerate(keys):
        preds, ts = (np.sort(s.index[r == g]).tolist() for s, r in zip(sides, ranks))
        hits = j = 0
        for p in preds:
            # truths before j are matched or too early for every later p
            while j < len(ts) and ts[j] < p - tolerance:
                j += 1
            if j < len(ts) and ts[j] - p <= tolerance:
                hits += 1
                j += 1
        c = counts[key[0]]
        c[0] += hits
        c[1] += len(preds) - hits
        c[2] += len(ts) - hits

    total_slots = len(sides[0]) + len(sides[1]) - sum(c[0] for c in counts.values())
    return {
        appliance: ConfusionCounts(tp, fp, fn, total_slots - tp - fp - fn)
        for appliance, (tp, fp, fn) in sorted(counts.items())
    }


def f_measure(counts: ConfusionCounts) -> float:
    """Harmonic mean of precision and recall; 0 when nothing was hit."""
    if counts.tp == 0:
        return 0.0
    precision = counts.tp / (counts.tp + counts.fp)
    recall = counts.tp / (counts.tp + counts.fn)
    return 2.0 * precision * recall / (precision + recall)


def precision_recall(counts: ConfusionCounts) -> tuple[float, float]:
    p = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    r = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    return p, r


def macro_average_f(per_appliance: dict[str, ConfusionCounts]) -> float:
    if not per_appliance:
        return 0.0
    return sum(f_measure(c) for c in per_appliance.values()) / len(per_appliance)
