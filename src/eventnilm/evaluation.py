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


def match_events(
    predicted: list[LabelPoint],
    truth: list[LabelPoint],
    tolerance: int = 1,
) -> dict[str, ConfusionCounts]:
    """Greedy one-to-one matching, then per-appliance confusion counts.

    Predictions walk in index order; each takes the earliest unmatched truth
    event with the same label within ``tolerance`` samples. Leftover
    predictions are false positives, leftover truths false negatives; true
    negatives fill each appliance's counts up to the number of distinct
    event slots (matched pairs count once).
    """
    # sample indices per (appliance, from mode, to mode), predictions then truths
    by_key = defaultdict(lambda: ([], []))
    for side, points in enumerate((predicted, truth)):
        for p in points:
            by_key[p.appliance, p.from_mode, p.to_mode][side].append(p.index)

    counts: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])  # tp, fp, fn
    for key in sorted(by_key):
        preds, ts = (sorted(side) for side in by_key[key])
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

    total_slots = len(predicted) + len(truth) - sum(c[0] for c in counts.values())
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
