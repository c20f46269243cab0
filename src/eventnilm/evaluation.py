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
    preds_by_key = defaultdict(list)
    for p in sorted(predicted, key=lambda e: e.index):
        preds_by_key[p.key].append(p)
    truths_by_key = defaultdict(list)
    for t in sorted(truth, key=lambda e: e.index):
        truths_by_key[t.key].append(t)

    tp: dict[str, int] = defaultdict(int)
    fp: dict[str, int] = defaultdict(int)
    fn: dict[str, int] = defaultdict(int)
    matched_total = 0
    for key in sorted(set(preds_by_key) | set(truths_by_key)):
        appliance = key[0]
        ts = truths_by_key.get(key, [])
        used = [False] * len(ts)
        j = 0
        for p in preds_by_key.get(key, []):
            while j < len(ts) and (used[j] or ts[j].index < p.index - tolerance):
                j += 1
            if j < len(ts) and abs(ts[j].index - p.index) <= tolerance:
                used[j] = True
                tp[appliance] += 1
                matched_total += 1
                j += 1
            else:
                fp[appliance] += 1
        fn[appliance] += used.count(False)

    total_slots = len(predicted) + len(truth) - matched_total
    out = {}
    for appliance in sorted(set(tp) | set(fp) | set(fn)):
        a_tp, a_fp, a_fn = tp[appliance], fp[appliance], fn[appliance]
        out[appliance] = ConfusionCounts(
            tp=a_tp, fp=a_fp, fn=a_fn, tn=total_slots - a_tp - a_fp - a_fn
        )
    return out


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
