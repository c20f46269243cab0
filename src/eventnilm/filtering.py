"""Statistics-based signal filtering and event detection.

An event is treated as an *uncommon* change rather than a *large* one: the
1 - min/max ratio of every consecutive sample pair is collected, and ratios
exceeding the standard deviation of the whole ratio series are outliers.
Outlier samples are flattened against the following inlier run, which removes
spikes and transition overshoots while leaving genuine steps intact; a second
outlier pass over the flattened signal then yields the events. Flattening
changes only the marked samples, so the second pass rewrites only the ratios
of pairs that hold a replaced sample and keeps the rest of the first series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .signals import EventTable, PowerSignal

# Replacement means never average more than this many following inliers.
REPLACEMENT_RUN_CAP = 10


@dataclass(frozen=True)
class RatioSeries:
    """Consecutive-pair change ratios and their dispersion threshold.

    ``m[t] = 1 - min(P[t], P[t+1]) / max(P[t], P[t+1])`` for t = 0..T-2, with
    m[t] = 0 when both samples are zero. Every entry lies in [0, 1].
    """

    m: np.ndarray
    threshold_sd: float


@dataclass(frozen=True)
class OutlierReport:
    """Outlier instances (ratio indices) and the sample indices they mark.

    Instance ``t`` flags the pair (t, t+1); the changed sample is t+1, so
    ``sample_marks = {t + 1 for t in instances}``.
    """

    instances: np.ndarray
    sample_marks: np.ndarray
    ratios: RatioSeries


def change_ratios(values: np.ndarray) -> np.ndarray:
    """1 - min/max for each consecutive pair, with 0/0 counted as no change."""
    return _pair_ratios(values[:-1], values[1:])


def _pair_ratios(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1 - min/max of ``a[i]`` and ``b[i]``, element by element; 0 where both are 0."""
    m = np.minimum(a, b)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(m, np.maximum(a, b), out=m)
    np.subtract(1.0, m, out=m)
    return np.fmax(m, 0.0, out=m)  # 0/0 is the only NaN: both samples are zero


def detect_outliers(signal: PowerSignal) -> OutlierReport:
    """Flag the uncommonly large consecutive-pair change ratios.

    The threshold is the sample (n-1) standard deviation of the full ratio
    series; an instance is an outlier iff its ratio strictly exceeds it, so a
    constant signal (sd = 0, all ratios 0) yields no outliers.
    """
    if len(signal) < 2:
        raise InsufficientDataError(
            f"outlier detection needs at least 2 samples, got {len(signal)}"
        )
    return _outliers(change_ratios(signal.values))


def _outliers(m: np.ndarray) -> OutlierReport:
    sd = float(np.std(m, ddof=1)) if m.size > 1 else 0.0
    instances = np.nonzero(m > sd)[0]
    return OutlierReport(
        instances=instances,
        sample_marks=instances + 1,
        ratios=RatioSeries(m=m, threshold_sd=sd),
    )


def _runs(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs of consecutive sorted integers: (first, last) arrays, inclusive."""
    if indices.size == 0:
        return indices, indices
    breaks = np.flatnonzero(np.diff(indices) > 1)
    return indices[np.r_[0, breaks + 1]], indices[np.r_[breaks, indices.size - 1]]


def build_filtered_signal(signal: PowerSignal, report: OutlierReport) -> PowerSignal:
    """Flatten spikes and overshoots; keep genuine steps.

    Each maximal run of marked samples is replaced by the mean of the inlier
    run that follows it (capped at ``REPLACEMENT_RUN_CAP`` samples). A marked
    run ending the signal falls back to the preceding inlier run. Steps
    survive because the following inliers already sit at the new level.
    Runs are averaged in one (runs, L) block per inlier-run length L, whose
    ``mean(axis=1)`` keeps ``np.mean``'s order of summation over each run.
    """
    values = signal.values + 0.0  # a fresh copy, with -0.0 made +0.0
    marks = report.sample_marks
    if marks.size:
        firsts, lasts = _runs(marks)
        # a run's inliers start right after it and stop at the next run, the
        # cap or the end of the signal; only a run ending the signal has none
        after = lasts + 1
        length = np.minimum(np.r_[firsts[1:], values.size], after + REPLACEMENT_RUN_CAP) - after
        means = np.empty(firsts.size)
        for size in set(length.tolist()) - {0}:
            pick = length == size
            windows = np.lib.stride_tricks.sliding_window_view(signal.values, size)
            means[pick] = windows[after[pick]].mean(axis=1)
        if length[-1] == 0:
            # run ends the signal: average the inliers just before it
            first = int(firsts[-1])
            start = max(first - REPLACEMENT_RUN_CAP, int(lasts[-2]) + 1 if lasts.size > 1 else 0)
            means[-1] = signal.values[start:first].mean()
        values[marks] = np.repeat(np.maximum(means, 0.0, out=means), lasts - firsts + 1)
    values.flags.writeable = False
    return signal.replace_values(values)


def detect_events(filtered: PowerSignal) -> EventTable:
    """One outlier pass over a filtered signal; outlier runs become events.

    A maximal run of consecutive outlier instances is one mode transition:
    its pre level is read one sample before the marked run and its post level
    one sample after (the run's own samples may straddle the edge). Runs whose
    levels end up equal are dropped, since an event must change the value.
    """
    return _events(filtered, detect_outliers(filtered))


def _events(filtered: PowerSignal, report: OutlierReport) -> EventTable:
    values = filtered.values
    firsts, lasts = _runs(report.instances)
    post_idx = np.minimum(lasts + 2, values.size - 1)
    # instance t flags pair (t, t+1): sample t is pre-event
    pre, post = values[firsts], values[post_idx]
    keep = post != pre
    return EventTable(firsts[keep], post[keep] - pre[keep], pre[keep], post[keep], post_idx[keep])


def filter_and_detect(signal: PowerSignal) -> tuple[PowerSignal, EventTable]:
    """Outlier detection, filtered-signal construction, event detection, in order.

    The event pass recomputes only the ratios of pairs holding a replaced
    sample, which gives :func:`detect_events`'s result on the filtered signal.
    """
    report = detect_outliers(signal)
    filtered = build_filtered_signal(signal, report)
    marks = report.sample_marks
    pairs = np.concatenate((marks - 1, marks[marks < len(signal) - 1]))  # repeats write alike
    m = report.ratios.m  # the report is not handed out: patch its series in place
    m[pairs] = _pair_ratios(filtered.values[pairs], filtered.values[pairs + 1])
    return filtered, _events(filtered, _outliers(m))
