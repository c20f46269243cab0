"""Statistics-based signal filtering and event detection.

An event is treated as an *uncommon* change rather than a *large* one: the
1 - min/max ratio of every consecutive sample pair is collected, and ratios
exceeding the standard deviation of the whole ratio series are outliers.
Outlier samples are flattened against the following inlier run, which removes
spikes and transition overshoots while leaving genuine steps intact; a second
outlier pass over the flattened signal then yields the events.

A pair of equal samples has ratio 0 and can never be an outlier, and on a
submeter whose idle draw is exactly 0, as in the synthetic households, nearly
every pair is one. A pass therefore finds the changing pairs with one
comparison and computes ratios for them alone. The threshold, the sample
(n-1) sd, counts the N - K equal pairs as zeros: mean = sum / N, squared
deviations plus (N - K) * mean**2. A ratio within ``SD_BAND`` of it is
decided by ``np.std(ddof=1)`` over the full series, so every decision is the
one ``np.std`` would make. Flattening changes only the marked samples, so the
second pass rewrites only the ratios of pairs that hold a replaced sample,
adding those whose raw samples were equal. A pass costs one comparison plus
work in proportion to the pairs that change; where nearly all of them change,
as on a noisy standby draw, gathering them makes it dearer than one pass over
every pair.

The two passes produce the marked samples, their replacement values and the
event pass's instances; the event pass reads a replaced sample from the
replacements, never from a filtered copy. :func:`filter_and_detect` then
builds the dense filtered ``PowerSignal`` for callers that read its samples
(training's appliance channels, ``classify`` and the CLI's ``filter``,
``extract-modes`` and ``plot-data``). :func:`filtered_events` returns only
the events, whose levels are raw samples or a marked sample's replacement:
ground truth, training's aggregate and the CLI's ``detect-events`` need
nothing more.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InsufficientDataError
from .signals import EventTable, PowerSignal

# Replacement means never average more than this many following inliers.
REPLACEMENT_RUN_CAP = 10

# A ratio nearer the summed sd than this share of the ratios' scale (mean + sd)
# is decided by np.std: the two sums differ by a few ulps of that scale.
SD_BAND = 1e-9


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
    m = change_ratios(_values(signal))
    sd = float(np.std(m, ddof=1)) if m.size > 1 else 0.0
    instances = np.nonzero(m > sd)[0]
    return OutlierReport(instances, instances + 1, RatioSeries(m=m, threshold_sd=sd))


def _values(signal: PowerSignal) -> np.ndarray:
    if len(signal) > 1:
        return signal.values
    raise InsufficientDataError(f"outlier detection needs at least 2 samples, got {len(signal)}")


def _ratio_sd(r: np.ndarray, n: int) -> tuple[float, float]:
    """Sample (n-1) sd and mean of ``r`` and ``n - r.size`` zeros, summing no zero."""
    mean = float(r.sum()) / n
    d = r - mean
    d *= d
    return ((float(d.sum()) + (n - r.size) * mean * mean) / (n - 1)) ** 0.5, mean


def _above_sd(r: np.ndarray, n: int, at: np.ndarray) -> np.ndarray:
    """Where in ``r`` a ratio exceeds the sample sd of all ``n`` pair ratios.

    ``r`` holds the ratios of the pairs ``at``; the other pairs' ratios are 0.
    A ratio within ``SD_BAND`` of the summed sd is decided by
    ``np.std(ddof=1)`` of the full series, so every decision is the one
    ``np.std`` would make.
    """
    sd, mean = _ratio_sd(r, n) if n > 1 else (0.0, 0.0)
    band = SD_BAND * (sd + mean)
    hit = np.flatnonzero(r > sd - band)
    if (r[hit] <= sd + band).any():
        hit = hit[r[hit] > float(np.std(np.bincount(at, r, n), ddof=1))]
    return hit


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
    marks = report.sample_marks
    return _dense(signal, marks, _replacements(signal.values, marks))


def _replacements(v: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """The filtered value of each marked sample, in the order of ``marks``."""
    if not marks.size:
        return np.empty(0)
    firsts, lasts = _runs(marks)
    # a run's inliers start right after it and stop at the next run, the
    # cap or the end of the signal; only a run ending the signal has none
    after = lasts + 1
    length = np.minimum(np.r_[firsts[1:], v.size], after + REPLACEMENT_RUN_CAP) - after
    means = np.empty(firsts.size)
    for size in set(length.tolist()) - {0}:
        pick = length == size
        windows = np.lib.stride_tricks.sliding_window_view(v, size)
        means[pick] = windows[after[pick]].mean(axis=1)
    if length[-1] == 0:
        # run ends the signal: average the inliers just before it
        first = int(firsts[-1])
        start = max(first - REPLACEMENT_RUN_CAP, int(lasts[-2]) + 1 if lasts.size > 1 else 0)
        means[-1] = v[start:first].mean()
    return np.repeat(np.maximum(means, 0.0, out=means), lasts - firsts + 1)


def _dense(signal: PowerSignal, marks: np.ndarray, replaced: np.ndarray) -> PowerSignal:
    """The filtered signal: a copy of ``signal`` with the marked samples replaced."""
    values = signal.values + 0.0  # -0.0 made +0.0
    values[marks] = replaced
    values.flags.writeable = False
    return signal.replace_values(values)


def _filtered_at(
    v: np.ndarray, marks: np.ndarray, replaced: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """Filtered samples at ``idx``, read from the raw ones and the replaced marks."""
    out = v[idx] + 0.0
    j = np.searchsorted(marks, idx)
    hit = np.append(marks, -1)[j] == idx
    out[hit] = replaced[j[hit]]
    return out


def detect_events(filtered: PowerSignal) -> EventTable:
    """One outlier pass over a filtered signal; outlier runs become events.

    A maximal run of consecutive outlier instances is one mode transition:
    its pre level is read one sample before the marked run and its post level
    one sample after (the run's own samples may straddle the edge). Runs whose
    levels end up equal are dropped, since an event must change the value.
    """
    return _events(detect_outliers(filtered).instances, len(filtered), filtered.values.take)


def _events(instances: np.ndarray, size: int, level: Callable) -> EventTable:
    """Events from event-pass ``instances``; ``level`` reads filtered samples by index."""
    firsts, lasts = _runs(instances)
    post_idx = np.minimum(lasts + 2, size - 1)
    # instance t flags pair (t, t+1): sample t is pre-event
    pre, post = level(firsts), level(post_idx)
    keep = post != pre
    return EventTable(firsts[keep], post[keep] - pre[keep], pre[keep], post[keep], post_idx[keep])


def _passes(signal: PowerSignal) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both outlier passes: the raw samples, the marked samples, their
    replacement values and the event pass's instances. The event pass
    recomputes only the ratios of pairs holding a replaced sample, which
    gives :func:`detect_events`'s result on the filtered signal.
    """
    v = _values(signal)
    changing = v[1:] != v[:-1]
    at = np.flatnonzero(changing)
    r = _pair_ratios(v[at], v[at + 1])
    n = changing.size
    hit = _above_sd(r, n, at)
    instances = at[hit]
    marks = instances + 1
    replaced = _replacements(v, marks)
    # replaced sample t + 1 sits in pair t, an instance, and in pair t + 1:
    # the next instance, or the pair after a run of them
    end = np.diff(instances, append=n) > 1
    after = marks[end]
    # instance t is itself replaced when t - 1 is an instance
    joined = np.diff(instances, prepend=-2) == 1
    r[hit] = _pair_ratios(np.where(joined, np.r_[0.0, replaced[:-1]], v[instances] + 0.0), replaced)
    r_after = _pair_ratios(replaced[end], v[after + 1] + 0.0)
    # a changing raw pair after a run has the slot after the run's last
    # ratio; a pair of equal raw samples is added
    held = changing[after]
    r[hit[end][held] + 1] = r_after[held]
    at, r = np.concatenate((at, after[~held])), np.concatenate((r, r_after[~held]))
    hit = _above_sd(r, n, at)
    return v, marks, replaced, np.sort(at[hit])


def filter_and_detect(signal: PowerSignal) -> tuple[PowerSignal, EventTable]:
    """Outlier detection, filtered-signal construction, event detection, in order."""
    v, marks, replaced, instances = _passes(signal)
    filtered = _dense(signal, marks, replaced)
    return filtered, _events(instances, v.size, filtered.values.take)


def filtered_events(signal: PowerSignal) -> EventTable:
    """:func:`filter_and_detect`'s events, without building the filtered signal.

    Levels are raw samples, or the replacement of a marked one.
    """
    v, marks, replaced, instances = _passes(signal)
    return _events(instances, v.size, partial(_filtered_at, v, marks, replaced))
