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

The two passes yield the marked samples, their replacement values and the
event pass's instances. One builder, ``_events``, turns instances into events
for every entry point, reading each level from the raw samples and the
replacements. :func:`filtered_events` returns only those events;
:func:`filter_and_detect` also builds the dense filtered ``PowerSignal``, the
only entry point that does. :func:`detect_events` is one outlier pass over a
signal that is already filtered, so it has no marks.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError
from .signals import EventTable, PowerSignal

# Replacement means never average more than this many following inliers.
REPLACEMENT_RUN_CAP = 10

# A ratio nearer the summed sd than this share of the ratios' scale (mean + sd)
# is decided by np.std: the two sums differ by a few ulps of that scale.
SD_BAND = 1e-9


def _pair_ratios(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1 - min/max of ``a[i]`` and ``b[i]``, element by element; 0 where both are 0."""
    m = np.minimum(a, b)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(m, np.maximum(a, b), out=m)
    np.subtract(1.0, m, out=m)
    return np.fmax(m, 0.0, out=m)  # 0/0 is the only NaN: both samples are zero


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


def _replacements(v: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """The filtered value of each marked sample, in the order of ``marks``: the
    mean of the inliers after its run (at most ``REPLACEMENT_RUN_CAP``), clamped
    at 0. Runs are averaged in one (runs, L) block per inlier-run length L, whose
    ``mean(axis=1)`` keeps ``np.mean``'s order over each run.
    """
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


def _outlier_pass(signal: PowerSignal) -> tuple[np.ndarray, ...]:
    """One outlier pass: the samples, which pairs change, the changing pairs,
    their ratios, and the positions among them of the outliers."""
    v = signal.values
    if v.size < 2:
        raise InsufficientDataError(f"outlier detection needs at least 2 samples, got {v.size}")
    changing = v[1:] != v[:-1]
    at = np.flatnonzero(changing)
    r = _pair_ratios(v[at], v[at + 1])
    return v, changing, at, r, _above_sd(r, changing.size, at)


def detect_events(filtered: PowerSignal) -> EventTable:
    """One outlier pass over an already filtered signal; outlier runs become events.

    A maximal run of consecutive outlier instances is one mode transition:
    its pre level is read one sample before the marked run and its post level
    one sample after (the run's own samples may straddle the edge). Runs whose
    levels end up equal are dropped, since an event must change the value.
    """
    v, _, at, _, hit = _outlier_pass(filtered)
    return _events(v, at[:0], v[:0], at[hit])


def _events(
    v: np.ndarray, marks: np.ndarray, replaced: np.ndarray, instances: np.ndarray
) -> EventTable:
    """Events from event-pass ``instances``. A level is the filtered sample:
    the raw one in ``v``, or the replacement of a marked one."""
    firsts, lasts = _runs(instances)
    post_idx = np.minimum(lasts + 2, v.size - 1)
    # instance t flags pair (t, t+1): sample t is pre-event
    idx = np.concatenate((firsts, post_idx))
    # -0.0 made +0.0 as in _dense. A filter without marks has no events, so
    # this spares only detect_events, which reads its signal as it is.
    level = v[idx] + 0.0 if marks.size else v[idx]
    j = np.searchsorted(marks, idx)
    hit = np.append(marks, -1)[j] == idx
    level[hit] = replaced[j[hit]]
    pre, post = np.split(level, 2)
    keep = post != pre
    return EventTable(firsts[keep], post[keep] - pre[keep], pre[keep], post[keep], post_idx[keep])


def _passes(signal: PowerSignal) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both outlier passes: the raw samples, the marked samples, their
    replacement values and the event pass's instances. The event pass
    recomputes only the ratios of pairs holding a replaced sample, which
    gives :func:`detect_events`'s result on the filtered signal.
    """
    v, changing, at, r, hit = _outlier_pass(signal)
    n = changing.size
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
    return _dense(signal, marks, replaced), _events(v, marks, replaced, instances)


def filtered_events(signal: PowerSignal) -> EventTable:
    """:func:`filter_and_detect`'s events, without building the filtered signal."""
    return _events(*_passes(signal))
