"""Core time-series model: active-power signals and detected events.

A :class:`PowerSignal` is a uniformly sampled, non-negative active-power
series. All pipeline stages exchange these; instances are immutable after
construction and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError

_GRID_EPS = 1e-9
MAX_GAP_S = 60.0  # default hole length, in seconds, that step-hold filling reports


def gap_threshold(period: float) -> float:
    """Hole length, in seconds, past which a channel sampled every ``period``
    seconds has a gap: 60 s, or 1.5 periods for a slow meter, whose regular
    spacing is no gap."""
    return max(MAX_GAP_S, 1.5 * period)


@dataclass(frozen=True)
class PowerSignal:
    """Uniformly indexed active-power series for one appliance or the aggregate.

    Sample ``t`` is the power (watts) at time ``start_time + t * sample_period``.
    """

    values: np.ndarray
    start_time: float = 0.0
    sample_period: float = 1.0
    source_id: str = ""

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("values must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"signal {self.source_id!r} contains non-finite samples")
        if np.any(arr < 0):
            raise ValueError(f"signal {self.source_id!r} contains negative samples")
        if not (self.sample_period > 0):
            raise ValueError("sample_period must be positive")
        owner = arr if arr.flags.owndata else arr.base
        frozen = isinstance(owner, np.ndarray) and owner.flags.owndata and not owner.flags.writeable
        if arr is self.values and (arr.flags.writeable or not frozen):
            arr = arr.copy()  # the caller may still write to it, or to the array it views
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self):
        return self.values.size

    def time_at(self, index: int) -> float:
        return self.start_time + index * self.sample_period

    def times(self) -> np.ndarray:
        """Time of every sample, as ``time_at`` computes it."""
        return self.start_time + np.arange(len(self)) * self.sample_period

    @property
    def end_time(self) -> float:
        """Time of the last sample."""
        return self.time_at(len(self) - 1)

    def replace_values(self, values: np.ndarray, source_id: str | None = None) -> "PowerSignal":
        """New signal on the same grid with different samples."""
        return PowerSignal(
            values=values,
            start_time=self.start_time,
            sample_period=self.sample_period,
            source_id=self.source_id if source_id is None else source_id,
        )

    def same_grid(self, other: "PowerSignal") -> bool:
        return (
            abs(self.start_time - other.start_time) < _GRID_EPS
            and abs(self.sample_period - other.sample_period) < _GRID_EPS
            and len(self) == len(other)
        )


@dataclass(frozen=True)
class EventRecord:
    """A detected signal change.

    ``index`` is the sample index of the last pre-event sample (0-based);
    ``post_index`` is the first settled sample after the change, i.e. the
    sample whose value is ``post_level``.
    """

    index: int
    magnitude: float
    pre_level: float
    post_level: float
    post_index: int = field(default=-1)

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("event index must be non-negative")
        if self.magnitude == 0:
            raise ValueError("an event must change the signal value")
        if abs((self.post_level - self.pre_level) - self.magnitude) > 1e-6:
            raise ValueError("magnitude must equal post_level - pre_level")
        if self.post_index < 0:
            object.__setattr__(self, "post_index", self.index + 1)

    @property
    def rising(self) -> bool:
        return self.magnitude > 0


# the EventTable columns, in EventRecord's field order
EVENT_COLUMNS = ("index", "magnitude", "pre_level", "post_level", "post_index")


@dataclass(frozen=True, eq=False)
class EventTable:
    """Detected events as read-only columns, one row per event.

    ``len``, ``table[i]`` and iteration give the rows as :class:`EventRecord`s,
    whose rules are checked once, on the whole columns.
    """

    index: np.ndarray
    magnitude: np.ndarray
    pre_level: np.ndarray
    post_level: np.ndarray
    post_index: np.ndarray

    def __post_init__(self):
        for name in EVENT_COLUMNS:
            col = np.array(getattr(self, name), np.int64 if "index" in name else np.float64)
            if col.ndim != 1 or col.shape != np.shape(self.index):
                raise ValueError("event columns must be 1-D and of one length")
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        if np.any(self.index < 0):
            raise ValueError("event index must be non-negative")
        if np.any(self.magnitude == 0):
            raise ValueError("an event must change the signal value")
        if np.any(np.abs((self.post_level - self.pre_level) - self.magnitude) > 1e-6):
            raise ValueError("magnitude must equal post_level - pre_level")

    def __len__(self):
        return self.index.size

    def __getitem__(self, i: int) -> EventRecord:
        return EventRecord(*(getattr(self, name)[i].item() for name in EVENT_COLUMNS))

    def __iter__(self):
        return map(EventRecord, *(getattr(self, name).tolist() for name in EVENT_COLUMNS))


@dataclass(frozen=True)
class GapRecord:
    """A hole in an irregular source series that step-hold filling papered over."""

    start_time: float
    end_time: float

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


def resample_step_hold(
    times: np.ndarray,
    values: np.ndarray,
    period: float,
    start: float | None = None,
    end: float | None = None,
    max_gap: float | None = None,
    source_id: str = "",
) -> tuple[PowerSignal, list[GapRecord]]:
    """Put an irregular (time, value) series onto a uniform grid.

    Each grid sample takes the most recent source sample at or before the
    grid instant. Source gaps longer than ``max_gap`` seconds (by default
    ``gap_threshold(period)``) are still filled with the last value but
    reported, so outages are visible instead of fabricating flat power.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.size == 0:
        raise AlignmentError(f"source {source_id!r} has no samples")
    if not np.all(times[1:] >= times[:-1]):  # meters mostly log in order
        order = np.argsort(times, kind="stable")
        times, values = times[order], values[order]
    lo = times[0] if start is None else start
    hi = times[-1] if end is None else end
    if lo < times[0] - _GRID_EPS:
        raise AlignmentError(f"grid for {source_id!r} starts before its first sample")
    if hi < lo:
        raise AlignmentError(f"empty grid span for {source_id!r}")
    n = int(np.floor((hi - lo) / period + _GRID_EPS)) + 1
    key = lo + np.arange(n) * period + _GRID_EPS
    # the most recent source sample at or before each grid instant: sample j
    # itself when times[j] <= key[j] < times[j + 1] for every j, the test
    # searchsorted(side="right") makes, which a channel logged on the grid passes
    on_grid = (
        n <= times.size
        and np.all(times[:n] <= key)
        and np.all(key[: times.size - 1] < times[1 : n + 1])
    )
    if on_grid:
        values = values[:n].copy()
    else:
        values = values[np.searchsorted(times, key, side="right") - 1]
    values.flags.writeable = False
    signal = PowerSignal(values, start_time=lo, sample_period=period, source_id=source_id)

    gaps = []
    spacing = np.diff(times)
    for i in np.nonzero(spacing > (gap_threshold(period) if max_gap is None else max_gap))[0]:
        if times[i] <= hi and times[i + 1] >= lo:
            gaps.append(GapRecord(start_time=times[i], end_time=times[i + 1]))
    return signal, gaps


def aggregate(signals: list[PowerSignal]) -> PowerSignal:
    """Sample-wise sum of already-aligned signals."""
    if not signals:
        raise ValueError("nothing to aggregate")
    first = signals[0]
    for s in signals[1:]:
        if not first.same_grid(s):
            raise AlignmentError(
                f"cannot aggregate {s.source_id!r}: grid differs from {first.source_id!r}"
            )
    total = np.zeros(len(first))
    for s in signals:  # summed in list order so results are deterministic
        total += s.values
    total.flags.writeable = False
    return PowerSignal(
        total, start_time=first.start_time, sample_period=first.sample_period, source_id="aggregate"
    )
