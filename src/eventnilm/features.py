"""Per-appliance features learned from training data.

Three feature families are extracted on top of the state set:

* transition intervals: the band of event magnitudes a mode change can
  produce, derived purely from the endpoint states' power envelopes;
* the participation index: how large a share of a day's events a transition
  accounts for, averaged over the days it occurs in;
* behavioral fingerprints: habits of the appliance (signature transitions,
  transitions never observed, overshoot floor, minimum off gap) used later to
  veto implausible labels.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .errors import DataConsistencyError
from .modes import OFF_MODE, State, StateSet
from .signals import EventTable, PowerSignal


@dataclass(frozen=True)
class Transition:
    """An ordered mode change and the magnitude band it can produce."""

    from_mode: str
    to_mode: str
    low: float
    high: float

    @property
    def key(self) -> tuple[str, str]:
        return (self.from_mode, self.to_mode)

    @property
    def rising(self) -> bool:
        # intervals never straddle zero: a transition between distinct
        # states is either wholly rising or wholly falling
        return self.high > 0 or (self.high == 0 and self.low == 0)

    def contains(self, magnitude: float) -> bool:
        return self.low <= magnitude <= self.high


def transition_interval(from_state: State, to_state: State) -> tuple[float, float]:
    """Magnitude band for a jump between two power intervals.

    A rising jump from [L_min, L_max] to [H_min, H_max] can measure anything
    in [H_min - L_max, H_max - L_min]; a genuine rise cannot measure
    negative, so the band clamps at zero (and symmetrically for falls). A
    zero-width origin such as OFF = [0, 0] leaves the target state's own
    envelope as the band.
    """
    lo = to_state.low - from_state.high
    hi = to_state.high - from_state.low
    if to_state.centroid >= from_state.centroid:
        lo = max(lo, 0.0)
    else:
        hi = min(hi, 0.0)
    return (lo, hi)


# ---------------------------------------------------------------------------
# training-event labeling


def label_training_events(
    events: EventTable, states: StateSet
) -> tuple[np.ndarray, tuple[Transition, ...], np.ndarray]:
    """Assign each single-appliance training event to a mode transition.

    Pre and post levels are matched to the nearest state; self transitions
    (pre and post in the same state, small residual wobble) carry no mode
    change and are dropped. Returns the positions in ``events`` of the mode
    changes, the observed transitions sorted by key, and for each change the
    position of its transition among them.
    """
    positions, src, dst = mode_changes(events, states)
    n = len(states.states)
    pairs, which = np.unique(src * n + dst, return_inverse=True)
    made = []
    for p in pairs.tolist():
        s, d = states.states[p // n], states.states[p % n]
        made.append(Transition(s.mode, d.mode, *transition_interval(s, d)))
    order = sorted(range(len(made)), key=lambda t: made[t].key)
    rank = np.argsort(order)  # each made transition's place in key order
    return positions, tuple(made[t] for t in order), rank[which]


def mode_changes(events: EventTable, states: StateSet) -> tuple[np.ndarray, ...]:
    """Positions of the events whose levels' nearest states differ in mode,
    and the indices in ``states`` of those pre and post states."""
    src = states.nearest_indices(events.pre_level)
    dst = states.nearest_indices(events.post_level)
    modes = np.array(states.mode_ids())
    keep = np.flatnonzero(modes[src] != modes[dst])
    return keep, src[keep], dst[keep]


DAY_SECONDS = 86400.0


def days_of(times: np.ndarray, base: float, day_seconds: float = DAY_SECONDS) -> np.ndarray:
    """Day index of each time, day 0 starting at ``base``."""
    return np.floor_divide(times - base, day_seconds).astype(np.int64)


def day_columns(
    index: np.ndarray,
    signal: PowerSignal,
    base: float | None = None,
    day_seconds: float = DAY_SECONDS,
) -> dict[int, list[int]]:
    """Positions in an event ``index`` column grouped by their sample's day, days ascending.

    ``base`` anchors day 0; it defaults to the signal's own start but must be
    shared when aligning day indices across several signals.
    """
    if base is None:
        base = signal.start_time
    days = days_of(signal.start_time + index * signal.sample_period, base, day_seconds)
    order = np.argsort(days, kind="stable")
    cuts = np.flatnonzero(np.diff(days[order])) + 1
    return {
        int(days[group[0]]): group.tolist()
        for group in np.split(order, cuts)
        if group.size
    }


# ---------------------------------------------------------------------------
# participation index


def participation_index(
    daily_counts: list[dict[tuple[str, str], int]],
    daily_totals: list[int],
    count_all_days: bool = False,
) -> dict[tuple[str, str], float]:
    """Average share of a day's events that each transition accounts for.

    ``daily_counts`` holds one mapping per day from transition key to the
    number of times it fired; ``daily_totals`` holds the matching day's total
    event count on the household's aggregated signal. For each transition the
    per-day share is count over total, averaged over the days the transition
    occurred in; days without it are skipped (unless ``count_all_days``,
    which averages over every day with any events instead).
    """
    if len(daily_counts) != len(daily_totals):
        raise ValueError("daily_counts and daily_totals must align day by day")
    shares: dict[tuple[str, str], list[float]] = defaultdict(list)
    active_days = 0
    for day, total in zip(daily_counts, daily_totals):
        if total == 0:
            if any(c > 0 for c in day.values()):
                raise DataConsistencyError(
                    "day has appliance transitions but zero total events"
                )
            continue
        active_days += 1
        for key, cnt in day.items():
            if cnt > 0:
                shares[key].append(cnt / total)
    if count_all_days:
        return {
            key: sum(vals) / active_days for key, vals in sorted(shares.items())
        }
    return {key: sum(vals) / len(vals) for key, vals in sorted(shares.items())}


# ---------------------------------------------------------------------------
# behavioral fingerprints


@dataclass(frozen=True)
class BehaviorSet:
    """Habits mined from training days, used to veto implausible labels.

    signature: all-or-none usage marker. Set when every active training day
      exercises every non-OFF mode; holds a transition seen on each such day,
      so its absence from a test day implies the appliance stayed off.
    overshoot_min: smallest rise-event overshoot (raw local peak above the
      settled filtered level) seen in training. Recorded only when every
      rising training event overshoots by at least the floor; 0 disables.
    min_off_gap_s: shortest observed OFF dwell between ON runs, in seconds;
      0 disables the rule.
    """

    signature: Transition | None
    overshoot_min: float
    min_off_gap_s: float


def find_signature(
    daily_transitions: list[list[Transition]],
    states: StateSet,
) -> Transition | None:
    """All-or-none usage marker: a transition whose presence implies a run-day.

    The habit holds only when every active training day exercises every
    non-OFF mode (a dishwasher always runs its full program). When it holds,
    the marker is a transition observed on every active day; among those the
    rising one with the highest magnitude band wins, which tends to be the
    most distinctive against other appliances.
    """
    active = [day for day in daily_transitions if day]
    if not active:
        return None
    all_on_modes = {s.mode for s in states.non_off}
    for day in active:
        touched = {t.from_mode for t in day} | {t.to_mode for t in day}
        if not all_on_modes <= touched:
            return None
    common = set.intersection(*({t.key for t in day} for day in active))
    if not common:
        return None
    by_key = {t.key: t for day in active for t in day}
    candidates = sorted(
        (by_key[k] for k in common),
        key=lambda t: (t.rising, t.low, t.high, t.key),
    )
    return candidates[-1]


OVERSHOOT_WINDOW = 10  # samples after an event searched for its raw peak


def overshoot_heights(
    raw: PowerSignal, post_index: np.ndarray, post_level: np.ndarray
) -> np.ndarray:
    """Per event, the raw peak in the window from its ``post_index`` on minus its
    settled ``post_level``; NaN where the event settles at the signal's end."""
    # clamping at the last sample cuts the windows at the signal's end
    window = np.minimum(post_index[:, None] + np.arange(OVERSHOOT_WINDOW), len(raw) - 1)
    heights = raw.values[window].max(axis=1) - post_level
    heights[post_index >= len(raw)] = np.nan
    return heights


def overshoot_floor(
    raw: PowerSignal,
    post_index: np.ndarray,
    post_level: np.ndarray,
    floor: float = 50.0,
) -> float:
    """Smallest consistent rise overshoot, or 0 when rises do not overshoot.

    ``post_index`` and ``post_level`` are the rising events' columns. Each
    rise's height (:func:`overshoot_heights`) compares the raw peak in a short
    window after the event with the settled filtered level; the appliance
    exhibits the habit only if every rise overshoots by at least ``floor``
    watts. Events settling at the signal's end have no window and are skipped.
    """
    heights = overshoot_heights(raw, post_index, post_level)
    heights = heights[~np.isnan(heights)]
    if not heights.size:
        return 0.0
    lowest = float(heights.min())
    return lowest if lowest >= floor else 0.0


def min_off_gap(
    signal: PowerSignal,
    index: np.ndarray,
    post_index: np.ndarray,
    into_off: np.ndarray,
    out_of_off: np.ndarray,
) -> float:
    """Shortest observed dwell in OFF between two ON runs, in seconds.

    The columns describe mode changes in time order; ``into_off`` and
    ``out_of_off`` mark those that end and start in OFF. A dwell runs from an
    into-OFF change's settled sample to the next change touching OFF, when
    that change leaves OFF.
    """
    touch = np.flatnonzero(into_off | out_of_off)
    dwell = into_off[touch[:-1]] & out_of_off[touch[1:]]
    ends, starts = touch[1:][dwell], touch[:-1][dwell]
    if not ends.size:
        return 0.0
    gaps = signal.time_at(index[ends]) - signal.time_at(post_index[starts])
    return float(gaps.min())


# ---------------------------------------------------------------------------
# the trained per-appliance model


@dataclass(frozen=True)
class ApplianceModel:
    """Everything learned about one appliance from its training signal.

    ``transitions`` holds only mode changes actually observed in training.
    """

    appliance_id: str
    states: StateSet
    transitions: tuple[Transition, ...]
    participation: dict[tuple[str, str], float] = field(default_factory=dict)
    behaviors: BehaviorSet | None = None


def train_appliance(
    appliance_id: str,
    raw: PowerSignal,
    filtered: PowerSignal,
    events: EventTable,
    states: StateSet,
    daily_totals: dict[int, int] | None = None,
    day_base: float | None = None,
    overshoot_floor_w: float = 50.0,
    count_all_days: bool = False,
) -> ApplianceModel:
    """Assemble the appliance model from its filtered signal and events.

    ``daily_totals`` maps day index to the aggregated household signal's
    event count that day; participation shares are fractions of those totals.
    Without it the appliance's own per-day counts stand in, which is only
    right when the appliance is alone on the meter. ``day_base`` anchors day
    0 for those totals and for the signature's days; it defaults to the
    filtered signal's start.
    """
    positions, transitions, which = label_training_events(events, states)
    if not transitions:
        raise DataConsistencyError("no usable mode transitions in training data")
    index = events.index[positions]
    counts = {
        day: np.bincount(which[cols], minlength=len(transitions)).tolist()
        for day, cols in day_columns(index, filtered, day_base).items()
    }
    if daily_totals is None:
        daily_totals = {day: sum(per) for day, per in counts.items()}
    days = sorted(set(daily_totals) | set(counts))
    participation = participation_index(
        [{t.key: c for t, c in zip(transitions, counts.get(d, ())) if c} for d in days],
        [daily_totals.get(d, 0) for d in days],
        count_all_days=count_all_days,
    )
    rises = positions[events.magnitude[positions] > 0]
    into_off = np.array([t.to_mode == OFF_MODE for t in transitions])[which]
    out_of_off = np.array([t.from_mode == OFF_MODE for t in transitions])[which]
    behaviors = BehaviorSet(
        signature=find_signature(
            [[t for t, c in zip(transitions, per) if c] for per in counts.values()], states
        ),
        overshoot_min=overshoot_floor(
            raw, events.post_index[rises], events.post_level[rises], floor=overshoot_floor_w
        ),
        min_off_gap_s=min_off_gap(
            filtered, index, events.post_index[positions], into_off, out_of_off
        ),
    )
    return ApplianceModel(
        appliance_id=appliance_id,
        states=states,
        transitions=transitions,
        participation=participation,
        behaviors=behaviors,
    )
