"""Event labeling on an aggregated household signal.

Each detected event gets exactly one appliance mode transition, in four
narrowing stages:

1. candidate labels by magnitude-interval containment;
2. cycle segmentation at all-OFF samples, then pruning of candidates that
   cannot take part in any walk from the all-OFF mode vector back to all-OFF;
3. behavior vetoes (all-or-none daily marker, overshoot habit, minimum off
   gap);
4. participation-index resolution of whatever ambiguity remains, day by day,
   with a final repair step that nudges choices onto a feasible walk so every
   refined cycle still closes at all-OFF.

The label space holds only the transitions observed in training, so a mode
pair never seen there cannot be chosen and needs no veto of its own.

A cycle whose columns hold one candidate each has one walk at most. Stage 2
settles all such cycles, and the closure check judges the chosen labels of
every cycle, with one batched numpy replay (``_WalkSpace.replay``). The other
cycles of stage 2, and the repair of refined cycles that do not close, search
on one engine, ``_walk``. It returns both results: per column, the rows some
closing walk takes, which stage 2 keeps, and the cheapest closing walk under a
per-option cost, which the repair assigns. Its budget still counts only
forward (mode vector, candidate) expansions, per search and per cycle; the
replay returns the count ``_walk`` would spend, so both paths agree.

Candidates are kept as one sorted tuple of row indices per event column
(``CandidateLabelMatrix.columns``), with their sizes and first rows kept as
arrays; cycles are start and end arrays (``CycleTable``). A stage never
strips a column's last remaining candidate, so a label always comes out even
for events the model explains poorly; such columns are listed in the
diagnostics.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .config import RunConfig
from .errors import ModelCoverageError
from .evaluation import PointTable
from .features import ApplianceModel, BehaviorSet, Transition, day_columns, overshoot_heights
from .filtering import filter_and_detect
from .modes import OFF_MODE
from .signals import ColumnTable, EventRecord, EventTable, PowerSignal, freeze_columns

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LabelRow:
    """One global candidate label: an appliance plus one of its transitions."""

    appliance: str
    transition: Transition


class CandidateLabelMatrix:
    """The one record of a labeling: candidate labels per event column, the
    stage that settled each column, and the diagnostics.

    ``columns[c]`` is the sorted tuple of row indices event c may still take;
    ``size[c]`` and ``first[c]``, int64 arrays the mutators keep in step, are
    its length and first row. ``settled[c]`` indexes :data:`STAGES`: the
    stage running (``stage``) when the column last went from several rows to
    one, or from one row to another; 0, containment, until then. ``cells``
    is a derived rows-by-events bool view, built afresh on each read.
    """

    def __init__(self, rows: list[LabelRow], events: EventTable, columns: list[tuple],
                 size: np.ndarray | None = None, first: np.ndarray | None = None):
        self.rows, self.events, self.columns = rows, events, columns
        if size is None:
            size = np.fromiter(map(len, columns), np.int64, len(columns))
            first = np.fromiter((col[0] for col in columns), np.int64, len(columns))
        self.size, self.first = size, first
        self.settled = np.zeros(len(columns), np.int64)
        self.stage = 0
        self.diagnostics = Diagnostics()

    @property
    def cells(self) -> np.ndarray:
        cells = np.zeros((len(self.rows), len(self.events)), dtype=bool)
        flat = [r for col in self.columns for r in col]
        cells[flat, np.repeat(np.arange(self.size.size), self.size)] = True
        return cells

    def candidates(self, col: int) -> tuple[int, ...]:
        return self.columns[col]

    def keep_only(self, col: int, keep: set[int]) -> None:
        kept = tuple(r for r in self.columns[col] if r in keep)
        if kept:  # never empty a column
            self._set(col, kept)

    def assign(self, col: int, row: int) -> None:
        """Set a column to one row outright, even one not currently set.

        Closure repair picks from the pre-resolution candidate sets, which
        the resolution pass may already have cleared from the column.
        """
        self._set(col, (row,))

    def drop(self, col: int, row: int) -> bool:
        """Remove one candidate unless it is the column's last. True if dropped."""
        current = self.columns[col]
        if len(current) > 1 and row in current:
            self._set(col, tuple(r for r in current if r != row))
            return True
        return False

    def _set(self, col: int, rows: tuple[int, ...]) -> None:
        if len(rows) == 1 and (self.size[col] > 1 or rows[0] != self.first[col]):
            self.settled[col] = self.stage
        self.columns[col] = rows
        self.size[col] = len(rows)
        self.first[col] = rows[0]


@dataclass(frozen=True)
class Cycle:
    """A contiguous run of events between all-OFF stretches of the signal."""

    start_event: int
    end_event: int  # inclusive

    @property
    def columns(self) -> range:
        return range(self.start_event, self.end_event + 1)


@dataclass(frozen=True, eq=False)
class CycleTable(ColumnTable):
    """Cycles as read-only int64 columns: cycle k spans events ``starts[k]``
    to ``ends[k]`` inclusive. The rows are :class:`Cycle`s, for outside code."""

    starts: np.ndarray
    ends: np.ndarray

    _row = Cycle

    def __post_init__(self):
        freeze_columns(self, starts=np.int64, ends=np.int64)


@dataclass
class Diagnostics:
    """What the pipeline could not fully explain, for the run report."""

    unmatched_columns: list[int] = field(default_factory=list)
    unrefined_cycles: list[tuple[int, str]] = field(default_factory=list)
    never_all_off: bool = False
    unrepaired_cycles: list[int] = field(default_factory=list)


def build_rows(models: list[ApplianceModel]) -> list[LabelRow]:
    """Global label space: every observed transition of every appliance."""
    return [
        LabelRow(model.appliance_id, tr)
        for model in sorted(models, key=lambda m: m.appliance_id)
        for tr in sorted(model.transitions, key=lambda t: t.key)
    ]


# ---------------------------------------------------------------------------
# stage 1: interval containment


def initial_labels(events: EventTable, rows: list[LabelRow]) -> CandidateLabelMatrix:
    """Mark every transition whose magnitude band contains the event.

    Intervals are signed (falling transitions carry negative bands), so
    containment is direction-aware for free. A column matching nothing gets
    the nearest band on absolute magnitude, a same-direction band if any,
    and is listed in the diagnostics. Ties go to the smaller row, so the
    rows must come in :func:`build_rows` order.
    """
    if not rows:
        raise ModelCoverageError("no appliance transitions to label against")
    keys = [(row.appliance, row.transition.key) for row in rows]
    if keys != sorted(keys):
        raise ValueError("rows must be ordered by appliance id, then transition key")
    low = np.array([row.transition.low for row in rows], dtype=np.float64)
    high = np.array([row.transition.high for row in rows], dtype=np.float64)
    mags = events.magnitude[:, None]
    # events x rows: low <= magnitude <= high in float64, the band test
    hit_events, hit_rows = np.nonzero((low <= mags) & (mags <= high))
    bounds = np.searchsorted(hit_events, np.arange(len(events) + 1))
    size = np.diff(bounds)
    unmatched = np.flatnonzero(size == 0)
    first = np.r_[hit_rows, -1][bounds[:-1]]  # -1 pads an unmatched last column
    first[unmatched] = _nearest_rows(events.magnitude[unmatched], rows)
    size[unmatched] = 1
    # single columns share one tuple per row: no Python object per event
    singles = [(r,) for r in range(len(rows))]
    columns = list(map(singles.__getitem__, first.tolist()))
    for c in np.flatnonzero(size > 1).tolist():
        columns[c] = tuple(hit_rows[bounds[c] : bounds[c + 1]].tolist())
    matrix = CandidateLabelMatrix(rows, events, columns, size, first)
    matrix.diagnostics.unmatched_columns.extend(unmatched.tolist())
    return matrix


def _nearest_rows(magnitudes: np.ndarray, rows: list[LabelRow]) -> list[int]:
    """Per magnitude, the row minimising (direction mismatch, distance from
    the band on absolute magnitude, row)."""
    trs = [row.transition for row in rows]
    lo, hi = np.sort(np.abs([[t.low, t.high] for t in trs]), axis=1).T
    m = np.abs(magnitudes)[:, None]
    distance = np.maximum(np.maximum(lo - m, m - hi), 0.0)
    mismatch = np.array([t.rising for t in trs]) != (magnitudes > 0)[:, None]
    # lexsort orders by the last key first and is stable: ties go to the smaller row
    return np.lexsort((distance, mismatch), axis=1)[:, 0].tolist()


# ---------------------------------------------------------------------------
# stage 2: cycles and walk compatibility


def all_off_threshold(
    models: list[ApplianceModel], margin: float = RunConfig.all_off_margin
) -> float:
    """Aggregate level under which every appliance can be assumed OFF."""
    return sum(m.states.off_state.high for m in models) + margin


def segment_cycles(
    filtered: PowerSignal,
    events: EventTable,
    threshold: float,
    diagnostics: Diagnostics | None = None,
) -> CycleTable:
    """Split events into cycles separated by all-OFF stretches, as a table.

    Two consecutive events belong to different cycles iff some sample
    between them (from the first event's settled sample to the second's last
    pre-event sample) sits below the all-OFF threshold.
    """
    if not events:
        return CycleTable([], [])
    off = filtered.values < threshold
    # a cycle ends at event i iff [events[i].post_index, events[i + 1].index]
    # holds an OFF sample: its first sample, or one that starts a run of OFF
    # samples; a range whose start passes its end is empty
    post, nxt = events.post_index[:-1], events.index[1:]
    run_starts = np.flatnonzero(off[1:] & ~off[:-1]) + 1
    inside = np.searchsorted(run_starts, nxt, "right") - np.searchsorted(run_starts, post, "right")
    ends = np.flatnonzero((post <= nxt) & (off[np.minimum(post, nxt)] | (inside > 0)))
    cycles = CycleTable(np.r_[0, ends + 1], np.r_[ends, len(events) - 1])
    if not off.any():
        log.warning("signal never reaches all-OFF; treating it as one cycle")
        if diagnostics is not None:
            diagnostics.never_all_off = True
    return cycles


class _WalkSpace:
    """Mode vectors of the walk searches: one integer mode code per appliance,
    appliances in id order, OFF being code 0."""

    def __init__(self, models: list[ApplianceModel], rows: list[LabelRow]):
        index = {a: i for i, a in enumerate(sorted(m.appliance_id for m in models))}
        self.all_off = (0,) * len(index)
        # per row: appliance index, from-mode code, to-mode code
        modes = {OFF_MODE: 0}
        self.steps = [
            (index[row.appliance], *(modes.setdefault(m, len(modes)) for m in row.transition.key))
            for row in rows
        ]
        self.codes = np.array(self.steps, dtype=np.int64).reshape(len(rows), 3)

    def step(self, theta: tuple, r: int) -> tuple | None:
        """The vector row ``r`` steps ``theta`` into, or None if it leaves
        another mode than the one ``theta`` holds for its appliance."""
        i, src, dst = self.steps[r]
        return theta[:i] + (dst,) + theta[i + 1 :] if theta[i] == src else None

    def replay(self, picks: np.ndarray, cycles: CycleTable) -> tuple[np.ndarray, np.ndarray]:
        """Walk all cycles at once, each column on its one row ``picks[column]``.

        Per cycle: whether the rows walk from all-OFF back to all-OFF, and
        the expansions ``_walk`` spends on the same one-row columns, which
        is every step up to and including the first inapplicable one.
        """
        starts, lengths = cycles.starts, cycles.ends + 1 - cycles.starts
        cycle = np.repeat(np.arange(starts.size), lengths)
        step = np.arange(cycle.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        app, src, dst = self.codes[picks[starts[cycle] + step]].T
        # a step applies iff it leaves the mode that the previous step of its
        # appliance in the cycle entered, or OFF for the first such step
        group = cycle * len(self.all_off) + app
        order = np.argsort(group, kind="stable")
        group, src, dst = group[order], src[order], dst[order]
        opens = np.diff(group, prepend=-1) != 0
        entered = np.where(opens, 0, np.roll(dst, 1))
        bad = np.zeros(cycle.size, dtype=bool)
        bad[order] = src != entered
        left_on = (np.diff(group, append=-1) != 0) & (dst != 0)
        bad_steps = np.flatnonzero(bad)
        bad_cycles = cycle[bad_steps]
        first = np.diff(bad_cycles, prepend=-1) != 0
        spent = lengths.copy()
        spent[bad_cycles[first]] = step[bad_steps[first]] + 1
        closes = np.ones(starts.size, dtype=bool)
        closes[bad_cycles] = False
        closes[cycle[order][left_on]] = False
        return closes, spent


def _walk(space, options, budget, cost=None):
    """Search the walks from all-OFF back to all-OFF through one cycle's columns.

    ``options[i]`` lists the rows column i may take and ``cost[i]`` their
    costs (zero without it), summed along a walk. None once the forward
    (vector, row) expansions exceed ``budget``; else, per column, the rows
    some closing walk takes, and the cheapest closing walk's rows, ties going
    to the smaller row from the last column back. Both are empty if none closes.
    """
    # per vector reached: (cost, parent vector, row) of its cheapest walk so
    # far; per column: every applicable (vector, row, next vector) step
    layers, steps = [{space.all_off: (0, None, None)}], []
    for candidates, weight in zip(options, cost or repeat(repeat(0))):
        budget -= len(layers[-1]) * len(candidates)
        if budget < 0:
            return None
        nxt, out = {}, []
        for theta, (c, _, _) in layers[-1].items():
            for r, w in zip(candidates, weight):
                th2 = space.step(theta, r)
                if th2 is not None:
                    out.append((theta, r, th2))
                    prev = nxt.get(th2)
                    if prev is None or (c + w, r) < (prev[0], prev[2]):
                        nxt[th2] = (c + w, theta, r)
        layers.append(nxt)
        steps.append(out)
    if space.all_off not in layers[-1]:
        return [set() for _ in options], []
    # backward: ``alive`` holds the vectors that can still close, ``theta`` the cheapest walk's
    alive, theta, kept, best = {space.all_off}, space.all_off, [], []
    for layer, out in zip(reversed(layers), reversed(steps)):
        keep, back = set(), set()
        for v, r, th2 in out:
            if th2 in alive:
                keep.add(r)
                back.add(v)
        kept.append(keep)
        alive = back
        _, theta, r = layer[theta]
        best.append(r)
    return kept[::-1], best[::-1]


def refine_by_compatibility(
    matrix: CandidateLabelMatrix,
    cycles: CycleTable,
    models: list[ApplianceModel],
    budget: int = RunConfig.search_budget,
) -> CandidateLabelMatrix:
    """Keep a candidate iff some full assignment of its cycle uses it.

    A full assignment picks one candidate per event such that the transition
    sequence is a walk from the all-OFF mode vector back to all-OFF, each
    step applicable in its predecessor state. Kept sets are exact
    (:func:`_walk`); a cycle whose search exceeds the budget, or that admits
    no walk at all, is left as-is and reported in the diagnostics.
    """
    matrix.stage = STAGES.index("compatibility")
    unrefined = matrix.diagnostics.unrefined_cycles
    space = _WalkSpace(models, matrix.rows)
    closes, spent = space.replay(matrix.first, cycles)
    # prefix counts of columns with several candidates; a cycle without any
    # has one walk at most, which the replay judged
    multi = np.r_[0, np.cumsum(matrix.size > 1)]
    settled = multi[cycles.ends + 1] == multi[cycles.starts]
    for ci in np.flatnonzero(~settled | ~closes | (spent > budget)).tolist():
        if settled[ci]:
            reason = "search budget exhausted" if spent[ci] > budget else "no compatible assignment"
            unrefined.append((ci, reason))
            continue
        cols = range(cycles.starts[ci], cycles.ends[ci] + 1)
        walk = _walk(space, [matrix.candidates(c) for c in cols], budget)
        if walk is None or not walk[1]:
            reason = "no compatible assignment" if walk else "search budget exhausted"
            unrefined.append((ci, reason))
            continue
        for c, keep in zip(cols, walk[0]):
            matrix.keep_only(c, keep)
    return matrix


# ---------------------------------------------------------------------------
# stage 3: behavior vetoes


def refine_by_behaviors(
    matrix: CandidateLabelMatrix,
    models: list[ApplianceModel],
    raw: PowerSignal,
    filtered: PowerSignal,
) -> CandidateLabelMatrix:
    """Veto candidates that contradict appliance habits, in rule order.

    (a) all-or-none daily marker: a day with no event inside the marker's
        band cannot involve the appliance at all;
    (b) overshoot habit, rising events only: too small a raw overshoot rules
        out an always-overshooting appliance, and an overshoot matching such
        an appliance rules out habit-free rivals;
    (c) minimum off gap: an OFF-to-ON candidate too soon after the
        appliance's last single-labeled OFF is dropped.
    No rule removes a column's last candidate.
    """
    matrix.stage = STAGES.index("behavior")
    if not (matrix.size > 1).any():
        return matrix  # every rule only drops, and never a column's last candidate
    columns, events = matrix.columns, matrix.events
    # per row, its appliance's habits: the overshoot floor, and the minimum
    # off gap where the row leaves OFF (0 disables either rule)
    by_app = {m.appliance_id: m.behaviors or BehaviorSet(None, 0.0, 0.0) for m in models}
    habits = [by_app[row.appliance] for row in matrix.rows]
    overshoot = [beh.overshoot_min for beh in habits]
    off_gap = [
        beh.min_off_gap_s if row.transition.from_mode == OFF_MODE else 0.0
        for beh, row in zip(habits, matrix.rows)
    ]

    # (a) all-or-none daily marker
    cols_by_day = day_columns(events.index, filtered)
    for app, beh in sorted(by_app.items()):
        if beh.signature is None:
            continue
        app_rows = [r for r, row in enumerate(matrix.rows) if row.appliance == app]
        marked = (beh.signature.low <= events.magnitude) & (events.magnitude <= beh.signature.high)
        for cols in cols_by_day.values():
            if marked[cols].any():
                continue
            for c in np.extract(matrix.size[cols] > 1, cols).tolist():
                for r in app_rows:
                    matrix.drop(c, r)

    # (b) overshoot habit on rising multi-labeled events; an event settling
    # at the signal's end has no raw samples after it and counts as 0 W
    rising = np.flatnonzero((events.magnitude > 0) & (matrix.size > 1)).tolist()
    heights = overshoot_heights(raw, events.post_index[rising], events.post_level[rising])
    for c, height in zip(rising, np.nan_to_num(heights, nan=0.0).tolist()):
        for r in columns[c]:  # a tuple: drop() cannot disturb the loop
            if overshoot[r] > 0.0 and height < overshoot[r]:
                matrix.drop(c, r)
        cand = columns[c]
        if any(0.0 < overshoot[r] <= height for r in cand):
            for r in cand:
                if overshoot[r] == 0.0:
                    matrix.drop(c, r)

    # (c) minimum off gap, inferred from single-labeled events only
    last_off: dict[str, float] = {}
    post_index = events.post_index.tolist()
    for c, index in enumerate(events.index.tolist()):
        rows = columns[c]
        if len(rows) > 1:
            t = filtered.time_at(index)
            for r in rows:
                seen = last_off.get(matrix.rows[r].appliance)
                if off_gap[r] > 0.0 and seen is not None and t - seen < off_gap[r]:
                    matrix.drop(c, r)
            rows = columns[c]
        if len(rows) == 1:
            row = matrix.rows[rows[0]]
            if row.transition.to_mode == OFF_MODE:
                last_off[row.appliance] = filtered.time_at(post_index[c])
    return matrix


# ---------------------------------------------------------------------------
# stage 4: participation resolution


def resolve_by_participation(
    matrix: CandidateLabelMatrix,
    models: list[ApplianceModel],
    filtered: PowerSignal,
) -> CandidateLabelMatrix:
    """Pick the candidate whose trained daily share the day best supports.

    Per day, each candidate transition's observed participation index is the
    share of the day's events that may take it, as if every ambiguous event
    went to it; each ambiguous column then keeps the candidate minimizing
    |observed - trained|. Ties prefer the larger trained index, then the
    smaller row, which orders by appliance id and transition. Events
    competing for disjoint candidate rows need no grouping: each row's count
    only ever gathers the events that may take it.
    """
    matrix.stage = STAGES.index("participation")
    multi = matrix.size > 1
    if not multi.any():
        return matrix
    trained = {(m.appliance_id, key): p for m in models for key, p in m.participation.items()}
    share = [trained.get((row.appliance, row.transition.key), 0.0) for row in matrix.rows]
    columns = matrix.columns
    for cols in day_columns(matrix.events.index, filtered).values():
        if not multi[cols].any():
            continue  # nothing to resolve on this day
        count = Counter(r for c in cols for r in columns[c])
        rank = {r: (abs(k / len(cols) - share[r]), -share[r], r) for r, k in count.items()}
        for c in cols:
            if len(columns[c]) > 1:
                matrix.keep_only(c, {min(columns[c], key=rank.__getitem__)})
    return matrix


# ---------------------------------------------------------------------------
# closure repair


def enforce_cycle_closure(
    matrix: CandidateLabelMatrix,
    cycles: CycleTable,
    models: list[ApplianceModel],
    pre_step4: list[tuple[int, ...]],
    budget: int = RunConfig.search_budget,
) -> CandidateLabelMatrix:
    """Nudge resolved labels onto a feasible walk, changing as few as possible.

    Participation picks each column independently, which can break the walk
    property stage 2 guaranteed was attainable. For every cycle stage 2
    refined (none listed in ``diagnostics.unrefined_cycles``), if the chosen
    labels do not replay from all-OFF to all-OFF, the valid assignment
    disagreeing with the fewest choices replaces them (candidates drawn from
    the pre-resolution label sets). A cycle with no valid assignment, or
    whose repair search exceeds the budget, stays as chosen and is listed in
    ``diagnostics.unrepaired_cycles``.
    """
    matrix.stage = STAGES.index("closure")
    unrefined = {ci for ci, _ in matrix.diagnostics.unrefined_cycles}
    space = _WalkSpace(models, matrix.rows)
    closes, _ = space.replay(matrix.first, cycles)
    for ci in sorted(set(np.flatnonzero(~closes).tolist()) - unrefined):
        cols = range(cycles.starts[ci], cycles.ends[ci] + 1)
        options, chosen = [pre_step4[c] for c in cols], matrix.first[cols].tolist()
        walk = _walk(space, options, budget, [[r != k for r in o] for o, k in zip(options, chosen)])
        if walk is None or not walk[1]:
            matrix.diagnostics.unrepaired_cycles.append(ci)
            continue
        for c, r in zip(cols, walk[1]):
            matrix.assign(c, r)
    return matrix


# ---------------------------------------------------------------------------
# the full pipeline


STAGES = ("containment", "compatibility", "behavior", "participation", "closure")


@dataclass(frozen=True)
class LabeledEvent:
    """One row of a :class:`LabelTable`: an event and the label it got."""

    event: EventRecord
    appliance: str
    transition: Transition
    stage: str = "containment"  # which stage pinned the label down


@dataclass(frozen=True, eq=False)
class LabelTable(ColumnTable):
    """One label per detected event, as columns.

    ``row[i]`` indexes ``rows`` and ``stage[i]`` indexes :data:`STAGES` for
    event ``events[i]``. The rows are :class:`LabeledEvent`s; ``points()``
    gives the labels as a scoring :class:`PointTable`; ``==`` compares content.
    """

    events: EventTable
    rows: tuple[LabelRow, ...]
    row: np.ndarray
    stage: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        # one column at a time, so each length is judged against the events
        lengths = {freeze_columns(self, row=np.int64), freeze_columns(self, stage=np.int64)}
        if lengths != {len(self.events)}:
            raise ValueError("row and stage must hold one entry per event")

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.row, self.stage, *self.events._columns())

    def _row(self, r: int, code: int, *event) -> LabeledEvent:
        row = self.rows[r]
        return LabeledEvent(EventRecord(*event), row.appliance, row.transition, STAGES[code])

    def points(self) -> PointTable:
        """The labels as scoring columns, one key per row, built without a
        per-event object."""
        keys = [(row.appliance, *row.transition.key) for row in self.rows]
        return PointTable(self.events.index, self.row, keys)

    def __eq__(self, other):
        if not isinstance(other, LabelTable):
            return NotImplemented
        mine, theirs = self._columns(), other._columns()
        return self.rows == other.rows and all(map(np.array_equal, mine, theirs))


def classify(
    aggregate: PowerSignal,
    models: list[ApplianceModel],
    all_off_margin: float = RunConfig.all_off_margin,
    budget: int = RunConfig.search_budget,
) -> tuple[LabelTable, Diagnostics]:
    """Label every event of the aggregate signal with one mode transition."""
    filtered, events = filter_and_detect(aggregate)
    rows = build_rows(models)
    if not events:
        return LabelTable(events, rows, [], []), Diagnostics()
    matrix = initial_labels(events, rows)
    threshold = all_off_threshold(models, all_off_margin)
    cycles = segment_cycles(filtered, events, threshold, matrix.diagnostics)
    matrix = refine_by_compatibility(matrix, cycles, models, budget)
    matrix = refine_by_behaviors(matrix, models, aggregate, filtered)
    pre_step4 = list(matrix.columns)  # of immutable tuples, so a snapshot
    matrix = resolve_by_participation(matrix, models, filtered)
    matrix = enforce_cycle_closure(matrix, cycles, models, pre_step4, budget)

    sizes = np.fromiter(map(len, matrix.columns), np.int64, len(events))
    bad = np.flatnonzero(sizes != 1)
    if bad.size:
        raise ValueError(f"column {bad[0]} holds {sizes[bad[0]]} labels, wanted 1")
    return LabelTable(events, rows, matrix.first, matrix.settled), matrix.diagnostics
