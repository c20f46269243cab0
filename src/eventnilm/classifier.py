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
on one layered engine, ``_walk``. Its budget counts forward (mode vector,
candidate) expansions, per search and per cycle; the replay returns the count
``_walk`` would spend, so both paths give the same budget verdicts. The
backward pass of stage 2 only revisits edges the forward pass already
expanded, so it is not counted.

Candidates are kept as one sorted tuple of row indices per event column
(``CandidateLabelMatrix.columns``); its rows-by-events bool ``cells`` is a
derived view. A stage never strips a column's last remaining candidate, so a
label always comes out even for events the model explains poorly; such
columns are listed in the diagnostics.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import ModelCoverageError
from .features import ApplianceModel, BehaviorSet, Transition, day_columns, overshoot_heights
from .filtering import filter_and_detect
from .modes import OFF_MODE
from .signals import EVENT_COLUMNS, EventRecord, EventTable, PowerSignal

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LabelRow:
    """One global candidate label: an appliance plus one of its transitions."""

    appliance: str
    transition: Transition


class CandidateLabelMatrix:
    """Candidate labels per event column, with stage bookkeeping.

    ``columns[c]`` is the sorted tuple of row indices event c may still take;
    every operation is a plain tuple operation. ``cells`` is a derived
    rows-by-events bool view, built afresh on each read.
    """

    def __init__(self, rows: list[LabelRow], events: EventTable, columns: list[tuple]):
        self.rows = rows
        self.events = events
        self.columns = columns

    @property
    def cells(self) -> np.ndarray:
        cells = np.zeros((len(self.rows), len(self.events)), dtype=bool)
        sizes = [len(col) for col in self.columns]
        flat = [r for col in self.columns for r in col]
        cells[flat, np.repeat(np.arange(len(sizes)), sizes)] = True
        return cells

    def candidates(self, col: int) -> tuple[int, ...]:
        return self.columns[col]

    def column_count(self, col: int) -> int:
        return len(self.columns[col])

    def keep_only(self, col: int, keep: set[int]) -> None:
        kept = tuple(r for r in self.columns[col] if r in keep)
        if kept:  # never empty a column
            self.columns[col] = kept

    def assign(self, col: int, row: int) -> None:
        """Set a column to one row outright, even one not currently set.

        Closure repair picks from the pre-resolution candidate sets, which
        the resolution pass may already have cleared from the column.
        """
        self.columns[col] = (row,)

    def drop(self, col: int, row: int) -> bool:
        """Remove one candidate unless it is the column's last. True if dropped."""
        current = self.columns[col]
        if len(current) > 1 and row in current:
            self.columns[col] = tuple(r for r in current if r != row)
            return True
        return False


@dataclass(frozen=True)
class Cycle:
    """A contiguous run of events between all-OFF stretches of the signal."""

    start_event: int
    end_event: int  # inclusive

    @property
    def columns(self) -> range:
        return range(self.start_event, self.end_event + 1)


@dataclass
class Diagnostics:
    """What the pipeline could not fully explain, for the run report."""

    unmatched_columns: list[int] = field(default_factory=list)
    unrefined_cycles: list[tuple[int, str]] = field(default_factory=list)
    never_all_off: bool = False
    unrepaired_cycles: list[int] = field(default_factory=list)


def build_rows(models: list[ApplianceModel]) -> list[LabelRow]:
    """Global label space: every observed transition of every appliance."""
    rows = []
    for model in sorted(models, key=lambda m: m.appliance_id):
        for tr in sorted(model.transitions, key=lambda t: t.key):
            rows.append(LabelRow(model.appliance_id, tr))
    return rows


# ---------------------------------------------------------------------------
# stage 1: interval containment


def initial_labels(
    events: EventTable,
    rows: list[LabelRow],
    diagnostics: Diagnostics | None = None,
) -> CandidateLabelMatrix:
    """Mark every transition whose magnitude band contains the event.

    Intervals are signed (falling transitions carry negative bands), so
    containment is direction-aware for free. A column matching nothing gets
    the nearest band on absolute magnitude, a same-direction band if any.
    """
    if not rows:
        raise ModelCoverageError("no appliance transitions to label against")
    low = np.array([row.transition.low for row in rows], dtype=np.float64)
    high = np.array([row.transition.high for row in rows], dtype=np.float64)
    mags = events.magnitude[:, None]
    # events x rows, the same float64 comparison as Transition.contains
    hit_events, hit_rows = np.nonzero((low <= mags) & (mags <= high))
    bounds = np.searchsorted(hit_events, np.arange(len(events) + 1))
    unmatched = np.flatnonzero(np.diff(bounds) == 0)
    bounds, hit_rows = bounds.tolist(), hit_rows.tolist()
    columns = [tuple(hit_rows[a:b]) for a, b in zip(bounds, bounds[1:])]
    for col, r in zip(unmatched.tolist(), _nearest_rows(events.magnitude[unmatched], rows)):
        columns[col] = (r,)
    if diagnostics is not None:
        diagnostics.unmatched_columns.extend(unmatched.tolist())
    return CandidateLabelMatrix(rows, events, columns)


def _nearest_rows(magnitudes: np.ndarray, rows: list[LabelRow]) -> list[int]:
    """Per magnitude, the row minimising (direction mismatch, distance from
    the band on absolute magnitude, appliance, transition key, row)."""
    trs = [row.transition for row in rows]
    lo, hi = np.sort(np.abs([[t.low, t.high] for t in trs]), axis=1).T
    m = np.abs(magnitudes)[:, None]
    keys = (
        _ranks([t.key for t in trs]),
        _ranks([row.appliance for row in rows]),
        np.maximum(np.maximum(lo - m, m - hi), 0.0),
        np.array([t.rising for t in trs]) != (magnitudes > 0)[:, None],
    )
    shape = (magnitudes.size, len(rows))
    # lexsort orders by the last key first and is stable: ties go to the smaller row
    return np.lexsort([np.broadcast_to(k, shape) for k in keys], axis=1)[:, 0].tolist()


def _ranks(keys: list) -> np.ndarray:
    """Each key's position among the distinct keys, in sorted order."""
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return np.array([rank[k] for k in keys])


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
) -> list[Cycle]:
    """Split events into cycles separated by all-OFF stretches.

    Two consecutive events belong to different cycles iff some sample
    between them (from the first event's settled sample to the second's last
    pre-event sample) sits below the all-OFF threshold.
    """
    if not events:
        return []
    off = filtered.values < threshold
    off_prefix = np.concatenate(([0], np.cumsum(off)))
    # a cycle ends at event i iff [events[i].post_index, events[i + 1].index]
    # holds an OFF sample; a range whose start passes its end is clipped empty
    nxt = events.index[1:]
    post = np.minimum(events.post_index[:-1], nxt + 1)
    ends = np.flatnonzero(off_prefix[nxt + 1] > off_prefix[post]).tolist()
    starts = [0] + [i + 1 for i in ends]
    cycles = [Cycle(a, b) for a, b in zip(starts, ends + [len(events) - 1])]
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

    def replay(
        self, picks: np.ndarray, starts: np.ndarray, stops: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Walk all cycles at once, each column on its one row ``picks[column]``.

        Cycle k spans columns ``starts[k]`` to ``stops[k] - 1``. Per cycle:
        whether the rows walk from all-OFF back to all-OFF, and the
        expansions ``_walk`` spends on the same one-row columns, which is
        every step up to and including the first inapplicable one.
        """
        lengths = stops - starts
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


def _walk(space, options, budget, chosen=None):
    """Forward layers of the walks from all-OFF through one cycle's columns.

    ``options[i]`` lists the row indices column i may take. Layer i maps each
    mode vector reachable after i events to (cost, parent vector, row): cost
    counts the steps that disagree with ``chosen`` (0 without it), and ties
    keep the smaller row. Every (vector, row) expansion spends one unit of
    ``budget``; the result is None once it runs out.
    """
    layers = [{space.all_off: (0, None, None)}]
    for i, candidates in enumerate(options):
        nxt: dict = {}
        for theta, (cost, _, _) in layers[-1].items():
            for r in candidates:
                budget -= 1
                if budget < 0:
                    return None
                th2 = space.step(theta, r)
                if th2 is None:
                    continue
                c2 = cost + (chosen is not None and r != chosen[i])
                prev = nxt.get(th2)
                if prev is None or (c2, r) < (prev[0], prev[2]):
                    nxt[th2] = (c2, theta, r)
        layers.append(nxt)
    return layers


def refine_by_compatibility(
    matrix: CandidateLabelMatrix,
    cycles: list[Cycle],
    models: list[ApplianceModel],
    budget: int = RunConfig.search_budget,
    diagnostics: Diagnostics | None = None,
) -> CandidateLabelMatrix:
    """Keep a candidate iff some full assignment of its cycle uses it.

    A full assignment picks one candidate per event such that the transition
    sequence is a walk from the all-OFF mode vector back to all-OFF, each
    step applicable in its predecessor state. Kept sets are computed exactly
    from the forward layers and one backward pass over them; a cycle whose
    forward search exceeds the budget, or that admits no walk at all, is
    left as-is and reported in the diagnostics.
    """
    space = _WalkSpace(models, matrix.rows)
    starts, stops = _bounds(cycles)
    closes, spent = space.replay(_first_candidates(matrix.columns), starts, stops)
    # prefix counts of columns with several candidates; a cycle without any
    # has one walk at most, which the replay judged
    multi = np.r_[0, np.cumsum(_sizes(matrix.columns) > 1)]
    settled = multi[stops] == multi[starts]
    for ci in np.flatnonzero(~settled | ~closes | (spent > budget)).tolist():
        if settled[ci]:
            reason = "search budget exhausted" if spent[ci] > budget else "no compatible assignment"
            _flag(diagnostics, ci, reason)
            continue
        cols = list(cycles[ci].columns)
        options = [matrix.candidates(c) for c in cols]
        forward = _walk(space, options, budget)
        if forward is None:
            _flag(diagnostics, ci, "search budget exhausted")
            continue
        if space.all_off not in forward[-1]:
            _flag(diagnostics, ci, "no compatible assignment")
            continue
        # backward from all-OFF: ``alive`` holds the vectors of layer i + 1
        # that can still finish the cycle; a row is kept iff it steps from a
        # reachable vector into one of them
        alive = {space.all_off}
        for i in range(len(cols) - 1, -1, -1):
            keep, back = set(), set()
            for theta in forward[i]:
                for r in options[i]:
                    if space.step(theta, r) in alive:
                        keep.add(r)
                        back.add(theta)
            matrix.keep_only(cols[i], keep)
            alive = back
    return matrix


def _bounds(cycles: list[Cycle]) -> tuple[np.ndarray, np.ndarray]:
    """Each cycle's first column and one past its last, as arrays."""
    starts = np.fromiter((c.start_event for c in cycles), np.int64, len(cycles))
    return starts, np.fromiter((c.end_event for c in cycles), np.int64, len(cycles)) + 1


def _sizes(columns: list[tuple]) -> np.ndarray:
    return np.fromiter(map(len, columns), np.int64, len(columns))


def _first_candidates(columns: list[tuple]) -> np.ndarray:
    return np.fromiter((col[0] for col in columns), np.int64, len(columns))


def _flag(diagnostics, cycle_index, reason):
    log.warning("cycle %d left unrefined: %s", cycle_index, reason)
    if diagnostics is not None:
        diagnostics.unrefined_cycles.append((cycle_index, reason))


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
    columns = matrix.columns
    if all(len(col) == 1 for col in columns):
        return matrix  # every rule only drops, and never a column's last candidate
    events = matrix.events
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
        for cols in cols_by_day.values():
            if any(beh.signature.contains(events.magnitude[c]) for c in cols):
                continue
            for c in cols:
                if len(columns[c]) > 1:
                    for r in app_rows:
                        matrix.drop(c, r)

    # (b) overshoot habit on rising multi-labeled events; an event settling
    # at the signal's end has no raw samples after it and counts as 0 W
    rising = [c for c in np.flatnonzero(events.magnitude > 0).tolist() if len(columns[c]) > 1]
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
    lexicographically smaller appliance id, transition and row. Events
    competing for disjoint candidate rows need no grouping: each row's count
    only ever gathers the events that may take it.
    """
    trained = {(m.appliance_id, key): p for m in models for key, p in m.participation.items()}
    # per row: its (appliance, transition key), which breaks ties, and its trained share
    keys = [(row.appliance, row.transition.key) for row in matrix.rows]
    share = [trained.get(key, 0.0) for key in keys]
    columns = matrix.columns
    for cols in day_columns(matrix.events.index, filtered).values():
        if all(len(columns[c]) == 1 for c in cols):
            continue  # nothing to resolve on this day
        count: dict[int, int] = {}
        for c in cols:
            for r in columns[c]:
                count[r] = count.get(r, 0) + 1
        rank = {r: (abs(k / len(cols) - share[r]), -share[r], keys[r], r) for r, k in count.items()}
        for c in cols:
            if len(columns[c]) > 1:
                matrix.keep_only(c, {min(columns[c], key=rank.__getitem__)})
    return matrix


# ---------------------------------------------------------------------------
# closure repair


def enforce_cycle_closure(
    matrix: CandidateLabelMatrix,
    cycles: list[Cycle],
    models: list[ApplianceModel],
    pre_step4: list[tuple[int, ...]],
    refined: set[int],
    budget: int = RunConfig.search_budget,
    diagnostics: Diagnostics | None = None,
) -> CandidateLabelMatrix:
    """Nudge resolved labels onto a feasible walk, changing as few as possible.

    Participation picks each column independently, which can break the walk
    property stage 2 guaranteed was attainable. For every cycle stage 2
    refined, if the chosen labels do not replay from all-OFF to all-OFF, the
    valid assignment disagreeing with the fewest choices replaces them
    (candidates drawn from the pre-resolution label sets). A cycle with no
    valid assignment, or whose repair search exceeds the budget, stays as
    chosen and is listed in ``diagnostics.unrepaired_cycles``.
    """
    space = _WalkSpace(models, matrix.rows)
    picks = _first_candidates(matrix.columns)
    closes, _ = space.replay(picks, *_bounds(cycles))
    for ci in np.flatnonzero(~closes).tolist():
        if ci not in refined:
            continue
        cols = list(cycles[ci].columns)
        chosen = picks[cols].tolist()
        layers = _walk(space, [pre_step4[c] for c in cols], budget, chosen)
        if layers is None or space.all_off not in layers[-1]:
            if diagnostics is not None:
                diagnostics.unrepaired_cycles.append(ci)
            log.warning("cycle %d: resolved labels do not close; left as chosen", ci)
            continue
        theta = space.all_off
        for i in range(len(cols), 0, -1):
            _, theta, r = layers[i][theta]
            matrix.assign(cols[i - 1], r)
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
class LabelTable:
    """One label per detected event, as columns.

    ``row[i]`` indexes ``rows`` and ``stage[i]`` indexes :data:`STAGES` for
    event ``events[i]``. ``len``, ``table[i]`` and iteration give the labels
    as :class:`LabeledEvent`s; ``==`` compares content.
    """

    events: EventTable
    rows: tuple[LabelRow, ...]
    row: np.ndarray
    stage: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        for name in ("row", "stage"):
            col = np.array(getattr(self, name), np.int64)
            if col.shape != (len(self.events),):
                raise ValueError(f"{name} must hold one entry per event")
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self):
        return len(self.events)

    def __getitem__(self, i: int) -> LabeledEvent:
        return self._labeled(self.events[i], self.row[i], self.stage[i])

    def __iter__(self):
        return map(self._labeled, self.events, self.row.tolist(), self.stage.tolist())

    def _labeled(self, event: EventRecord, r: int, code: int) -> LabeledEvent:
        row = self.rows[r]
        return LabeledEvent(event, row.appliance, row.transition, STAGES[code])

    def __eq__(self, other):
        if not isinstance(other, LabelTable):
            return NotImplemented
        mine = (self.row, self.stage, *(getattr(self.events, n) for n in EVENT_COLUMNS))
        theirs = (other.row, other.stage, *(getattr(other.events, n) for n in EVENT_COLUMNS))
        return self.rows == other.rows and all(map(np.array_equal, mine, theirs))


def _stage_codes(after_containment, after_compat, pre_step4, after_resolve, final) -> np.ndarray:
    """Per column, the index in STAGES of the stage that pinned its label down.

    The arguments are the candidate columns after each stage; no column is
    empty, and every ``final`` column holds one row.
    """
    single = [_sizes(cols) == 1 for cols in (after_containment, after_compat, pre_step4)]
    kept = (_sizes(after_resolve) == 1) & (
        _first_candidates(after_resolve) == _first_candidates(final)
    )
    return np.select([*single, kept], [0, 1, 2, 3], 4)


def classify(
    aggregate: PowerSignal,
    models: list[ApplianceModel],
    all_off_margin: float = RunConfig.all_off_margin,
    budget: int = RunConfig.search_budget,
) -> tuple[LabelTable, Diagnostics]:
    """Label every event of the aggregate signal with one mode transition."""
    diagnostics = Diagnostics()
    filtered, events = filter_and_detect(aggregate)
    rows = build_rows(models)
    if not events:
        return LabelTable(events, rows, [], []), diagnostics
    matrix = initial_labels(events, rows, diagnostics)
    threshold = all_off_threshold(models, all_off_margin)
    cycles = segment_cycles(filtered, events, threshold, diagnostics)

    # columns are immutable tuples, so a shallow list copy is a snapshot
    after_containment = list(matrix.columns)
    matrix = refine_by_compatibility(matrix, cycles, models, budget, diagnostics)
    after_compat = list(matrix.columns)
    refined = set(range(len(cycles))) - {i for i, _ in diagnostics.unrefined_cycles}
    matrix = refine_by_behaviors(matrix, models, aggregate, filtered)
    pre_step4 = list(matrix.columns)
    matrix = resolve_by_participation(matrix, models, filtered)
    after_resolve = list(matrix.columns)
    matrix = enforce_cycle_closure(
        matrix, cycles, models, pre_step4, refined, budget, diagnostics
    )

    sizes = _sizes(matrix.columns)
    bad = np.flatnonzero(sizes != 1)
    if bad.size:
        raise ValueError(f"column {bad[0]} holds {sizes[bad[0]]} labels, wanted 1")
    stage = _stage_codes(after_containment, after_compat, pre_step4, after_resolve, matrix.columns)
    return LabelTable(events, rows, _first_candidates(matrix.columns), stage), diagnostics
