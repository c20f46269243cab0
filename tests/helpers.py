"""Small builders shared across test modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eventnilm.signals import PowerSignal


def sig(values, start=0.0, period=1.0, source="test"):
    return PowerSignal(
        values=np.asarray(values, dtype=np.float64),
        start_time=start,
        sample_period=period,
        source_id=source,
    )


def cut(signal: PowerSignal, lo: int, hi: int) -> PowerSignal:
    """Slice a signal by sample index, keeping the grid consistent."""
    return PowerSignal(
        values=signal.values[lo:hi].copy(),
        start_time=signal.start_time + lo * signal.sample_period,
        sample_period=signal.sample_period,
        source_id=signal.source_id,
    )


def split_train_test(result, train_days):
    """Split a generated household at a day boundary.

    Returns (train appliances, train aggregate, test appliances,
    test aggregate, split sample index).
    """
    spd = int(round(86400.0 / result.period))
    split = train_days * spd
    n = len(result.aggregate)
    train_apps = {a: cut(s, 0, split) for a, s in result.appliances.items()}
    test_apps = {a: cut(s, split, n) for a, s in result.appliances.items()}
    return (
        train_apps,
        cut(result.aggregate, 0, split),
        test_apps,
        cut(result.aggregate, split, n),
        split,
    )


def reference_read_channel(path):
    """Line-by-line channel parser with the format's rules, for parity tests.

    Python's ``float`` reads each field, so it also takes digit underscores
    and non-ASCII digits, which ``read_channel`` rejects on purpose.
    """
    from math import isfinite

    from eventnilm.errors import ParseError

    times, watts = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 'timestamp watts'")
            try:
                t, w = float(parts[0]), float(parts[1])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric field")
            if not (isfinite(t) and isfinite(w)):
                raise ParseError(f"{path}:{lineno}: non-finite value")
            times.append(t)
            watts.append(w)
    if not times:
        raise ParseError(f"{path}: no samples")
    return np.asarray(times), np.maximum(np.asarray(watts), 0.0)


def reference_load_dataset(manifest):
    """Every channel read first, then each resampled, with all raw tables held
    to the end: the loader ``load_dataset`` must match bundle for bundle."""
    from eventnilm import dataset
    from eventnilm.errors import AlignmentError, ManifestError
    from eventnilm.signals import aggregate, resample_step_hold

    labels = dataset.parse_labels(manifest.root / manifest.labels_file)
    by_name = {name: ch for ch, name in labels.items()}
    names = list(manifest.appliances) if manifest.appliances else sorted(by_name)
    for name in names:
        if name not in by_name:
            raise ManifestError(f"appliance {name!r} not in labels file")
    raw = [
        (name, *dataset.read_channel(manifest.root / f"channel_{by_name[name]}.dat"))
        for name in names
    ]
    lo = max(float(np.min(t)) for _, t, _, _ in raw)
    hi = min(float(np.max(t)) for _, t, _, _ in raw)
    if hi < lo:
        raise AlignmentError("channels share no common time span")
    appliances, gaps = {}, {}
    for name, times, watts, _ in raw:
        appliances[name], gaps[name] = resample_step_hold(
            times, watts, manifest.period, start=lo, end=hi,
            max_gap=manifest.max_gap_s, source_id=name,
        )
    return dataset.DatasetBundle(
        appliances=appliances,
        aggregate=aggregate([appliances[name] for name in names]),
        gaps=gaps,
        clipped={name: clipped for name, _, _, clipped in raw},
        manifest=manifest,
        disorder={name: dataset.timestamp_faults(times) for name, times, _, _ in raw},
    )


def reference_ratios(values):
    """1 - min/max of each consecutive pair, set to 0 where both samples are 0."""
    a, b = values[:-1], values[1:]
    hi = np.maximum(a, b)
    with np.errstate(invalid="ignore", divide="ignore"):
        m = 1.0 - np.minimum(a, b) / hi
    m[hi == 0] = 0.0
    return m


def reference_outliers(values):
    """Outlier instances: the ratios strictly above their sample (n-1) std."""
    m = reference_ratios(values)
    sd = float(np.std(m, ddof=1)) if m.size > 1 else 0.0
    return np.nonzero(m > sd)[0]


def reference_build_filtered_signal(signal, marks):
    """Run-by-run spike flattening, one ``np.mean`` per run, for parity tests.

    Walks each maximal run of marked samples in order and averages the
    inliers after it (or, for a run ending the signal, before it) with a
    scalar scan, as the filter is specified to, then clamps
    the whole array at 0.
    """
    from eventnilm.filtering import REPLACEMENT_RUN_CAP

    values = signal.values.copy()
    n = values.size
    marked = np.zeros(n, dtype=bool)
    marked[marks] = True
    for first, last in reference_runs(marks):
        if last + 1 < n:
            stop = last + 1
            while stop < n and not marked[stop] and stop - (last + 1) < REPLACEMENT_RUN_CAP:
                stop += 1
            replacement = values[last + 1 : stop].mean()
        else:
            start = first - 1
            while start > 0 and not marked[start - 1] and first - start < REPLACEMENT_RUN_CAP:
                start -= 1
            replacement = signal.values[start:first].mean()
        values[first : last + 1] = replacement
    return PowerSignal(
        np.maximum(values, 0.0),
        start_time=signal.start_time,
        sample_period=signal.sample_period,
        source_id=signal.source_id,
    )


def reference_initial_columns(events, rows):
    """Per-event candidate rows whose band holds the magnitude, one row at a time.

    A column no band contains comes back empty; the nearest-band fallback is
    checked separately.
    """
    bands = [(row.transition.low, row.transition.high) for row in rows]
    return [tuple(r for r, (lo, hi) in enumerate(bands) if lo <= e.magnitude <= hi) for e in events]


def reference_nearest_keys(rows, magnitude):
    """Every row's fallback key for a magnitude no band contains, smallest
    first: (direction mismatch, distance from the band on absolute
    magnitude, appliance, transition key, row)."""

    def distance(tr, a):
        lo, hi = sorted((abs(tr.low), abs(tr.high)))
        if a < lo:
            return lo - a
        if a > hi:
            return a - hi
        return 0.0

    return sorted(
        (
            row.transition.rising != (magnitude > 0),
            distance(row.transition, abs(magnitude)),
            row.appliance,
            row.transition.key,
            r,
        )
        for r, row in enumerate(rows)
    )


def state(mode, lo, hi):
    from eventnilm.modes import State

    return State(mode, low=float(lo), high=float(hi), centroid=(lo + hi) / 2.0)


def ev(index, pre, post, post_index=None):
    from eventnilm.signals import EventRecord

    return EventRecord(
        index=index,
        magnitude=float(post - pre),
        pre_level=float(pre),
        post_level=float(post),
        post_index=index + 2 if post_index is None else post_index,
    )


def two_mode_model(
    app,
    lo,
    hi,
    participation=None,
    signature=None,
    overshoot_min=0.0,
    min_off_gap_s=0.0,
):
    """An appliance with one running mode whose band is [lo, hi] watts."""
    from eventnilm.features import ApplianceModel, BehaviorSet, Transition
    from eventnilm.modes import OFF_MODE, State, StateSet

    states = StateSet(
        states=(State(OFF_MODE, 0.0, 0.0, 0.0), state("on1", lo, hi))
    )
    rise = Transition(OFF_MODE, "on1", float(lo), float(hi))
    fall = Transition("on1", OFF_MODE, -float(hi), -float(lo))
    behaviors = BehaviorSet(
        signature=signature,
        overshoot_min=overshoot_min,
        min_off_gap_s=min_off_gap_s,
    )
    return ApplianceModel(
        appliance_id=app,
        states=states,
        transitions=(rise, fall),
        participation=dict(participation or {}),
        behaviors=behaviors,
    )


def enumerate_surviving(matrix, cycle, models):
    """Brute force over all full assignments; exact but exponential."""
    import itertools

    from eventnilm.modes import OFF_MODE

    apps = sorted(m.appliance_id for m in models)
    cols = list(cycle.columns)
    kept = [set() for _ in cols]
    for assignment in itertools.product(*(matrix.candidates(c) for c in cols)):
        modes = {a: OFF_MODE for a in apps}
        ok = True
        for r in assignment:
            row = matrix.rows[r]
            if modes[row.appliance] != row.transition.from_mode:
                ok = False
                break
            modes[row.appliance] = row.transition.to_mode
        if ok and all(m == OFF_MODE for m in modes.values()):
            for i, r in enumerate(assignment):
                kept[i].add(r)
    return kept


def random_instance(rng):
    """A household of overlapping two-mode appliances plus a valid walk."""
    n_apps = int(rng.integers(1, 4))
    bases = [500.0, 540.0, 1000.0][:n_apps]
    models = [
        two_mode_model(f"app{i}", base - 60.0, base + 60.0)
        for i, base in enumerate(bases)
    ]
    events = []
    on = set()
    level = 0.0
    idx = 0
    while len(events) < 6:
        choices = []
        if len(on) < n_apps:
            choices.append("rise")
        if on:
            choices.append("fall")
        move = choices[int(rng.integers(0, len(choices)))]
        if move == "rise":
            i = int(rng.choice(sorted(set(range(n_apps)) - on)))
            mag = float(rng.uniform(bases[i] - 60.0, bases[i] + 60.0))
            on.add(i)
        else:
            i = int(rng.choice(sorted(on)))
            mag = -float(rng.uniform(bases[i] - 60.0, bases[i] + 60.0))
            on.discard(i)
        events.append(ev(idx, level, max(0.0, level + mag)))
        level = max(0.0, level + mag)
        idx += 10
        if not on and len(events) >= 2 and rng.uniform() < 0.5:
            break
    # close any dangling runs
    for i in sorted(on):
        mag = float(rng.uniform(bases[i] - 60.0, bases[i] + 60.0))
        events.append(ev(idx, level, max(0.0, level - mag)))
        level = max(0.0, level - mag)
        idx += 10
    return models, events


def reference_runs(indices):
    """Maximal runs of consecutive sorted integers, as inclusive [first, last] pairs."""
    runs = []
    for i in indices.tolist():
        if runs and runs[-1][1] == i - 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return runs


def reference_detect_events(filtered):
    """Run-by-run event construction from numpy scalars, for parity tests."""
    from eventnilm.signals import EventRecord

    values = filtered.values
    n = values.size
    events = []
    for first, last in reference_runs(reference_outliers(values)):
        pre_idx = first
        post_idx = min(last + 2, n - 1)
        pre = float(values[pre_idx])
        post = float(values[post_idx])
        if post == pre:
            continue
        events.append(
            EventRecord(
                index=pre_idx,
                magnitude=post - pre,
                pre_level=pre,
                post_level=post,
                post_index=post_idx,
            )
        )
    return events


def reference_segment_cycles(filtered, events, threshold):
    """Pairwise cycle cuts, one prefix-sum lookup per adjacent event pair."""
    from eventnilm.classifier import Cycle

    if not events:
        return []
    off_prefix = np.concatenate(([0], np.cumsum(filtered.values < threshold)))

    def any_off(a, b):
        return a <= b and off_prefix[b + 1] - off_prefix[a] > 0

    cycles = []
    start = 0
    for i in range(len(events) - 1):
        if any_off(events[i].post_index, events[i + 1].index):
            cycles.append(Cycle(start, i))
            start = i + 1
    cycles.append(Cycle(start, len(events) - 1))
    return cycles


def reference_day_columns(events, signal, base=None, day_seconds=86400.0):
    """Event positions grouped by ``int((time - base) // day_seconds)``, one at a time."""
    if base is None:
        base = signal.start_time
    by_day = {}
    for pos, e in enumerate(events):
        by_day.setdefault(int((signal.time_at(e.index) - base) // day_seconds), []).append(pos)
    return dict(sorted(by_day.items()))


def reference_nearest(states, watts):
    """Scalar nearest state: distance 0 inside, then the smaller centroid, then order."""

    def distance(s):
        if watts < s.low:
            return s.low - watts
        if watts > s.high:
            return watts - s.high
        return 0.0

    return min(states.states, key=lambda s: (distance(s), s.centroid))


def reference_label_training_events(events, states):
    """Two scalar nearest-state lookups per event, one new Transition each."""
    from eventnilm.features import Transition, transition_interval

    pairs = []
    for e in events:
        src = reference_nearest(states, e.pre_level)
        dst = reference_nearest(states, e.post_level)
        if src.mode == dst.mode:
            continue
        pairs.append((e, Transition(src.mode, dst.mode, *transition_interval(src, dst))))
    return pairs


def reference_overshoot_height(raw, post_index, post_level):
    """One event's raw peak in the window from ``post_index`` on, minus its
    ``post_level``, from a slice; None when the event settles at the end."""
    from eventnilm.features import OVERSHOOT_WINDOW

    b = min(len(raw), post_index + OVERSHOOT_WINDOW)
    if post_index >= b:
        return None
    return float(np.max(raw.values[post_index:b])) - post_level


def reference_overshoot_floor(raw, labeled, floor=50.0):
    """``overshoot_floor`` over (event, transition) pairs, one window per rising event."""
    heights = [
        reference_overshoot_height(raw, e.post_index, e.post_level)
        for e, _ in labeled
        if e.magnitude > 0
    ]
    gaps = [h for h in heights if h is not None]
    if not gaps:
        return 0.0
    lowest = min(gaps)
    return lowest if lowest >= floor else 0.0


def reference_min_off_gap(labeled, signal):
    """``min_off_gap`` as a walk over (event, transition) pairs in index order,
    remembering when OFF was last entered."""
    from eventnilm.modes import OFF_MODE

    gaps = []
    enter_off_at = None
    for e, tr in sorted(labeled, key=lambda p: p[0].index):
        if tr.to_mode == OFF_MODE:
            enter_off_at = signal.time_at(e.post_index)
        elif tr.from_mode == OFF_MODE and enter_off_at is not None:
            gaps.append(signal.time_at(e.index) - enter_off_at)
            enter_off_at = None
    return min(gaps) if gaps else 0.0


def count_table(daily_counts):
    """``(transitions, counts)`` for per-day mappings from transition key to
    count: zero-band transitions in key order, and one row per day."""
    from eventnilm.features import Transition

    keys = sorted({k for day in daily_counts for k in day})
    counts = np.array([[day.get(k, 0) for k in keys] for day in daily_counts], dtype=np.int64)
    return (
        tuple(Transition(*k, 0.0, 0.0) for k in keys),
        counts.reshape(len(daily_counts), len(keys)),
    )


def reference_participation_index(daily_counts, daily_totals, count_all_days=False):
    """``participation_index`` from one key-to-count mapping and one total per
    day: a list of shares per key, added left to right (Python 3.12's ``sum``
    would compensate). A day without a total is skipped, whatever it counts."""
    from functools import reduce
    from operator import add

    shares = {}
    active_days = 0
    for day, total in zip(daily_counts, daily_totals):
        if total == 0:
            continue
        active_days += 1
        for key, cnt in day.items():
            if cnt > 0:
                shares.setdefault(key, []).append(cnt / total)
    return {
        key: reduce(add, vals) / (active_days if count_all_days else len(vals))
        for key, vals in sorted(shares.items())
    }


def reference_find_signature(daily_transitions, states):
    """``find_signature`` from one transition list per day, with sets."""
    active = [day for day in daily_transitions if day]
    if not active:
        return None
    all_on_modes = {s.mode for s in states.non_off}
    for day in active:
        if not all_on_modes <= {t.from_mode for t in day} | {t.to_mode for t in day}:
            return None
    common = set.intersection(*({t.key for t in day} for day in active))
    by_key = {t.key: t for day in active for t in day}
    candidates = sorted(
        (by_key[k] for k in common), key=lambda t: (t.rising, t.low, t.high, t.key)
    )
    return candidates[-1] if candidates else None


def reference_train_appliance(
    appliance_id, raw, filtered, events, states, daily_totals=None, day_base=None,
    overshoot_floor_w=50.0, count_all_days=False,
):
    """``train_appliance`` from one (event, transition) pair per mode change:
    one transition list per day, a ``Counter`` of keys per day, and the
    per-event references above. Signature and participation share the days
    counted from ``day_base``."""
    from collections import Counter

    from eventnilm.errors import DataConsistencyError
    from eventnilm.features import ApplianceModel, BehaviorSet

    labeled = reference_label_training_events(events, states)
    if not labeled:
        raise DataConsistencyError("no usable mode transitions in training data")
    by_day = {
        day: [labeled[pos][1] for pos in positions]
        for day, positions in reference_day_columns(
            [e for e, _ in labeled], filtered, day_base
        ).items()
    }
    if daily_totals is None:
        daily_totals = {day: len(trs) for day, trs in by_day.items()}
    days = sorted(set(daily_totals) | set(by_day))
    participation = reference_participation_index(
        [dict(Counter(t.key for t in by_day.get(d, []))) for d in days],
        [daily_totals.get(d, 0) for d in days],
        count_all_days=count_all_days,
    )
    behaviors = BehaviorSet(
        signature=reference_find_signature(list(by_day.values()), states),
        overshoot_min=reference_overshoot_floor(raw, labeled, floor=overshoot_floor_w),
        min_off_gap_s=reference_min_off_gap(labeled, filtered),
    )
    observed = {}
    for _, tr in labeled:
        observed.setdefault(tr.key, tr)
    return ApplianceModel(
        appliance_id=appliance_id,
        states=states,
        transitions=tuple(observed[k] for k in sorted(observed)),
        participation=participation,
        behaviors=behaviors,
    )


# Stages 2-4 and the closure repair as per-cycle, per-column loops. Stage 2
# walks every cycle, single-candidate or not, and the closure check replays
# every refined cycle through ``reference_walk``.


class ReferenceWalkSpace:
    """Mode vectors as tuples of mode names, one per appliance in id order."""

    def __init__(self, models, rows):
        from eventnilm.modes import OFF_MODE

        self.apps = sorted(m.appliance_id for m in models)
        self.index = {a: i for i, a in enumerate(self.apps)}
        self.all_off = tuple(OFF_MODE for _ in self.apps)
        self.rows = rows

    def applicable(self, theta, r):
        row = self.rows[r]
        return theta[self.index[row.appliance]] == row.transition.from_mode

    def apply(self, theta, r):
        row = self.rows[r]
        i = self.index[row.appliance]
        return theta[:i] + (row.transition.to_mode,) + theta[i + 1 :]


def reference_walk(space, options, budget, chosen=None):
    """``classifier._walk`` on a :class:`ReferenceWalkSpace`: layers mapping
    each reachable vector to (cost, parent vector, row), None past ``budget``."""
    layers = [{space.all_off: (0, None, None)}]
    for i, candidates in enumerate(options):
        nxt = {}
        for theta, (cost, _, _) in layers[-1].items():
            for r in candidates:
                budget -= 1
                if budget < 0:
                    return None
                if not space.applicable(theta, r):
                    continue
                th2 = space.apply(theta, r)
                c2 = cost + (chosen is not None and r != chosen[i])
                prev = nxt.get(th2)
                if prev is None or (c2, r) < (prev[0], prev[2]):
                    nxt[th2] = (c2, theta, r)
        layers.append(nxt)
    return layers


def reference_refine_by_compatibility(matrix, cycles, models, budget, diagnostics):
    space = ReferenceWalkSpace(models, matrix.rows)
    for ci, cycle in enumerate(cycles):
        cols = list(cycle.columns)
        options = [matrix.candidates(c) for c in cols]
        forward = reference_walk(space, options, budget)
        if forward is None:
            diagnostics.unrefined_cycles.append((ci, "search budget exhausted"))
            continue
        if space.all_off not in forward[-1]:
            diagnostics.unrefined_cycles.append((ci, "no compatible assignment"))
            continue
        alive = {space.all_off}
        for i in range(len(cols) - 1, -1, -1):
            keep, back = set(), set()
            for theta in forward[i]:
                for r in options[i]:
                    if space.applicable(theta, r) and space.apply(theta, r) in alive:
                        keep.add(r)
                        back.add(theta)
            matrix.keep_only(cols[i], keep)
            alive = back
    return matrix


def reference_refine_by_behaviors(matrix, models, raw, filtered):
    from eventnilm.modes import OFF_MODE

    by_app = {m.appliance_id: m for m in models}
    cols_by_day = reference_day_columns(matrix.events, filtered)
    for model in sorted(models, key=lambda m: m.appliance_id):
        beh = model.behaviors
        if beh is None or beh.signature is None:
            continue
        app_rows = [r for r, row in enumerate(matrix.rows) if row.appliance == model.appliance_id]
        mark = beh.signature
        for cols in cols_by_day.values():
            if any(mark.low <= matrix.events[c].magnitude <= mark.high for c in cols):
                continue
            for c in cols:
                for r in app_rows:
                    matrix.drop(c, r)
    overshoot_of = {
        m.appliance_id: (m.behaviors.overshoot_min if m.behaviors else 0.0) for m in models
    }
    for c, e in enumerate(matrix.events):
        if e.magnitude <= 0 or len(matrix.candidates(c)) < 2:
            continue
        height = reference_overshoot_height(raw, e.post_index, e.post_level)
        if height is None:
            height = 0.0
        for r in matrix.candidates(c):
            need = overshoot_of[matrix.rows[r].appliance]
            if need > 0.0 and height < need:
                matrix.drop(c, r)
        cand = matrix.candidates(c)
        if any(0.0 < overshoot_of[matrix.rows[r].appliance] <= height for r in cand):
            for r in cand:
                if overshoot_of[matrix.rows[r].appliance] == 0.0:
                    matrix.drop(c, r)
    last_off = {}
    for c, e in enumerate(matrix.events):
        t = filtered.time_at(e.index)
        for r in matrix.candidates(c):
            row = matrix.rows[r]
            beh = by_app[row.appliance].behaviors
            if beh is None or beh.min_off_gap_s <= 0.0:
                continue
            if row.transition.from_mode != OFF_MODE:
                continue
            seen = last_off.get(row.appliance)
            if seen is not None and t - seen < beh.min_off_gap_s:
                matrix.drop(c, r)
        rows = matrix.candidates(c)
        if len(rows) == 1:
            row = matrix.rows[rows[0]]
            if row.transition.to_mode == OFF_MODE:
                last_off[row.appliance] = filtered.time_at(e.post_index)
    return matrix


def reference_resolve_by_participation(matrix, models, filtered):
    trained = {(m.appliance_id, key): p for m in models for key, p in m.participation.items()}
    for cols in reference_day_columns(matrix.events, filtered).values():
        count = {}
        for c in cols:
            for r in matrix.candidates(c):
                count[r] = count.get(r, 0) + 1
        for c in cols:
            rows = matrix.candidates(c)
            if len(rows) == 1:
                continue
            scored = []
            for r in rows:
                row = matrix.rows[r]
                p = trained.get((row.appliance, row.transition.key), 0.0)
                observed = count[r] / len(cols)
                scored.append((abs(observed - p), -p, row.appliance, row.transition.key, r))
            matrix.keep_only(c, {min(scored)[4]})
    return matrix


def reference_enforce_cycle_closure(
    matrix, cycles, models, pre_step4, refined, budget, diagnostics
):
    space = ReferenceWalkSpace(models, matrix.rows)
    for ci, cycle in enumerate(cycles):
        if ci not in refined:
            continue
        cols = list(cycle.columns)
        chosen = [matrix.candidates(c)[0] for c in cols]
        replay = reference_walk(space, [[r] for r in chosen], len(cols))
        if space.all_off in replay[-1]:
            continue
        layers = reference_walk(space, [pre_step4[c] for c in cols], budget, chosen)
        if layers is None or space.all_off not in layers[-1]:
            diagnostics.unrepaired_cycles.append(ci)
            continue
        theta = space.all_off
        for i in range(len(cols), 0, -1):
            _, theta, r = layers[i][theta]
            matrix.assign(cols[i - 1], r)
    return matrix


def reference_lw_cluster(samples, k):
    """Greedy Ward agglomeration with a lazy-deletion heap of adjacent-pair
    costs, one merge at a time, for parity tests of ``lw_cluster``."""
    import heapq

    from eventnilm.errors import InsufficientDataError
    from eventnilm.modes import Cluster, _cost

    data = np.sort(np.asarray(samples, dtype=np.float64))
    n = data.size
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k:
        raise InsufficientDataError(f"cannot form {k} clusters from {n} samples")

    values, counts = np.unique(data, return_counts=True)
    if values.size < k:
        values, counts = data, np.ones(n, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)))  # value i -> data slice

    # Cluster i spans values i .. right[i] - 1; only neighbours can merge, so
    # a lazy-deletion heap over adjacent pairs suffices. A merge bumps both
    # versions, staling every pending entry of either cluster.
    m = values.size
    size = counts.astype(np.float64).tolist()
    total = (values * counts).tolist()  # member sums, for exact weighted centroids
    left = list(range(-1, m - 1))  # neighbour links; -1 / m = none
    right = list(range(1, m + 1))
    version = [0] * m

    def pair_entry(i, j):
        ci, cj = total[i] / size[i], total[j] / size[j]
        return (_cost(size[i], ci, size[j], cj), ci, cj, i, j, version[i], version[j])

    heap = [pair_entry(i, i + 1) for i in range(m - 1)]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    for _ in range(m - k):
        while True:
            _, _, _, i, j, vi, vj = pop(heap)
            if version[i] == vi and version[j] == vj:
                break
        # merge j into i (i is the lower neighbour)
        size[i] += size[j]
        total[i] += total[j]
        version[i] += 1
        version[j] += 1
        r = right[i] = right[j]
        if r < m:
            left[r] = i
            push(heap, pair_entry(i, r))
        if left[i] >= 0:
            push(heap, pair_entry(left[i], i))

    out, i = [], 0
    while i < m:
        out.append(Cluster.of(data[starts[i] : starts[right[i]]]))
        i = right[i]
    out.sort(key=lambda c: c.centroid)
    return out


def all_transitions(states):
    """Every ordered pair of distinct modes with its magnitude band."""
    from eventnilm.features import Transition, transition_interval

    out = []
    for a in states.states:
        for b in states.states:
            if a.mode == b.mode:
                continue
            lo, hi = transition_interval(a, b)
            out.append(Transition(a.mode, b.mode, lo, hi))
    return out


def reference_write_dataset(root, result, train_days, test_days, start_timestamp=1600000000.0):
    """``write_dataset`` formatting one line at a time, for byte-equality tests."""
    from pathlib import Path

    from eventnilm.model_io import format_number

    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    names = sorted(result.appliances)
    lines = [f"{i + 1} {name}" for i, name in enumerate(names)]
    (root / "labels.dat").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for i, name in enumerate(names):
        sig = result.appliances[name]
        with open(root / f"channel_{i + 1}.dat", "w", encoding="utf-8") as fh:
            for j, v in enumerate(sig.values):
                t = start_timestamp + j * sig.sample_period
                fh.write(f"{format_number(t)} {format_number(v)}\n")
    (root / "ground_truth.tsv").write_text(reference_ground_truth_tsv(result), encoding="utf-8")
    (root / "manifest.cfg").write_text(
        "labels = labels.dat\n"
        f"period = {format_number(result.period)}\n"
        f"train_days = {train_days[0]}-{train_days[1]}\n"
        f"test_days = {test_days[0]}-{test_days[1]}\n"
        f"appliances = {','.join(names)}\n",
        encoding="utf-8",
    )


def reference_ground_truth_tsv(result):
    """``ground_truth.tsv`` of ``write_dataset``, formatted one truth event at a time."""
    from eventnilm.model_io import format_number

    lines = ["index\tappliance\tfrom_mode\tto_mode\tmagnitude\n"]
    for t in truth_events(result):
        lines.append(f"{t.index}\t{t.appliance}\t{t.from_mode}\t{t.to_mode}")
        lines.append(f"\t{format_number(t.magnitude)}\n")
    return "".join(lines)


def table(records):
    """An ``EventTable`` whose rows are the given ``EventRecord``s, in order."""
    from eventnilm.signals import EventTable

    records = list(records)
    names = ("index", "magnitude", "pre_level", "post_level", "post_index")
    return EventTable(*([getattr(r, name) for r in records] for name in names))


def cycle_table(cycles):
    """A ``CycleTable`` as it is; else one whose rows are the given ``Cycle``s."""
    from eventnilm.classifier import CycleTable

    if isinstance(cycles, CycleTable):
        return cycles
    bounds = np.array([(c.start_event, c.end_event) for c in cycles], np.int64)
    return CycleTable(*bounds.reshape(-1, 2).T)


@dataclass(frozen=True)
class GroundTruthEvent:
    """One mode switch of a generated household: index is the last sample at
    the old level."""

    index: int
    appliance: str
    from_mode: str
    to_mode: str
    magnitude: float


def truth_events(result):
    """A ``SynthResult``'s truth columns as ``GroundTruthEvent`` rows."""
    keys = map(result.truth_keys.__getitem__, result.truth_code.tolist())
    return tuple(map(GroundTruthEvent, result.truth_index.tolist(), *zip(*keys)))


def evaluate_points(predicted, truth, tolerance):
    """Per-appliance confusion counts and their macro F-measure."""
    from eventnilm.evaluation import macro_average_f, match_events

    counts = match_events(predicted, truth, tolerance)
    return counts, macro_average_f(counts)


def assert_events_equal(events, want):
    """An ``EventTable`` against reference ``EventRecord``s: the rows, by
    iteration and by index, and every column bit for bit."""
    rows = list(events)
    assert rows == want
    assert [events[i] for i in range(-len(want), 0)] == want
    for name in ("index", "magnitude", "pre_level", "post_level", "post_index"):
        column = getattr(events, name)
        assert not column.flags.writeable
        ref = np.array([getattr(e, name) for e in want], dtype=column.dtype)
        assert column.shape == ref.shape and column.tobytes() == ref.tobytes(), name


def reference_filter_and_detect(signal):
    """Two full outlier passes, none of them the library's: the event pass
    recomputes every ratio of the filtered signal."""
    filtered = reference_build_filtered_signal(signal, reference_outliers(signal.values) + 1)
    return filtered, reference_detect_events(filtered)


def reference_build_ground_truth(appliances, models):
    """Per-event labels through ``label_training_events``'s rule, one
    ``LabelPoint`` per event, then one sort on (index, appliance)."""
    from eventnilm.evaluation import LabelPoint

    by_id = {m.appliance_id: m for m in models}
    points = []
    for name in sorted(appliances):
        model = by_id.get(name)
        if model is None or not model.transitions:
            continue
        _, events = reference_filter_and_detect(appliances[name])
        for e, tr in reference_label_training_events(events, model.states):
            points.append(LabelPoint(e.index, name, tr.from_mode, tr.to_mode))
    points.sort(key=lambda p: (p.index, p.appliance))
    return points


def reference_match_events(predicted, truth, tolerance=1):
    """Greedy matching over ``LabelPoint`` lists, with a used flag per truth."""
    from collections import defaultdict

    from eventnilm.evaluation import ConfusionCounts

    preds_by_key = defaultdict(list)
    for p in sorted(predicted, key=lambda e: e.index):
        preds_by_key[p.key].append(p)
    truths_by_key = defaultdict(list)
    for t in sorted(truth, key=lambda e: e.index):
        truths_by_key[t.key].append(t)
    tp, fp, fn = defaultdict(int), defaultdict(int), defaultdict(int)
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
    return {
        a: ConfusionCounts(tp[a], fp[a], fn[a], total_slots - tp[a] - fp[a] - fn[a])
        for a in sorted(set(tp) | set(fp) | set(fn))
    }


def reference_filter_table(filtered):
    """``eventnilm filter``'s output text, formatted one sample at a time."""
    from eventnilm.model_io import format_number

    lines = [
        f"{format_number(filtered.time_at(i))}\t{format_number(filtered.values[i])}"
        for i in range(len(filtered))
    ]
    return "time\tfiltered\n" + "\n".join(lines) + "\n"


def reference_signal_tsv(raw, filtered):
    """``signal.tsv`` of ``write_plot_data``, formatted one sample at a time."""
    from eventnilm.model_io import format_number

    lines = ["time\traw\tfiltered"]
    for i in range(len(raw)):
        lines.append(
            f"{format_number(raw.time_at(i))}\t{format_number(raw.values[i])}"
            f"\t{format_number(filtered.values[i])}"
        )
    return "\n".join(lines) + "\n"


def reference_events_table(signal, events):
    """``format_events_table``'s text, formatted one event at a time."""
    from eventnilm.model_io import format_number

    lines = ["index\ttime\tmagnitude\tpre_level\tpost_level"]
    for e in events:
        lines.append(
            f"{e.index}\t{format_number(signal.time_at(e.index))}"
            f"\t{format_number(e.magnitude)}"
            f"\t{format_number(e.pre_level)}\t{format_number(e.post_level)}"
        )
    return "\n".join(lines) + "\n"


def reference_cycles_tsv(raw, events, cycles):
    """``cycles.tsv`` of ``write_plot_data``, formatted one cycle at a time."""
    from eventnilm.model_io import format_number

    lines = ["start_event\tend_event\tstart_time\tend_time"]
    for c in cycles:
        t0 = raw.time_at(int(events.index[c.start_event]))
        t1 = raw.time_at(int(events.post_index[c.end_event]))
        lines.append(f"{c.start_event}\t{c.end_event}\t{format_number(t0)}\t{format_number(t1)}")
    return "\n".join(lines) + "\n"


def reference_modes_tsv(states):
    """``eventnilm extract-modes``' output text, formatted one state at a time."""
    from eventnilm.model_io import format_number

    lines = ["mode\tlow\thigh\tcentroid\tsize"]
    for s in states.states:
        lines.append(
            f"{s.mode}\t{format_number(s.low)}\t{format_number(s.high)}"
            f"\t{format_number(s.centroid)}\t{s.size}"
        )
    return "\n".join(lines) + "\n"


def table_numbers(rng, n):
    """``n`` numbers for a table cell parity test: signed zeros, whole numbers
    above 2**53, other whole numbers and non-whole ones, in random order."""
    pool = [-0.0, 0.0, 2.0**60, -(2.0**55), 2.0**53 + 2.0, 0.1, -2.5, 1e-7, 1e300]
    pool += rng.integers(-5000, 5000, 8).tolist() + rng.normal(0.0, 1e3, 8).tolist()
    return rng.choice(np.array(pool, dtype=np.float64), n)


def reference_event_report(labeled, signal):
    """``format_event_report``'s text, formatted one labeled event at a time."""
    from eventnilm.model_io import format_number

    lines = [
        "# event report 1",
        "timestamp\tindex\tmagnitude\tappliance\tfrom_mode\tto_mode\tstage",
    ]
    for item in labeled:
        ev = item.event
        lines.append(
            "\t".join(
                (
                    format_number(signal.time_at(ev.index)),
                    str(ev.index),
                    format_number(ev.magnitude),
                    item.appliance,
                    item.transition.from_mode,
                    item.transition.to_mode,
                    item.stage,
                )
            )
        )
    return "\n".join(lines) + "\n"


def reference_stage(after_containment, after_compat, pre_step4, after_resolve, final, col):
    """The stage that pinned column ``col``'s label down, by the per-event chain."""
    if len(after_containment[col]) == 1:
        return "containment"
    if len(after_compat[col]) == 1:
        return "compatibility"
    if len(pre_step4[col]) == 1:
        return "behavior"
    if after_resolve[col] == final[col]:
        return "participation"
    return "closure"


def reference_labeled_events(events, rows, snapshots):
    """``classify``'s labels as one ``LabeledEvent`` per event, from the
    candidate columns after each of its five stages."""
    from eventnilm.classifier import LabeledEvent

    final = snapshots[-1]
    out = []
    for col, (e, cands) in enumerate(zip(events, final)):
        if len(cands) != 1:
            raise ValueError(f"column {col} holds {len(cands)} labels, wanted 1")
        row = rows[cands[0]]
        stage = reference_stage(*snapshots, col)
        out.append(LabeledEvent(e, row.appliance, row.transition, stage))
    return out


def reference_format_numbers(values):
    """``format_numbers`` one element at a time, as it was before it formatted
    each distinct value once."""
    return [str(int(x)) if x.is_integer() else repr(x) for x in values.tolist()]


def reference_channel_text(signal, start_timestamp=1600000000.0):
    """A channel file's text as ``write_dataset`` built it before it joined
    pre-formatted cells: one ``" ".join`` per line, then ``"\n".join``."""
    times = start_timestamp + np.arange(len(signal)) * signal.sample_period
    times = reference_format_numbers(times)
    return "\n".join(map(" ".join, zip(times, reference_format_numbers(signal.values)))) + "\n"


def reference_resample_step_hold(times, values, period, start=None, end=None, max_gap=None):
    """``resample_step_hold`` with one ``np.searchsorted`` for every grid
    instant, as it was before on-grid channels skipped the search: the
    resampled values and the (start, end) of each reported gap."""
    from eventnilm.signals import _GRID_EPS, gap_threshold

    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(times, kind="stable")
    times, values = times[order], values[order]
    lo = times[0] if start is None else start
    hi = times[-1] if end is None else end
    n = int(np.floor((hi - lo) / period + _GRID_EPS)) + 1
    grid = lo + np.arange(n) * period
    src = np.searchsorted(times, grid + _GRID_EPS, side="right") - 1
    limit = gap_threshold(period) if max_gap is None else max_gap
    gaps = [
        (times[i], times[i + 1])
        for i in np.nonzero(np.diff(times) > limit)[0]
        if times[i] <= hi and times[i + 1] >= lo
    ]
    return values[src], gaps


def _reference_sample_dwell(rng, spec, period):
    from eventnilm.synth import MIN_DWELL_SAMPLES

    sec = rng.uniform(spec.dwell_s[0], spec.dwell_s[1])
    return max(MIN_DWELL_SAMPLES, int(round(sec / period)))


def _reference_clear_of_registry(switches, registry):
    from eventnilm.synth import EVENT_GAP_SAMPLES

    for s in switches:
        for g in range(s - EVENT_GAP_SAMPLES + 1, s + EVENT_GAP_SAMPLES):
            if g in registry:
                return False
    return True


def _reference_schedule_day(rng, spec, period, day_start, day_end, registry):
    """One day's runs as ``(start, end, [(sample, from, to), ...])``, sorted."""
    from eventnilm.synth import DAY_MARGIN_SAMPLES, PLACE_ATTEMPTS, RUN_GAP_SAMPLES

    n_runs = int(rng.integers(spec.runs_per_day[0], spec.runs_per_day[1] + 1))
    runs, occupied = [], []
    for _ in range(n_runs):
        seq = spec.run_sequences[int(rng.integers(len(spec.run_sequences)))]
        dwells = [_reference_sample_dwell(rng, spec, period) for _ in seq]
        duration = sum(dwells)
        lo = day_start + DAY_MARGIN_SAMPLES
        hi = day_end - DAY_MARGIN_SAMPLES - duration
        if hi <= lo:
            continue
        placed = None
        for _ in range(PLACE_ATTEMPTS):
            start = int(rng.integers(lo, hi))
            end = start + duration
            if any(
                start - RUN_GAP_SAMPLES < e and end + RUN_GAP_SAMPLES > s for s, e in occupied
            ):
                continue
            switches = [start]
            at = start
            for d in dwells:
                at += d
                switches.append(at)
            if not _reference_clear_of_registry(switches, registry):
                continue
            placed = (start, end, switches)
            break
        if placed is None:
            continue
        start, end, switches = placed
        occupied.append((start, end))
        registry.update(switches)
        modes = [0] + list(seq) + [0]
        steps = [(switches[i], modes[i], modes[i + 1]) for i in range(len(seq) + 1)]
        runs.append((start, end, steps))
    runs.sort(key=lambda r: r[0])
    return runs


def reference_generate(specs, days, period=20.0, seed=0, jitter_fraction=0.015):
    """``synth.generate`` as it was when it drew one number per call, kept a
    set of registered samples and built one ``GroundTruthEvent`` per switch:
    (appliance values by id, aggregate values, truth tuple)."""
    from eventnilm.features import DAY_SECONDS
    from eventnilm.synth import (
        DAY_MARGIN_SAMPLES,
        OVERSHOOT_MAX_LEN,
        PLACE_ATTEMPTS,
        SPIKE_GAP_SAMPLES,
        mode_name,
    )

    spd = int(round(DAY_SECONDS / period))
    n = days * spd
    rng = np.random.default_rng(seed)
    jitter = 1.0 + rng.uniform(-jitter_fraction, jitter_fraction, n)
    signals, truth, registry = {}, [], set()
    total = np.zeros(n, dtype=np.float64)
    for spec in specs:
        base = np.full(n, spec.off_level, dtype=np.float64)
        switch_list = []
        for day in range(days):
            day_runs = _reference_schedule_day(
                rng, spec, period, day * spd, (day + 1) * spd, registry
            )
            for _, end, switches in day_runs:
                for i, (at, m_from, m_to) in enumerate(switches):
                    nxt = switches[i + 1][0] if i + 1 < len(switches) else end
                    base[at:nxt] = spec.level_of(m_to)
                    switch_list.append((at, m_from, m_to))

        noise = rng.uniform(-spec.noise_fraction, spec.noise_fraction, n)
        values = base * (1.0 + noise)
        if spec.overshoot_w[1] > 0:
            for at, m_from, m_to in switch_list:
                if spec.level_of(m_to) <= spec.level_of(m_from):
                    continue
                h = rng.uniform(spec.overshoot_w[0], spec.overshoot_w[1])
                for k in range(OVERSHOOT_MAX_LEN):
                    if at + k >= n:
                        break
                    values[at + k] += h * spec.overshoot_decay**k
        if spec.spike_rate_per_day > 0:
            for day in range(days):
                count = int(rng.poisson(spec.spike_rate_per_day))
                for _ in range(count):
                    for _ in range(PLACE_ATTEMPTS):
                        pos = int(
                            rng.integers(
                                day * spd + DAY_MARGIN_SAMPLES,
                                (day + 1) * spd - DAY_MARGIN_SAMPLES,
                            )
                        )
                        near = range(pos - SPIKE_GAP_SAMPLES + 1, pos + SPIKE_GAP_SAMPLES)
                        if all(g not in registry for g in near):
                            registry.add(pos)
                            values[pos] += rng.uniform(*spec.spike_height_w)
                            break
        values *= jitter
        np.maximum(values, 0.0, out=values)
        total += values
        signals[spec.appliance_id] = values
        for at, m_from, m_to in switch_list:
            truth.append(
                GroundTruthEvent(
                    index=at - 1,
                    appliance=spec.appliance_id,
                    from_mode=mode_name(m_from),
                    to_mode=mode_name(m_to),
                    magnitude=spec.level_of(m_to) - spec.level_of(m_from),
                )
            )
    truth.sort(key=lambda t: (t.index, t.appliance))
    return signals, total, tuple(truth)
