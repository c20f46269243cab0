"""Small builders shared across test modules."""

from __future__ import annotations

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
    scalar scan, as ``build_filtered_signal`` is specified to, then clamps
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
    """Per-event candidate rows by ``Transition.contains``, one row at a time.

    A column no band contains comes back empty; the nearest-band fallback is
    checked separately.
    """
    return [
        tuple(r for r, row in enumerate(rows) if row.transition.contains(e.magnitude))
        for e in events
    ]


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
        reference_overshoot_height(raw, e.post_index, e.post_level) for e, _ in labeled if e.rising
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
    from eventnilm.features import (
        ApplianceModel,
        BehaviorSet,
        find_signature,
        participation_index,
    )

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
    participation = participation_index(
        [dict(Counter(t.key for t in by_day.get(d, []))) for d in days],
        [daily_totals.get(d, 0) for d in days],
        count_all_days=count_all_days,
    )
    behaviors = BehaviorSet(
        signature=find_signature(list(by_day.values()), states),
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
        for cols in cols_by_day.values():
            if any(beh.signature.contains(matrix.events[c].magnitude) for c in cols):
                continue
            for c in cols:
                for r in app_rows:
                    matrix.drop(c, r)
    overshoot_of = {
        m.appliance_id: (m.behaviors.overshoot_min if m.behaviors else 0.0) for m in models
    }
    for c, e in enumerate(matrix.events):
        if not e.rising or matrix.column_count(c) < 2:
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
    with open(root / "ground_truth.tsv", "w", encoding="utf-8") as fh:
        fh.write("index\tappliance\tfrom_mode\tto_mode\tmagnitude\n")
        for t in result.truth:
            fh.write(f"{t.index}\t{t.appliance}\t{t.from_mode}\t{t.to_mode}")
            fh.write(f"\t{format_number(t.magnitude)}\n")
    (root / "manifest.cfg").write_text(
        "labels = labels.dat\n"
        f"period = {format_number(result.period)}\n"
        f"train_days = {train_days[0]}-{train_days[1]}\n"
        f"test_days = {test_days[0]}-{test_days[1]}\n"
        f"appliances = {','.join(names)}\n",
        encoding="utf-8",
    )


def table(records):
    """An ``EventTable`` whose rows are the given ``EventRecord``s, in order."""
    from eventnilm.signals import EventTable

    records = list(records)
    names = ("index", "magnitude", "pre_level", "post_level", "post_index")
    return EventTable(*([getattr(r, name) for r in records] for name in names))


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


def reference_build_ground_truth(appliances, models, offset=0):
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
            points.append(LabelPoint(e.index + offset, name, tr.from_mode, tr.to_mode))
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
