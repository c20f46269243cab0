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


def reference_build_filtered_signal(signal, report):
    """Run-by-run spike flattening, one ``np.mean`` per run, for parity tests.

    Walks each maximal run of marked samples in order and averages the
    inliers after it (or, for a run ending the signal, before it) with a
    scalar scan, as ``build_filtered_signal`` is specified to.
    """
    from eventnilm.filtering import REPLACEMENT_RUN_CAP

    values = signal.values.copy()
    n = values.size
    marks = report.sample_marks
    marked = np.zeros(n, dtype=bool)
    marked[marks] = True
    runs = []
    for i in marks.tolist():
        if runs and runs[-1][1] == i - 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    for first, last in runs:
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
    forbidden=(),
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
        forbidden=tuple(forbidden),
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


def write_self_forbidding_model(path):
    """A model file whose one appliance also lists its rise as forbidden."""
    import json

    from eventnilm.model_io import save_models

    save_models(path, [two_mode_model("heater", 790.0, 810.0)])
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["appliances"][0]["behaviors"]["forbidden"] = ["off->on1"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def enumerate_surviving(matrix, cycle, models):
    """Brute force over all full assignments; exact but exponential."""
    import itertools

    from eventnilm.modes import OFF_MODE

    apps = sorted(m.appliance_id for m in models)
    forbidden = {
        m.appliance_id: set(m.behaviors.forbidden) if m.behaviors else set()
        for m in models
    }
    cols = list(cycle.columns)
    kept = [set() for _ in cols]
    for assignment in itertools.product(*(matrix.candidates(c) for c in cols)):
        modes = {a: OFF_MODE for a in apps}
        ok = True
        for r in assignment:
            row = matrix.rows[r]
            if row.transition.key in forbidden[row.appliance]:
                ok = False
                break
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
