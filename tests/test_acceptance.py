"""Toolkit acceptance gate.

Nine whole-system checks, each printing one PASS or FAIL line so that

    pytest tests/test_acceptance.py -s

reads as a checklist. Trial counts, thresholds, and runtime budgets are
fixed; weakening any of them to go green defeats the point of the gate.
Check 8 needs a real submetered dataset and skips when none is supplied
(see the environment variable in its docstring).
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from eventnilm.classifier import Cycle, build_rows, initial_labels, refine_by_compatibility
from eventnilm.config import RunConfig
from eventnilm.dataset import load_dataset, read_manifest, split_bundle
from eventnilm.evaluation import (
    LabelPoint,
    f_measure,
    macro_average_f,
    match_events,
)
from eventnilm.features import participation_index, transition_interval
from eventnilm.filtering import filter_and_detect
from eventnilm.model_io import save_models
from eventnilm.modes import Cluster, extract_states, ward_merge_cost
from eventnilm.pipeline import (
    build_ground_truth,
    disaggregate,
    format_event_report,
    train_models,
)
from eventnilm.signals import PowerSignal
from eventnilm.synth import balanced_household, demo_household, generate

from helpers import enumerate_surviving, random_instance, split_train_test, state, table


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def predicted_points(labeled):
    return [
        LabelPoint(
            item.event.index,
            item.appliance,
            item.transition.from_mode,
            item.transition.to_mode,
        )
        for item in labeled
    ]


def run_pipeline(result, train_day_count, config):
    """Train on the leading days, label the rest, score against submeters."""
    train_apps, train_agg, test_apps, test_agg, _ = split_train_test(
        result, train_day_count
    )
    models = train_models(train_apps, train_agg, config).models
    labeled, _ = disaggregate(test_agg, models, config)
    truth = build_ground_truth(test_apps, models)
    counts = match_events(predicted_points(labeled), truth, config.match_tolerance)
    return models, labeled, counts


def test_criterion_1_event_detection_is_perfect():
    """50 synthetic days of a busy 7-appliance household, spikes and
    overshoots included: every aggregate event found, none invented."""
    t0 = time.perf_counter()
    missed = []
    for seed in range(10):
        result = generate(balanced_household(), days=5, seed=seed)
        _, events = filter_and_detect(result.aggregate)
        pred = [LabelPoint(e.index, "x", "", "") for e in events]
        truth = [LabelPoint(t.index, "x", "", "") for t in result.truth]
        c = match_events(pred, truth, tolerance=1)["x"]
        if c.fp or c.fn:
            missed.append((seed, c.fp, c.fn))
    elapsed = time.perf_counter() - t0
    ok = not missed and elapsed < 60.0
    assert report(1, ok, f"10 seeds x 5 days, misses={missed}, {elapsed:.1f}s")


def test_criterion_2_ward_cost_identity():
    """Merge cost equals the increase in within-cluster squared error."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)

    def sse(values):
        v = values.astype(np.longdouble)
        return float(((v - v.mean()) ** 2).sum())

    worst = 0.0
    exact = 0
    for _ in range(1000):
        a = rng.uniform(0.0, 3000.0, size=int(rng.integers(1, 40)))
        b = rng.uniform(0.0, 3000.0, size=int(rng.integers(1, 40)))
        expected = sse(np.concatenate([a, b])) - sse(a) - sse(b)
        got = ward_merge_cost(Cluster.of(a), Cluster.of(b))
        if math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9):
            exact += 1
        if expected:
            worst = max(worst, abs(got - expected) / abs(expected))
    elapsed = time.perf_counter() - t0
    ok = exact == 1000 and elapsed < 5.0
    assert report(
        2, ok, f"{exact}/1000 pairs within 1e-9, worst rel err {worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_3_mode_recovery():
    """Planted levels separated by >30% gaps are recovered exactly."""
    rng = np.random.default_rng(3)
    good = 0
    for _ in range(100):
        n_modes = int(rng.integers(2, 6))
        levels = []
        level = float(rng.uniform(80.0, 400.0))
        for _ in range(n_modes):
            levels.append(level)
            level *= float(rng.uniform(1.35, 2.2))
        chunks = [np.zeros(int(rng.integers(100, 400)))]
        for planted in levels:
            n = int(rng.integers(50, 200))
            chunks.append(planted * rng.uniform(0.99, 1.01, size=n))
        values = np.concatenate(chunks)
        rng.shuffle(values)
        signal = PowerSignal(
            values=values, start_time=0.0, sample_period=20.0, source_id="planted"
        )
        states = extract_states(signal, k=10, merge_ratio=0.15, off_threshold=5.0)
        ons = [s for s in states.states if s.mode != "off"]
        good += len(ons) == n_modes and all(
            abs(s.centroid - planted) <= 0.05 * planted
            for s, planted in zip(ons, levels)
        )
    ok = good >= 99
    assert report(3, ok, f"exact count and centroids in {good}/100 trials")


def test_criterion_4_transition_interval_exactness():
    """Band arithmetic equals the brute-force hull of level differences."""
    rng = np.random.default_rng(4)
    grid = 25
    mismatches = 0
    for _ in range(1000):
        a_lo = float(rng.uniform(0.0, 1500.0))
        a_hi = a_lo + float(rng.uniform(0.0, 400.0))
        b_lo = a_hi + float(rng.uniform(0.1, 500.0))
        b_hi = b_lo + float(rng.uniform(0.0, 400.0))
        low_state = state("lo", a_lo, a_hi)
        high_state = state("hi", b_lo, b_hi)
        if rng.uniform() < 0.5:
            src, dst = low_state, high_state
        else:
            src, dst = high_state, low_state
        src_grid = np.linspace(src.low, src.high, grid)
        dst_grid = np.linspace(dst.low, dst.high, grid)
        diffs = dst_grid[:, None] - src_grid[None, :]
        if transition_interval(src, dst) != (float(diffs.min()), float(diffs.max())):
            mismatches += 1
    bands_ok = transition_interval(state("a", 198, 261), state("b", 1078, 1247)) == (
        817.0,
        1049.0,
    ) and transition_interval(state("a", 185, 260), state("b", 415, 425)) == (
        155.0,
        240.0,
    )
    ok = mismatches == 0 and bands_ok
    assert report(
        4, ok, f"{1000 - mismatches}/1000 hulls exact, reference bands {bands_ok}"
    )


def test_criterion_5_participation_arithmetic():
    """Daily-share averaging matches a direct evaluation, exactly."""
    rng = np.random.default_rng(5)
    keys = [("off", "on1"), ("on1", "off"), ("on1", "on2"), ("on2", "off")]
    mismatches = 0
    for _ in range(500):
        n_days = int(rng.integers(1, 10))
        counts, totals = [], []
        for _ in range(n_days):
            day = {k: int(rng.integers(1, 6)) for k in keys if rng.uniform() < 0.6}
            own = sum(day.values())
            totals.append(own + int(rng.integers(0, 25)) if own else 0)
            counts.append(day)
        out = participation_index(counts, totals)
        expect = {}
        for key in sorted({k for day in counts for k in day}):
            shares = [
                day[key] / total
                for day, total in zip(counts, totals)
                if day.get(key, 0) > 0
            ]
            expect[key] = sum(shares) / len(shares)
        if out != expect:
            mismatches += 1
    table = participation_index(
        [
            {("off", "on1"): 11, ("on1", "on2"): 20, ("on2", "off"): 17},
            {("off", "on2"): 73},
        ],
        [100, 100],
    )
    table_ok = (
        round(table[("off", "on1")], 2) == 0.11
        and round(table[("on1", "on2")], 2) == 0.20
        and round(table[("on2", "off")], 2) == 0.17
        and round(table[("off", "on2")], 2) == 0.73
    )
    ok = mismatches == 0 and table_ok
    assert report(
        5, ok, f"{500 - mismatches}/500 tables exact, reference shares {table_ok}"
    )


def test_criterion_6_compatibility_search_equivalence():
    """Kept candidate sets equal exhaustive enumeration on small cycles."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    checked = 0
    mismatches = 0
    while checked < 200:
        models, events = random_instance(rng)
        if len(events) > 6:
            continue
        checked += 1
        matrix = initial_labels(table(events), build_rows(models))
        cycle = Cycle(0, len(events) - 1)
        expected = enumerate_surviving(matrix, cycle, models)
        if all(not s for s in expected):
            # no valid walk at all: the search must leave the matrix as-is
            expected = [set(matrix.candidates(c)) for c in cycle.columns]
        refined = refine_by_compatibility(matrix, [cycle], models)
        for col, want in zip(cycle.columns, expected):
            if set(refined.candidates(col)) != want:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    assert report(
        6, ok, f"200 instances, {mismatches} column mismatches, {elapsed:.1f}s"
    )


def test_criterion_7_end_to_end_disaggregation():
    """A 28-day synthetic household, trained on 21 days, labeled on 7."""
    t0 = time.perf_counter()
    config = RunConfig()
    result = generate(demo_household(), days=28, seed=0)
    _, _, counts = run_pipeline(result, train_day_count=21, config=config)
    scores = {name: f_measure(counts[name]) for name in sorted(counts)}
    average = macro_average_f(counts)
    elapsed = time.perf_counter() - t0
    ok = average >= 0.90 and all(v >= 0.75 for v in scores.values()) and elapsed < 300.0
    detail = ", ".join(f"{n}={v:.2f}" for n, v in scores.items())
    assert report(7, ok, f"avg F={average:.4f}, {detail}, {elapsed:.0f}s")


def test_criterion_8_real_household_reproduction():
    """Optional check against a real submetered house.

    Point EVENTNILM_REDD_HOUSE1 at a dataset directory containing a
    manifest.cfg (README describes the layout) to enable it. The target is
    an average F-measure of 0.90 within 0.05 and a dishwasher F-measure of
    at least 0.90.
    """
    loc = os.environ.get("EVENTNILM_REDD_HOUSE1")
    if not loc:
        print("criterion 8: SKIP (EVENTNILM_REDD_HOUSE1 not set, dataset not bundled)")
        pytest.skip("real-household dataset not supplied")
    manifest_path = Path(loc)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.cfg"
    config = RunConfig()
    bundle = load_dataset(read_manifest(manifest_path))
    train_apps, train_agg, test_apps, test_agg = split_bundle(bundle)
    models = train_models(train_apps, train_agg, config).models
    labeled, _ = disaggregate(test_agg, models, config)
    truth = build_ground_truth(test_apps, models)
    counts = match_events(predicted_points(labeled), truth, config.match_tolerance)
    average = macro_average_f(counts)
    dish = [n for n in counts if "dish" in n.lower()]
    dish_f = min(f_measure(counts[n]) for n in dish) if dish else None
    ok = abs(average - 0.90) <= 0.05 and (dish_f is None or dish_f >= 0.90)
    assert report(8, ok, f"avg F={average:.4f}, dishwasher F={dish_f}")


def test_criterion_9_determinism(tmp_path):
    """Identical inputs and seed give byte-identical models and reports."""
    config = RunConfig()
    outputs = []
    for run in range(2):
        result = generate(balanced_household(), days=3, seed=7)
        train_apps, train_agg, test_apps, test_agg, _ = split_train_test(result, 2)
        models = train_models(train_apps, train_agg, config).models
        path = tmp_path / f"models_{run}.json"
        save_models(path, models)
        labeled, _ = disaggregate(test_agg, models, config)
        outputs.append((path.read_bytes(), format_event_report(labeled, test_agg)))
    ok = outputs[0] == outputs[1]
    assert report(9, ok, "two train+label runs byte-identical: " + str(ok))
