"""Event labeling pipeline: candidates, cycles, walks, habits, shares.

The centerpiece oracle enumerates every full assignment of a small cycle
(one candidate per event), keeps those forming a valid walk from all-OFF
back to all-OFF, and compares the surviving label sets with the reachable-
set refinement. Instances stay small enough that enumeration is exact.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from eventnilm import classifier
from eventnilm.classifier import (
    CandidateLabelMatrix,
    Cycle,
    _walk,
    _WalkSpace,
    Diagnostics,
    LabeledEvent,
    LabelRow,
    LabelTable,
    all_off_threshold,
    build_rows,
    classify,
    enforce_cycle_closure,
    initial_labels,
    refine_by_behaviors,
    refine_by_compatibility,
    resolve_by_participation,
    segment_cycles,
)
from eventnilm.config import RunConfig
from eventnilm.dataset import slice_days
from eventnilm.errors import ModelCoverageError
from eventnilm.features import ApplianceModel, BehaviorSet, Transition
from eventnilm.filtering import detect_events, filter_and_detect
from eventnilm.modes import OFF_MODE, State, StateSet
from eventnilm.pipeline import format_event_report, train_models
from eventnilm.signals import EventRecord, EventTable
from eventnilm.synth import balanced_household, demo_household, generate

from helpers import (
    ReferenceWalkSpace,
    enumerate_surviving,
    ev,
    random_instance,
    reference_enforce_cycle_closure,
    reference_initial_columns,
    reference_labeled_events,
    reference_nearest_keys,
    reference_refine_by_behaviors,
    reference_refine_by_compatibility,
    reference_resolve_by_participation,
    reference_segment_cycles,
    reference_stage,
    reference_walk,
    sig,
    state,
    table,
    two_mode_model,
)


def row_index(rows, appliance, key):
    for r, row in enumerate(rows):
        if row.appliance == appliance and row.transition.key == key:
            return r
    raise AssertionError(f"no row {appliance} {key}")


def three_mode_model(app, band1, band2, participation=None):
    """Appliance stepping off -> on1 -> on2 -> off, no shortcut transitions."""
    states = StateSet(
        states=(
            State(OFF_MODE, 0.0, 0.0, 0.0),
            state("on1", *band1),
            state("on2", *band2),
        )
    )
    up1 = Transition(OFF_MODE, "on1", float(band1[0]), float(band1[1]))
    up2 = Transition("on1", "on2", band2[0] - band1[1], band2[1] - band1[0])
    down = Transition("on2", OFF_MODE, -float(band2[1]), -float(band2[0]))
    behaviors = BehaviorSet(
        signature=None, overshoot_min=0.0, min_off_gap_s=0.0
    )
    return ApplianceModel(
        appliance_id=app,
        states=states,
        transitions=(up1, up2, down),
        participation=dict(participation or {}),
        behaviors=behaviors,
    )


class TestInitialLabels:
    def test_overlapping_bands_set_both_cells(self):
        models = [two_mode_model("app1", 890, 1000), two_mode_model("app2", 970, 1050)]
        rows = build_rows(models)
        matrix = initial_labels(table([ev(0, 0, 980)]), rows)
        got = {rows[r].appliance for r in matrix.candidates(0)}
        assert got == {"app1", "app2"}

    def test_interval_endpoints_included(self):
        models = [two_mode_model("a", 890, 1000)]
        rows = build_rows(models)
        for mag in (890.0, 1000.0):
            matrix = initial_labels(table([ev(0, 0, mag)]), rows)
            assert len(matrix.candidates(0)) == 1

    def test_unmatched_event_takes_nearest_rising_band(self):
        models = [two_mode_model("a", 890, 1000), two_mode_model("b", 1300, 1400)]
        rows = build_rows(models)
        diag = Diagnostics()
        matrix = initial_labels(table([ev(0, 0, 1200)]), rows, diag)
        (r,) = matrix.candidates(0)
        assert rows[r].appliance == "b"  # distance 100 beats 200
        assert diag.unmatched_columns == [0]

    def test_fallback_ignores_direction_when_no_same_sign_band(self):
        rise_only = ApplianceModel(
            appliance_id="riser",
            states=two_mode_model("riser", 890, 1000).states,
            transitions=(Transition(OFF_MODE, "on1", 890.0, 1000.0),),
            participation={},
            behaviors=None,
        )
        rows = build_rows([rise_only])
        matrix = initial_labels(table([ev(0, 950, 0)]), rows)
        assert len(matrix.candidates(0)) == 1

    def test_no_rows_rejected(self):
        with pytest.raises(ModelCoverageError):
            initial_labels(table([ev(0, 0, 100)]), [])

    def test_columns_never_empty(self):
        rng = np.random.default_rng(53)
        models = [two_mode_model("a", 400, 500), two_mode_model("b", 1200, 1250)]
        rows = build_rows(models)
        for _ in range(50):
            mag = float(rng.uniform(-2000, 2000))
            if mag == 0.0:
                continue
            matrix = initial_labels(table([ev(0, max(0.0, -mag), max(0.0, mag))]), rows)
            assert matrix.column_count(0) >= 1


class TestAllOffThreshold:
    def test_sums_off_maxima_plus_margin(self):
        m1 = two_mode_model("a", 400, 500)
        m2 = ApplianceModel(
            appliance_id="b",
            states=StateSet(
                states=(State(OFF_MODE, 0.0, 3.0, 1.5), state("on1", 900, 950))
            ),
            transitions=(Transition(OFF_MODE, "on1", 897.0, 950.0),),
            participation={},
            behaviors=None,
        )
        assert all_off_threshold([m1, m2]) == pytest.approx(13.0)
        assert all_off_threshold([m1, m2], margin=25.0) == pytest.approx(28.0)


class TestSegmentCycles:
    def test_two_runs_two_cycles(self):
        values = [0.0] * 5 + [500.0] * 10 + [0.0] * 5 + [800.0] * 10 + [0.0] * 5
        s = sig(values)
        events = detect_events(s)
        assert len(events) == 4
        cycles = segment_cycles(s, events, threshold=10.0)
        assert [(c.start_event, c.end_event) for c in cycles] == [(0, 1), (2, 3)]

    def test_overlapping_runs_one_cycle(self):
        base = np.zeros(40)
        base[5:30] += 500.0
        base[10:20] += 800.0
        s = sig(base)
        events = detect_events(s)
        cycles = segment_cycles(s, events, threshold=10.0)
        assert [(c.start_event, c.end_event) for c in cycles] == [(0, 3)]

    def test_never_off_single_cycle_flagged(self):
        values = [300.0] * 10 + [900.0] * 10 + [300.0] * 10
        s = sig(values)
        events = detect_events(s)
        diag = Diagnostics()
        cycles = segment_cycles(s, events, threshold=10.0, diagnostics=diag)
        assert len(cycles) == 1
        assert diag.never_all_off

    def test_no_events_no_cycles(self):
        assert segment_cycles(sig([0.0] * 10), [], threshold=10.0) == []

    def test_three_disjoint_runs(self):
        values = np.zeros(120)
        for a, b, lv in ((10, 30, 400.0), (50, 70, 900.0), (90, 110, 1500.0)):
            values[a:b] = lv
        s = sig(values)
        events = detect_events(s)
        cycles = segment_cycles(s, events, threshold=10.0)
        assert [(c.start_event, c.end_event) for c in cycles] == [
            (0, 1),
            (2, 3),
            (4, 5),
        ]


class TestRefineByCompatibility:
    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            models, events = random_instance(rng)
            rows = build_rows(models)
            matrix = initial_labels(table(events), rows)
            cycle = Cycle(0, len(events) - 1)
            expected = enumerate_surviving(matrix, cycle, models)
            if all(not s for s in expected):
                expected = [set(matrix.candidates(c)) for c in cycle.columns]
            refined = refine_by_compatibility(matrix, [cycle], models)
            for c, want in zip(cycle.columns, expected):
                assert set(refined.candidates(c)) == want

    def test_impossible_fall_candidate_removed(self):
        # two single-labeled steps walk app1 up to its top mode; the final
        # fall fits both appliances' bands, but app2 never turned on
        app1 = three_mode_model("app1", (290, 310), (990, 1010))
        app2 = two_mode_model("app2", 960, 1060)
        models = [app1, app2]
        rows = build_rows(models)
        events = [ev(0, 0, 300), ev(10, 300, 1000), ev(20, 1000, 0)]
        matrix = initial_labels(table(events), rows)
        assert {rows[r].appliance for r in matrix.candidates(2)} == {"app1", "app2"}
        refined = refine_by_compatibility(matrix, [Cycle(0, 2)], models)
        assert [rows[r].appliance for r in refined.candidates(2)] == ["app1"]

    def test_minimal_valid_cycle_unchanged(self):
        models = [two_mode_model("a", 490, 510)]
        rows = build_rows(models)
        events = [ev(0, 0, 500), ev(10, 500, 0)]
        matrix = initial_labels(table(events), rows)
        refined = refine_by_compatibility(matrix, [Cycle(0, 1)], models)
        assert refined.column_count(0) == 1
        assert refined.column_count(1) == 1

    def test_no_walk_leaves_cycle_unrefined(self):
        models = [two_mode_model("a", 490, 510)]
        rows = build_rows(models)
        # two rises in a row cannot form a walk for a two-mode appliance
        events = [ev(0, 0, 500), ev(10, 500, 1000)]
        matrix = initial_labels(table(events), rows)
        before = matrix.cells.copy()
        diag = Diagnostics()
        refined = refine_by_compatibility(matrix, [Cycle(0, 1)], models, diagnostics=diag)
        assert (refined.cells == before).all()
        assert diag.unrefined_cycles == [(0, "no compatible assignment")]

    def test_budget_exhaustion_flags_and_preserves(self):
        models = [two_mode_model("a", 490, 510), two_mode_model("b", 495, 505)]
        rows = build_rows(models)
        events = [ev(0, 0, 500), ev(10, 500, 0)]
        matrix = initial_labels(table(events), rows)
        before = matrix.cells.copy()
        diag = Diagnostics()
        refined = refine_by_compatibility(
            matrix, [Cycle(0, 1)], models, budget=1, diagnostics=diag
        )
        assert (refined.cells == before).all()
        assert diag.unrefined_cycles == [(0, "search budget exhausted")]


class TestRefineByBehaviors:
    def _matrix(self, models, events):
        rows = build_rows(models)
        return rows, initial_labels(table(events), rows)

    def _dishwasher(self):
        marker = Transition("on1", "on2", 643.0, 737.0)
        return ApplianceModel(
            appliance_id="dw",
            states=StateSet(
                states=(
                    State(OFF_MODE, 0.0, 0.0, 0.0),
                    state("on1", 190, 260),
                    state("on2", 850, 950),
                )
            ),
            transitions=(
                Transition(OFF_MODE, "on1", 190.0, 260.0),
                marker,
                Transition("on2", OFF_MODE, -950.0, -850.0),
            ),
            participation={},
            behaviors=BehaviorSet(
                signature=marker, overshoot_min=0.0, min_off_gap_s=0.0
            ),
        )

    def test_signature_absence_clears_appliance_day(self):
        dw = self._dishwasher()
        ko = two_mode_model("ko", 840, 960)
        rows, matrix = self._matrix([dw, ko], [ev(5, 0, 900)])
        # the day has no event inside [643, 737], so dw cannot be involved
        raw = sig(np.zeros(40))
        refined = refine_by_behaviors(matrix, [dw, ko], raw, raw)
        assert [rows[r].appliance for r in refined.candidates(0)] == ["ko"]

    def test_signature_present_keeps_appliance(self):
        dw = self._dishwasher()
        ko = two_mode_model("ko", 840, 960)
        rows, matrix = self._matrix(
            [dw, ko], [ev(5, 220, 900), ev(2, 0, 220, post_index=4)]
        )
        raw = sig(np.zeros(40))
        refined = refine_by_behaviors(matrix, [dw, ko], raw, raw)
        apps = {rows[r].appliance for r in refined.candidates(0)}
        assert "dw" in apps

    def test_signature_judged_per_day(self):
        dw = self._dishwasher()
        ko = two_mode_model("ko", 840, 960)
        # hourly samples: a 900 W fall fits both appliances on either day,
        # but only day 0 holds the marker step
        events = [ev(5, 0, 220), ev(6, 220, 900), ev(8, 900, 0), ev(30, 900, 0)]
        rows, matrix = self._matrix([dw, ko], events)
        raw = sig(np.zeros(48), period=3600.0)
        refined = refine_by_behaviors(matrix, [dw, ko], raw, raw)
        assert {rows[r].appliance for r in refined.candidates(2)} == {"dw", "ko"}
        assert [rows[r].appliance for r in refined.candidates(3)] == ["ko"]

    def test_overshoot_mismatch_drops_habit_appliance(self):
        rfg = two_mode_model("rfg", 890, 1000, overshoot_min=500.0)
        dw = two_mode_model("dw", 970, 1050)
        raw_values = np.zeros(40)
        raw_values[12:] = 980.0
        raw_values[12] = 1010.0  # only 30 W above the settled level
        raw = sig(raw_values)
        rows, matrix = self._matrix([rfg, dw], [ev(10, 0, 980)])
        refined = refine_by_behaviors(matrix, [rfg, dw], raw, raw)
        assert [rows[r].appliance for r in refined.candidates(0)] == ["dw"]

    def test_overshoot_match_drops_habit_free_rival(self):
        rfg = two_mode_model("rfg", 890, 1000, overshoot_min=500.0)
        dw = two_mode_model("dw", 970, 1050)
        raw_values = np.zeros(40)
        raw_values[12:] = 980.0
        raw_values[12] = 1580.0  # 600 W overshoot, the rfg habit
        raw = sig(raw_values)
        rows, matrix = self._matrix([rfg, dw], [ev(10, 0, 980)])
        refined = refine_by_behaviors(matrix, [rfg, dw], raw, raw)
        assert [rows[r].appliance for r in refined.candidates(0)] == ["rfg"]

    def test_single_labeled_column_protected(self):
        rfg = two_mode_model("rfg", 890, 1000, overshoot_min=500.0)
        raw_values = np.zeros(40)
        raw_values[12:] = 950.0  # no overshoot at all
        raw = sig(raw_values)
        rows, matrix = self._matrix([rfg], [ev(10, 0, 950)])
        refined = refine_by_behaviors(matrix, [rfg], raw, raw)
        assert [rows[r].appliance for r in refined.candidates(0)] == ["rfg"]

    def test_min_off_gap_blocks_quick_restart(self):
        a = two_mode_model("a", 490, 510, min_off_gap_s=100.0)
        b = two_mode_model("b", 485, 515)
        events = [
            ev(0, 0, 500),  # a or b rise, ambiguous but irrelevant here
            ev(10, 500, 0, post_index=12),  # fall
            ev(50, 0, 500),  # restart 38 s after the fall settled
        ]
        raw = sig(np.zeros(200))
        rows, matrix = self._matrix([a, b], events)
        # force the fall single-labeled to appliance a so the gap anchors
        matrix.keep_only(1, {row_index(rows, "a", ("on1", OFF_MODE))})
        refined = refine_by_behaviors(matrix, [a, b], raw, raw)
        assert [rows[r].appliance for r in refined.candidates(2)] == ["b"]

    def test_min_off_gap_allows_patient_restart(self):
        a = two_mode_model("a", 490, 510, min_off_gap_s=100.0)
        b = two_mode_model("b", 485, 515)
        events = [
            ev(10, 500, 0, post_index=12),
            ev(150, 0, 500),  # 138 s later, beyond the 100 s habit
        ]
        raw = sig(np.zeros(300))
        rows, matrix = self._matrix([a, b], events)
        matrix.keep_only(0, {row_index(rows, "a", ("on1", OFF_MODE))})
        refined = refine_by_behaviors(matrix, [a, b], raw, raw)
        apps = {rows[r].appliance for r in refined.candidates(1)}
        assert apps == {"a", "b"}


class TestResolveByParticipation:
    def test_observed_share_matches_trained_index(self):
        dw = two_mode_model("dw", 890, 1000, participation={(OFF_MODE, "on1"): 0.73})
        ko = two_mode_model("ko", 970, 1050, participation={(OFF_MODE, "on1"): 0.17})
        other = two_mode_model("zz", 2000, 2100)
        # ten events in the day, seven ambiguous dw-vs-ko
        events = []
        idx = 0
        for _ in range(7):
            events.append(ev(idx, 0, 985))
            idx += 10
        for _ in range(3):
            events.append(ev(idx, 0, 2050))
            idx += 10
        models = [dw, ko, other]
        rows = build_rows(models)
        matrix = initial_labels(table(events), rows)
        s = sig(np.zeros(200))
        resolved = resolve_by_participation(matrix, models, s)
        # all seven go to dw: |0.7 - 0.73| beats |0.7 - 0.17|
        for c in range(7):
            assert [rows[r].appliance for r in resolved.candidates(c)] == ["dw"]

    def test_small_share_prefers_small_trained_index(self):
        a = two_mode_model("a", 890, 1000, participation={(OFF_MODE, "on1"): 0.11})
        b = two_mode_model("b", 970, 1050, participation={(OFF_MODE, "on1"): 0.20})
        filler = two_mode_model("zz", 3000, 3100)
        events = [ev(0, 0, 985), ev(10, 0, 985), ev(20, 0, 985)]
        idx = 30
        for _ in range(22):
            events.append(ev(idx, 0, 3050))
            idx += 5
        models = [a, b, filler]
        rows = build_rows(models)
        matrix = initial_labels(table(events), rows)
        resolved = resolve_by_participation(matrix, models, sig(np.zeros(300)))
        # observed share 3/25 = 0.12 sits nearer 0.11 than 0.20
        for c in range(3):
            assert [rows[r].appliance for r in resolved.candidates(c)] == ["a"]

    def test_tie_prefers_larger_trained_index(self):
        a = two_mode_model("a", 890, 1000, participation={(OFF_MODE, "on1"): 0.4})
        b = two_mode_model("b", 970, 1050, participation={(OFF_MODE, "on1"): 0.6})
        events = [ev(0, 0, 985), ev(10, 985, 0)]
        models = [a, b]
        rows = build_rows(models)
        matrix = initial_labels(table(events), rows)
        resolved = resolve_by_participation(matrix, models, sig(np.zeros(50)))
        # observed share for the lone ambiguous rise is 0.5 either way
        assert [rows[r].appliance for r in resolved.candidates(0)] == ["b"]

    def test_tie_falls_back_to_appliance_id(self):
        a = two_mode_model("a", 890, 1000)
        b = two_mode_model("b", 970, 1050)
        events = [ev(0, 0, 985)]
        models = [a, b]
        rows = build_rows(models)
        matrix = initial_labels(table(events), rows)
        resolved = resolve_by_participation(matrix, models, sig(np.zeros(50)))
        assert [rows[r].appliance for r in resolved.candidates(0)] == ["a"]

    def test_two_groups_in_one_day_with_singles(self):
        a = two_mode_model("a", 890, 1000, participation={(OFF_MODE, "on1"): 0.42})
        b = two_mode_model("b", 970, 1050, participation={(OFF_MODE, "on1"): 0.25})
        c = two_mode_model("c", 1990, 2100, participation={(OFF_MODE, "on1"): 0.1})
        d = two_mode_model("d", 2050, 2200, participation={(OFF_MODE, "on1"): 0.2})
        z = two_mode_model("z", 4950, 5050)
        # one day of ten rises: three a-or-b (985 W), one a only (930 W), two
        # c-or-d (2075 W), one c only (2010 W), three z. The groups {a, b} and
        # {c, d} share no rows. Each candidate counts every event it may take:
        #   a 4/10 = 0.4 -> |0.4 - 0.42| = 0.02   b 3/10 = 0.3 -> |0.3 - 0.25| = 0.05
        #   c 3/10 = 0.3 -> |0.3 - 0.1|  = 0.2    d 2/10 = 0.2 -> |0.2 - 0.2|  = 0
        # so the 985 W rises go to a (only because a's single counts) and the
        # 2075 W rises to d.
        mags = [985, 930, 985, 2075, 5000, 985, 2010, 2075, 5000, 5000]
        events = [ev(10 * i, 0, m) for i, m in enumerate(mags)]
        models = [a, b, c, d, z]
        rows = build_rows(models)
        matrix = initial_labels(table(events), rows)
        assert [matrix.column_count(col) for col in range(10)] == [2, 1, 2, 2, 1, 2, 1, 2, 1, 1]
        resolved = resolve_by_participation(matrix, models, sig(np.zeros(200)))
        picks = [rows[resolved.candidates(col)[0]].appliance for col in range(10)]
        assert picks == ["a", "a", "a", "d", "z", "a", "c", "d", "z", "z"]

    def test_every_column_single_after_resolution(self):
        rng = np.random.default_rng(61)
        models = [
            two_mode_model("a", 450, 550, participation={(OFF_MODE, "on1"): 0.3}),
            two_mode_model("b", 500, 600, participation={(OFF_MODE, "on1"): 0.5}),
            two_mode_model("c", 540, 640),
        ]
        rows = build_rows(models)
        for _ in range(30):
            events = []
            level = 0.0
            for i in range(int(rng.integers(1, 9))):
                mag = float(rng.uniform(450, 640)) * (1 if rng.uniform() < 0.6 else -1)
                post = max(0.0, level + mag)
                if post == level:
                    continue
                events.append(ev(i * 10, level, post))
                level = post
            if not events:
                continue
            matrix = initial_labels(table(events), rows)
            resolved = resolve_by_participation(matrix, models, sig(np.zeros(200)))
            for c in range(len(events)):
                assert resolved.column_count(c) == 1


class TestEnforceCycleClosure:
    def test_repairs_mixed_labels_with_minimal_changes(self):
        a = two_mode_model(
            "a",
            490,
            510,
            participation={(OFF_MODE, "on1"): 0.5, ("on1", OFF_MODE): 0.9},
        )
        b = two_mode_model(
            "b",
            485,
            515,
            participation={(OFF_MODE, "on1"): 0.9, ("on1", OFF_MODE): 0.5},
        )
        models = [a, b]
        rows = build_rows(models)
        events = [ev(0, 0, 500), ev(10, 500, 0)]
        matrix = initial_labels(table(events), rows)
        cycle = Cycle(0, 1)
        matrix = refine_by_compatibility(matrix, [cycle], models)
        pre = [matrix.candidates(c) for c in range(2)]
        matrix = resolve_by_participation(matrix, models, sig(np.zeros(50)))
        picked = [rows[matrix.candidates(c)[0]].appliance for c in range(2)]
        assert picked == ["a", "b"]  # participation split the run across appliances
        repaired = enforce_cycle_closure(matrix, [cycle], models, pre, {0})
        labels = [rows[repaired.candidates(c)[0]] for c in range(2)]
        assert [l.appliance for l in labels] == ["a", "a"]
        assert labels[0].transition.key == (OFF_MODE, "on1")
        assert labels[1].transition.key == ("on1", OFF_MODE)

    def test_closed_choice_left_alone(self):
        a = two_mode_model("a", 490, 510)
        models = [a]
        rows = build_rows(models)
        events = [ev(0, 0, 500), ev(10, 500, 0)]
        matrix = initial_labels(table(events), rows)
        cycle = Cycle(0, 1)
        pre = [matrix.candidates(c) for c in range(2)]
        matrix = resolve_by_participation(matrix, models, sig(np.zeros(50)))
        before = matrix.cells.copy()
        repaired = enforce_cycle_closure(matrix, [cycle], models, pre, {0})
        assert (repaired.cells == before).all()

    def test_unrefined_cycles_skipped(self):
        a = two_mode_model("a", 490, 510)
        rows = build_rows([a])
        events = [ev(0, 0, 500), ev(10, 500, 1000)]  # cannot close
        matrix = initial_labels(table(events), rows)
        matrix = resolve_by_participation(matrix, [a], sig(np.zeros(50)))
        before = matrix.cells.copy()
        repaired = enforce_cycle_closure(
            matrix, [Cycle(0, 1)], [a], [list(range(len(rows)))] * 2, set()
        )
        assert (repaired.cells == before).all()

    def test_budget_exhaustion_leaves_cycle_unrepaired(self):
        models = [two_mode_model("a", 490, 510), two_mode_model("b", 485, 515)]
        rows = build_rows(models)
        events = [ev(0, 0, 500), ev(10, 500, 0)]
        matrix = initial_labels(table(events), rows)
        pre = [matrix.candidates(c) for c in range(2)]
        matrix.assign(0, row_index(rows, "a", (OFF_MODE, "on1")))
        matrix.assign(1, row_index(rows, "b", ("on1", OFF_MODE)))
        before = matrix.cells.copy()
        diag = Diagnostics()
        repaired = enforce_cycle_closure(
            matrix, [Cycle(0, 1)], models, pre, {0}, budget=1, diagnostics=diag
        )
        assert diag.unrepaired_cycles == [0]
        assert (repaired.cells == before).all()

    def test_repair_is_minimal_on_random_instances(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            models, events = random_instance(rng)
            rows = build_rows(models)
            matrix = initial_labels(table(events), rows)
            pre = [matrix.candidates(c) for c in range(len(events))]
            chosen = [int(rng.choice(p)) for p in pre]
            for c, r in enumerate(chosen):
                matrix.assign(c, r)
            closing = [
                walk for walk in itertools.product(*pre)
                if replay_closes([rows[r] for r in walk], models)
            ]
            before = matrix.cells.copy()
            diag = Diagnostics()
            repaired = enforce_cycle_closure(
                matrix, [Cycle(0, len(events) - 1)], models, pre, {0}, diagnostics=diag
            )
            picked = [repaired.candidates(c)[0] for c in range(len(events))]
            if not closing:
                assert diag.unrepaired_cycles == [0]
                assert (repaired.cells == before).all()
                continue
            assert diag.unrepaired_cycles == []
            assert replay_closes([rows[r] for r in picked], models)
            fewest = min(sum(a != b for a, b in zip(w, chosen)) for w in closing)
            assert sum(a != b for a, b in zip(picked, chosen)) == fewest


def replay_closes(labeled, models):
    """Do the final labels walk from all-OFF back to all-OFF per cycle?"""
    modes = {m.appliance_id: OFF_MODE for m in models}
    for le in labeled:
        if modes[le.appliance] != le.transition.from_mode:
            return False
        modes[le.appliance] = le.transition.to_mode
    return all(v == OFF_MODE for v in modes.values())


class TestClassify:
    def _household(self):
        rng = np.random.default_rng(67)
        n = 1200
        a_sig = np.zeros(n)
        b_sig = np.zeros(n)
        for start in (100, 400, 700):
            a_sig[start : start + 80] = 500.0
        for start in (250, 900):
            b_sig[start : start + 60] = 1200.0
        agg = (a_sig + b_sig) * (1.0 + rng.uniform(-0.005, 0.005, size=n))
        models = [two_mode_model("a", 490, 510), two_mode_model("b", 1190, 1210)]
        return sig(agg), models

    def test_two_appliance_household_fully_labeled(self):
        aggregate, models = self._household()
        labeled, diag = classify(aggregate, models)
        assert len(labeled) == 10
        by_app = {"a": 0, "b": 0}
        for le in labeled:
            by_app[le.appliance] += 1
        assert by_app == {"a": 6, "b": 4}
        assert replay_closes(labeled, models)
        assert not diag.unrefined_cycles

    def test_stage_labels_are_known(self):
        aggregate, models = self._household()
        labeled, _ = classify(aggregate, models)
        stages = {le.stage for le in labeled}
        assert stages <= {
            "containment",
            "compatibility",
            "behavior",
            "participation",
            "closure",
        }

    def test_deterministic(self):
        aggregate, models = self._household()
        first, _ = classify(aggregate, models)
        second, _ = classify(aggregate, models)
        assert [
            (l.event.index, l.appliance, l.transition.key, l.stage) for l in first
        ] == [(l.event.index, l.appliance, l.transition.key, l.stage) for l in second]

    def test_quiet_signal_yields_nothing(self):
        models = [two_mode_model("a", 490, 510)]
        labeled, _ = classify(sig(np.zeros(100)), models)
        assert len(labeled) == 0
        assert list(labeled) == []

    def test_single_appliance_aggregate_is_perfect(self):
        values = np.zeros(600)
        for start in (50, 250, 450):
            values[start : start + 100] = 800.0
        models = [two_mode_model("solo", 795, 805)]
        labeled, _ = classify(sig(values), models)
        assert [(l.appliance, l.transition.key) for l in labeled] == [
            ("solo", (OFF_MODE, "on1")),
            ("solo", ("on1", OFF_MODE)),
        ] * 3
        assert all(l.stage == "containment" for l in labeled)


class TestCandidateLabelMatrix:
    def _matrix(self):
        rows = build_rows([two_mode_model("a", 100, 200), two_mode_model("b", 150, 250)])
        return CandidateLabelMatrix(rows, table([ev(0, 0, 160), ev(5, 160, 0)]), [(0, 2), (1,)])

    def test_cells_is_a_derived_view(self):
        matrix = self._matrix()
        want = np.zeros((4, 2), dtype=bool)
        want[[0, 2], 0] = want[1, 1] = True
        assert (matrix.cells == want).all()
        matrix.cells[:] = False  # a fresh array each read: writing to it changes nothing
        assert matrix.columns == [(0, 2), (1,)]

    def test_never_empties_a_column(self):
        matrix = self._matrix()
        matrix.keep_only(0, {1, 3})
        assert matrix.drop(1, 1) is False
        assert matrix.columns == [(0, 2), (1,)]
        assert matrix.drop(0, 2) is True
        assert matrix.drop(0, 0) is False
        assert matrix.columns == [(0,), (1,)]

    def test_assign_and_keep_only(self):
        matrix = self._matrix()
        matrix.keep_only(0, {2, 3})
        matrix.assign(1, 3)
        assert [matrix.candidates(c) for c in range(2)] == [(2,), (3,)]
        picked = [matrix.rows[r] for (r,) in matrix.columns]
        assert [(row.appliance, row.transition.key) for row in picked] == [
            ("b", (OFF_MODE, "on1")),
            ("b", ("on1", OFF_MODE)),
        ]


class TestInitialLabelsParity:
    """One broadcast comparison against ``Transition.contains`` row by row."""

    def test_random_instances(self):
        rng = np.random.default_rng(91)
        unmatched_seen = edges_seen = 0
        for _ in range(60):
            models = []
            for i in range(int(rng.integers(1, 6))):
                lo = float(rng.uniform(10, 2500))
                models.append(two_mode_model(f"app{i}", lo, lo + float(rng.uniform(0, 300))))
            rows = build_rows(models)
            mags = []
            for _ in range(int(rng.integers(1, 40))):
                tr = rows[int(rng.integers(len(rows)))].transition
                kind = int(rng.integers(5))
                if kind == 0:
                    mags.append(tr.low)
                elif kind == 1:
                    mags.append(tr.high)
                elif kind == 2:  # just outside the band
                    mags.append(float(np.nextafter(tr.high, np.inf)))
                else:
                    mags.append(float(rng.uniform(-3000, 3000)))
            events = [ev(10 * i, max(0.0, -m), max(0.0, m)) for i, m in enumerate(mags)]
            diag = Diagnostics()
            matrix = initial_labels(table(events), rows, diag)
            want = reference_initial_columns(events, rows)
            unmatched = [c for c, col in enumerate(want) if not col]
            assert diag.unmatched_columns == unmatched
            for c, col in enumerate(want):
                if not col:
                    col = (reference_nearest_keys(rows, events[c].magnitude)[0][-1],)
                assert matrix.columns[c] == col
            unmatched_seen += len(unmatched)
            edges_seen += sum(
                any(e.magnitude in (r.transition.low, r.transition.high) for r in rows)
                for e in events
            )
        assert unmatched_seen > 0 and edges_seen > 0


    DECIDERS = ("direction", "distance", "appliance", "key", "row")

    def test_nearest_band_fallback_on_any_rows(self):
        """Unmatched columns against the per-column min, on rows in any
        order, with repeated (appliance, key) pairs and tied distances."""
        rng = np.random.default_rng(29)
        modes = (OFF_MODE, "on1", "on2")
        seen = set()
        for _ in range(300):
            rows = []
            for _ in range(int(rng.integers(1, 9))):
                lo, hi = sorted(float(x) for x in 100 * rng.integers(0, 12, size=2))
                sign = rng.choice([1.0, -1.0])
                band = (lo, hi) if sign > 0 else (-hi, -lo)
                x, y = rng.choice(modes, size=2, replace=False)
                rows.append(LabelRow(str(rng.choice(["a", "b", "c"])), Transition(x, y, *band)))
            mags = [float(m) for m in 50 * rng.integers(-26, 27, size=12) if m != 0]
            events = [ev(10 * i, max(0.0, -m), max(0.0, m)) for i, m in enumerate(mags)]
            diag = Diagnostics()
            matrix = initial_labels(table(events), rows, diag)
            want = reference_initial_columns(events, rows)
            assert diag.unmatched_columns == [c for c, col in enumerate(want) if not col]
            for c in diag.unmatched_columns:
                keys = reference_nearest_keys(rows, mags[c])
                assert matrix.columns[c] == (keys[0][-1],)
                seen.add("rising" if mags[c] > 0 else "falling")
                seen.add("no same-direction band" if keys[0][0] else "same-direction band")
                if len(keys) > 1:
                    tied = next(i for i in range(5) if keys[0][i] != keys[1][i])
                    seen.add(("decided by", self.DECIDERS[tied]))
        assert seen >= {
            "rising",
            "falling",
            "no same-direction band",
            "same-direction band",
            *(("decided by", k) for k in self.DECIDERS[1:]),
        }


STAGES = (
    "initial_labels",
    "refine_by_compatibility",
    "refine_by_behaviors",
    "resolve_by_participation",
    "enforce_cycle_closure",
)


class TestClassifyInvariants:
    """Seeded sweep over whole households: what every run must hold."""

    # demo: overlapping bands, labels from every stage up to participation;
    # balanced: disjoint bands, cycles left unrefined by stage 2
    @pytest.mark.parametrize("household, days", [("demo", 6), ("balanced", 5)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sweep(self, monkeypatch, household, days, seed):
        result = generate(
            demo_household() if household == "demo" else balanced_household(),
            days=days,
            seed=seed,
        )
        base = result.aggregate.start_time
        train = {n: slice_days(s, (0, 2), base) for n, s in result.appliances.items()}
        models = train_models(train, slice_days(result.aggregate, (0, 2), base), RunConfig()).models
        test_agg = slice_days(result.aggregate, (3, days - 1), base)

        snapshots = []
        for name in STAGES:
            def recorded(*args, _stage=getattr(classifier, name), **kwargs):
                matrix = _stage(*args, **kwargs)
                snapshots.append((list(matrix.columns), matrix.cells))
                return matrix

            monkeypatch.setattr(classifier, name, recorded)
        labeled, diag = classify(test_agg, models)

        filtered, events = filter_and_detect(test_agg)
        assert events
        assert [le.event for le in labeled] == list(events)
        assert len(snapshots) == len(STAGES)
        for columns, cells in snapshots:
            assert len(columns) == len(events)
            assert all(col and list(col) == sorted(set(col)) for col in columns)
            assert cells.shape[1] == len(events)
            assert [tuple(np.flatnonzero(cells[:, c]).tolist()) for c in range(len(events))] == columns
        assert all(len(col) == 1 for col in snapshots[-1][0])
        # the table's rows, by index and in order, are the per-event labels
        want = reference_labeled_events(events, build_rows(models), [c for c, _ in snapshots])
        assert len(labeled) == len(want)
        assert [labeled[i] for i in range(len(labeled))] == want
        assert list(labeled) == want

        cycles = segment_cycles(filtered, events, all_off_threshold(models))
        skipped = {i for i, _ in diag.unrefined_cycles} | set(diag.unrepaired_cycles)
        refined = [c for i, c in enumerate(cycles) if i not in skipped]
        assert refined
        for cycle in refined:
            assert replay_closes([labeled[c] for c in cycle.columns], models)


class TestReplayParity:
    """The batched replay against the string-mode reference walk on one-row
    columns, cycle by cycle."""

    @staticmethod
    def random_cycle(rng, apps, rows):
        """Row picks of one cycle: a walk left closed or open, or random rows."""
        by_key = {(row.appliance, row.transition.key): r for r, row in enumerate(rows)}
        if rng.uniform() < 0.25:
            return [int(r) for r in rng.integers(0, len(rows), size=int(rng.integers(1, 8)))]
        mode = {a: OFF_MODE for a in apps}
        picks = []
        for _ in range(int(rng.integers(1, 8))):
            a = apps[int(rng.integers(len(apps)))]
            dst = ["on1", "on2", OFF_MODE][int(rng.integers(3))]
            if dst != mode[a]:
                picks.append(by_key[a, (mode[a], dst)])
                mode[a] = dst
        if rng.uniform() < 0.7:
            picks += [by_key[a, (m, OFF_MODE)] for a, m in mode.items() if m != OFF_MODE]
        return picks or [by_key[apps[0], (OFF_MODE, "on1")]]

    def test_random_cycles(self):
        rng = np.random.default_rng(83)
        modes = (OFF_MODE, "on1", "on2")
        seen = set()
        for _ in range(150):
            apps = [f"app{i}" for i in range(int(rng.integers(1, 4)))]
            rows = [
                LabelRow(a, Transition(x, y, 0.0, 0.0))
                for a in apps for x in modes for y in modes if x != y
            ]
            models = [two_mode_model(a, 1.0, 2.0) for a in apps]
            space, ref = _WalkSpace(models, rows), ReferenceWalkSpace(models, rows)
            cycles, picks = [], []
            for _ in range(int(rng.integers(1, 10))):
                cyc = self.random_cycle(rng, apps, rows)
                cycles.append(Cycle(len(picks), len(picks) + len(cyc) - 1))
                picks += cyc
            closes, spent = space.replay(np.array(picks), *classifier._bounds(cycles))
            for k, cycle in enumerate(cycles):
                options = [[picks[c]] for c in cycle.columns]
                n = len(options)
                walked = reference_walk(ref, options, n)
                assert closes[k] == (ref.all_off in walked[-1])
                # the expansions spent: the smallest budget the walk fits in
                fits = [b for b in range(n + 1) if reference_walk(ref, options, b) is not None]
                assert spent[k] == fits[0]
                budget = int(rng.integers(0, n + 1))
                assert (spent[k] > budget) == (reference_walk(ref, options, budget) is None)
                steps = [rows[picks[c]] for c in cycle.columns]
                if steps[0].transition.from_mode != OFF_MODE:
                    seen.add("inapplicable first step")
                if spent[k] == n and not closes[k]:
                    seen.add("all steps apply, appliance left on")
                if closes[k]:
                    seen.add("closes")
                if spent[k] > budget:
                    seen.add("over budget")
                owners = [r.appliance for r in steps]
                runs = [x for i, x in enumerate(owners) if i == 0 or owners[i - 1] != x]
                if len(runs) > len(set(runs)):  # an appliance steps again after another
                    seen.add("interleaved appliances")
        assert seen == {
            "inapplicable first step",
            "all steps apply, appliance left on",
            "closes",
            "over budget",
            "interleaved appliances",
        }


class TestWalkParity:
    """``_walk`` on integer mode codes against the string-mode reference walk:
    the same layers, in the same order, once codes are read as mode names."""

    def test_random_options(self):
        rng = np.random.default_rng(89)
        modes = (OFF_MODE, "on1", "on2")
        seen = set()
        for _ in range(200):
            apps = [f"app{i}" for i in range(int(rng.integers(1, 4)))]
            rows = [
                LabelRow(a, Transition(x, y, 0.0, 0.0))
                for a in apps for x in modes for y in modes if x != y
            ]
            models = [two_mode_model(a, 1.0, 2.0) for a in apps]
            space, ref = _WalkSpace(models, rows), ReferenceWalkSpace(models, rows)
            names = {}
            for (_, src, dst), row in zip(space.steps, rows):
                names[src], names[dst] = row.transition.key

            def named(theta):
                return None if theta is None else tuple(names[m] for m in theta)

            options = [
                sorted(rng.choice(len(rows), size=int(rng.integers(1, 4)), replace=False).tolist())
                for _ in range(int(rng.integers(1, 7)))
            ]
            chosen = [int(rng.choice(o)) for o in options] if rng.uniform() < 0.5 else None
            budget = int(rng.integers(0, 150))
            got = _walk(space, options, budget, chosen)
            want = reference_walk(ref, options, budget, chosen)
            if want is None:
                assert got is None
                seen.add("over budget")
                continue
            assert [
                [(named(v), (cost, named(parent), r)) for v, (cost, parent, r) in layer.items()]
                for layer in got
            ] == [list(layer.items()) for layer in want]
            seen.add("closes" if ref.all_off in want[-1] else "open")
            seen.add("costed" if chosen else "uncosted")
        assert seen == {"over budget", "closes", "open", "costed", "uncosted"}


class TestSegmentCyclesParity:
    """Vectorised cut points against the pairwise loop."""

    def test_random_events(self):
        rng = np.random.default_rng(31)
        overlapping = never_off = 0
        for _ in range(300):
            n = int(rng.integers(3, 200))
            s = sig(rng.choice([0.0, 5.0, 50.0, 500.0], size=n) + 2.0 * (rng.uniform() < 0.2))
            k = int(rng.integers(1, min(n - 1, 30) + 1))
            index = np.sort(rng.choice(n - 1, size=k, replace=False))
            events = [
                ev(int(i), 0.0, 1.0, post_index=min(n - 1, int(i) + int(rng.integers(1, 6))))
                for i in index
            ]
            threshold = float(rng.choice([1.0, 10.0, 100.0, 1000.0]))
            diag = Diagnostics()
            got = segment_cycles(s, table(events), threshold, diag)
            assert got == reference_segment_cycles(s, events, threshold)
            assert diag.never_all_off == (not (s.values < threshold).any())
            overlapping += any(a.post_index > b.index for a, b in zip(events, events[1:]))
            never_off += diag.never_all_off
        assert overlapping > 0 and never_off > 0

    @pytest.mark.parametrize("household", ["demo", "balanced"])
    def test_generated_households(self, household):
        result = generate(
            demo_household() if household == "demo" else balanced_household(), days=3, seed=4
        )
        filtered, events = filter_and_detect(result.aggregate)
        for threshold in (10.0, 100.0, 1000.0):
            want = reference_segment_cycles(filtered, events, threshold)
            assert segment_cycles(filtered, events, threshold) == want


class TestStagesParity:
    """Stages 2-4 and the closure repair against their per-cycle loops.

    Households mix cycles whose columns all hold one candidate (appliance
    c's band is apart from the others) with cycles of overlapping bands.
    """

    BASES = {"a": 500.0, "b": 540.0, "c": 1500.0}

    def instance(self, rng):
        models = []
        for name, base in self.BASES.items():
            rise = Transition(OFF_MODE, "on1", base - 60.0, base + 60.0)
            models.append(
                two_mode_model(
                    name,
                    base - 60.0,
                    base + 60.0,
                    participation={
                        (OFF_MODE, "on1"): float(rng.uniform(0.0, 0.5)),
                        ("on1", OFF_MODE): float(rng.uniform(0.0, 0.5)),
                    },
                    signature=rise if rng.uniform() < 0.3 else None,
                    overshoot_min=float(rng.choice([0.0, 0.0, 80.0])),
                    min_off_gap_s=float(rng.choice([0.0, 0.0, 3000.0, 30000.0])),
                )
            )
        events, cycles, idx = [], [], 5
        for _ in range(int(rng.integers(3, 25))):
            apps = list(rng.choice(list(self.BASES), size=int(rng.integers(1, 3)), replace=False))
            steps = [(a, 1.0) for a in apps] + [(a, -1.0) for a in rng.permutation(apps)]
            if rng.uniform() < 0.15:
                steps.pop(int(rng.integers(len(steps))))  # a cycle that cannot close
            first, level = len(events), 0.0
            for a, sign in steps:
                mag = sign * float(rng.uniform(self.BASES[a] - 60.0, self.BASES[a] + 60.0))
                if rng.uniform() < 0.05:
                    mag = sign * 1000.0  # inside no band
                if max(0.0, level + mag) == level:
                    continue  # a fall from 0 W changes nothing
                events.append(ev(idx, level, max(0.0, level + mag)))
                level = max(0.0, level + mag)
                idx += int(rng.integers(1, 120))
            if len(events) == first:
                continue
            cycles.append(Cycle(first, len(events) - 1))
            idx += int(rng.integers(1, 300))
        n = idx + 20
        filtered = sig(np.zeros(n), period=300.0)
        raw = sig(rng.uniform(0.0, 2000.0, size=n), period=300.0)
        return models, table(events), cycles, raw, filtered

    def test_random_households(self):
        rng = np.random.default_rng(97)
        seen = set()
        for _ in range(300):
            models, events, cycles, raw, filtered = self.instance(rng)
            rows = build_rows(models)
            budget = int(rng.choice([1, 2, 4, 8, 1_000_000]))
            new = initial_labels(events, rows)
            for c in range(len(events)):
                if rng.uniform() < 0.1:  # odd candidate sets, as earlier stages never make
                    pick = rng.choice(len(rows), size=int(rng.integers(1, 4)), replace=False)
                    new.columns[c] = tuple(sorted(int(r) for r in pick))
            ref = CandidateLabelMatrix(rows, events, list(new.columns))
            d_new, d_ref = Diagnostics(), Diagnostics()

            before = list(new.columns)
            refine_by_compatibility(new, cycles, models, budget, d_new)
            reference_refine_by_compatibility(ref, cycles, models, budget, d_ref)
            assert new.columns == ref.columns
            assert d_new.unrefined_cycles == d_ref.unrefined_cycles
            unrefined = {i for i, _ in d_new.unrefined_cycles}
            refined = set(range(len(cycles))) - unrefined
            for i, cycle in enumerate(cycles):
                single = all(len(before[c]) == 1 for c in cycle.columns)
                seen.add(("single" if single else "multi", i in refined))
            seen |= {reason for _, reason in d_new.unrefined_cycles}

            before = list(new.columns)
            refine_by_behaviors(new, models, raw, filtered)
            reference_refine_by_behaviors(ref, models, raw, filtered)
            assert new.columns == ref.columns
            if new.columns != before:
                seen.add("behavior drops")

            pre = list(new.columns)
            resolve_by_participation(new, models, filtered)
            reference_resolve_by_participation(ref, models, filtered)
            assert new.columns == ref.columns
            if new.columns != pre:
                seen.add("participation picks")

            before = list(new.columns)
            enforce_cycle_closure(new, cycles, models, pre, refined, budget, d_new)
            reference_enforce_cycle_closure(ref, cycles, models, pre, refined, budget, d_ref)
            assert new.columns == ref.columns
            assert d_new.unrepaired_cycles == d_ref.unrepaired_cycles
            if new.columns != before:
                seen.add("repaired")
            if d_new.unrepaired_cycles:
                seen.add("unrepaired")
        assert seen == {
            ("single", True),
            ("single", False),
            ("multi", True),
            ("multi", False),
            "no compatible assignment",
            "search budget exhausted",
            "behavior drops",
            "participation picks",
            "repaired",
            "unrepaired",
        }


class TestLabelTable:
    """The columnar result of ``classify``: equality, stage codes, the
    one-label check, and no per-event objects on the way."""

    def test_eq_compares_content_as_a_bool(self):
        aggregate, models = TestClassify()._household()
        first, _ = classify(aggregate, models)
        second, _ = classify(aggregate, models)
        assert first is not second
        assert (first == second) is True
        assert (first != second) is False
        assert (first == list(first)) is False
        row, stage = first.row.copy(), first.stage.copy()
        row[3] = (row[3] + 1) % len(first.rows)
        stage[5] = (stage[5] + 1) % len(classifier.STAGES)
        assert (dataclasses.replace(first, row=row) == second) is False
        assert (dataclasses.replace(first, stage=stage) == second) is False
        assert (dataclasses.replace(first, rows=first.rows[::-1]) == second) is False
        # the benchmark's repeat check compares (table, diagnostics) tuples
        assert classify(aggregate, models) == classify(aggregate, models)

    def test_columns_are_read_only_and_sized_to_the_events(self):
        aggregate, models = TestClassify()._household()
        labeled, _ = classify(aggregate, models)
        assert labeled.row.dtype == labeled.stage.dtype == np.int64
        with pytest.raises(ValueError):
            labeled.row[0] = 1
        with pytest.raises(ValueError, match="one entry per event"):
            LabelTable(labeled.events, labeled.rows, labeled.row[1:], labeled.stage)

    @pytest.mark.parametrize("bad", [(), (0, 1)])
    def test_column_without_one_label_raises(self, monkeypatch, bad):
        aggregate, models = TestClassify()._household()
        closure = classifier.enforce_cycle_closure

        def broken(*args, **kwargs):
            matrix = closure(*args, **kwargs)
            matrix.columns[2] = bad
            return matrix

        monkeypatch.setattr(classifier, "enforce_cycle_closure", broken)
        with pytest.raises(ValueError, match=f"column 2 holds {len(bad)} labels, wanted 1"):
            classify(aggregate, models)

    def test_stage_codes_match_the_per_event_chain(self):
        rng = np.random.default_rng(71)
        seen = set()
        for _ in range(200):
            n, n_rows = int(rng.integers(1, 30)), int(rng.integers(1, 6))

            def column(single_p):
                k = 1 if rng.uniform() < single_p else int(rng.integers(1, n_rows + 1))
                return tuple(sorted(rng.choice(n_rows, size=k, replace=False).tolist()))

            final = [column(1.0) for _ in range(n)]
            snapshots = [[column(0.3) for _ in range(n)] for _ in range(3)]
            after_resolve = []
            for c in range(n):  # equal to the final column, or a single or wider other
                kind = int(rng.integers(3))
                after_resolve.append(final[c] if kind == 0 else column(0.5 if kind == 1 else 0.0))
            snapshots += [after_resolve, final]
            codes = classifier._stage_codes(*snapshots)
            got = [classifier.STAGES[k] for k in codes.tolist()]
            assert got == [reference_stage(*snapshots, c) for c in range(n)]
            seen.update(got)
        assert seen == set(classifier.STAGES)

    def test_labeling_builds_no_per_event_objects(self, monkeypatch):
        result = generate(demo_household(), days=6, seed=0)
        base = result.aggregate.start_time
        train = {n: slice_days(s, (0, 1), base) for n, s in result.appliances.items()}
        models = train_models(train, slice_days(result.aggregate, (0, 1), base), RunConfig()).models
        test_agg = slice_days(result.aggregate, (2, 5), base)

        def refuse(*args, **kwargs):
            raise AssertionError("per-event object built on the labeling path")

        overshoots = []
        heights = classifier.overshoot_heights
        monkeypatch.setattr(
            classifier, "overshoot_heights", lambda *a: overshoots.append(a) or heights(*a)
        )
        monkeypatch.setattr(EventTable, "__getitem__", refuse)
        monkeypatch.setattr(EventRecord, "__init__", refuse)
        monkeypatch.setattr(LabeledEvent, "__init__", refuse)
        labeled, _ = classify(test_agg, models)
        report = format_event_report(labeled, test_agg)
        monkeypatch.undo()
        assert report.count("\n") == len(labeled) + 2
        # the household reaches every stage up to participation, and the
        # overshoot rule on some rising event
        assert set(classifier.STAGES[:4]) <= {le.stage for le in labeled}
        assert any(len(post_index) for _, post_index, _ in overshoots)
