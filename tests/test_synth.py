"""Synthetic household generator: schedules, artifacts, and ground truth.

The generator is the test bed for everything downstream, so these tests
pin its own guarantees: exact aggregate conservation, seeded determinism,
spacing of switches and spikes, dwell and margin floors, and exact truth
recovery on noise-free channels.
"""

import numpy as np
import pytest

from eventnilm.errors import SpecValidationError
from eventnilm.evaluation import LabelPoint, PointTable, match_events
from eventnilm.filtering import filter_and_detect
from eventnilm.synth import (
    DAY_MARGIN_SAMPLES,
    EVENT_GAP_SAMPLES,
    MIN_DWELL_SAMPLES,
    SPIKE_GAP_SAMPLES,
    ApplianceSpec,
    balanced_household,
    demo_household,
    generate,
    mode_name,
)


def clean_spec(app="unit", levels=(500.0, 900.0), **overrides):
    """A spec with every artifact disabled, for exact-arithmetic tests."""
    kwargs = dict(
        appliance_id=app,
        levels=levels,
        run_sequences=((1,), (1, 2)),
        noise_fraction=0.0,
        spike_rate_per_day=0.0,
        overshoot_w=(0.0, 0.0),
        runs_per_day=(1, 2),
    )
    kwargs.update(overrides)
    return ApplianceSpec(**kwargs)


class TestSpecValidation:
    def test_levels_must_ascend_and_be_positive(self):
        with pytest.raises(SpecValidationError):
            clean_spec(levels=(900.0, 500.0))
        with pytest.raises(SpecValidationError):
            clean_spec(levels=(0.0, 500.0))
        with pytest.raises(SpecValidationError):
            clean_spec(levels=())

    def test_off_level_bounded(self):
        with pytest.raises(SpecValidationError):
            clean_spec(off_level=6.0)
        clean_spec(off_level=5.0)  # boundary allowed

    def test_dwell_and_runs_bounds(self):
        with pytest.raises(SpecValidationError):
            clean_spec(dwell_s=(0.0, 100.0))
        with pytest.raises(SpecValidationError):
            clean_spec(dwell_s=(300.0, 100.0))
        with pytest.raises(SpecValidationError):
            clean_spec(runs_per_day=(3, 1))

    def test_sequences_use_known_modes_without_repeats(self):
        with pytest.raises(SpecValidationError):
            clean_spec(run_sequences=((1, 3),))
        with pytest.raises(SpecValidationError):
            clean_spec(run_sequences=((1, 1),))
        with pytest.raises(SpecValidationError):
            clean_spec(run_sequences=())

    def test_all_or_none_requires_full_programs(self):
        with pytest.raises(SpecValidationError):
            clean_spec(run_sequences=((1,),), all_or_none=True)
        clean_spec(run_sequences=((1, 2),), all_or_none=True)

    def test_noise_and_overshoot_bounds(self):
        with pytest.raises(SpecValidationError):
            clean_spec(noise_fraction=0.2)
        with pytest.raises(SpecValidationError):
            clean_spec(overshoot_w=(300.0, 200.0))
        with pytest.raises(SpecValidationError):
            clean_spec(overshoot_decay=1.0)

    def test_mode_names(self):
        assert mode_name(0) == "off"
        assert mode_name(1) == "on1"
        assert mode_name(3) == "on3"


class TestGenerateValidation:
    def test_needs_days_and_specs(self):
        with pytest.raises(SpecValidationError):
            generate([clean_spec()], days=0)
        with pytest.raises(SpecValidationError):
            generate([], days=1)

    def test_unique_ids(self):
        with pytest.raises(SpecValidationError):
            generate([clean_spec("a"), clean_spec("a")], days=1)

    def test_period_must_divide_a_day(self):
        with pytest.raises(SpecValidationError):
            generate([clean_spec()], days=1, period=7.0)


class TestConservation:
    def test_aggregate_is_exact_sum(self):
        result = generate(balanced_household(), days=2, seed=3)
        total = np.zeros(len(result.aggregate))
        for spec_id in [s.appliance_id for s in balanced_household()]:
            total += result.appliances[spec_id].values
        assert np.array_equal(result.aggregate.values, total)

    def test_lengths_and_grid(self):
        result = generate(demo_household(), days=2, seed=0)
        spd = int(86400.0 / result.period)
        assert len(result.aggregate) == 2 * spd
        for s in result.appliances.values():
            assert len(s) == 2 * spd
            assert s.sample_period == result.period


class TestDeterminism:
    def test_same_seed_identical(self):
        a = generate(demo_household(), days=2, seed=5)
        b = generate(demo_household(), days=2, seed=5)
        assert np.array_equal(a.aggregate.values, b.aggregate.values)
        assert a.truth == b.truth

    def test_different_seed_differs(self):
        a = generate(demo_household(), days=2, seed=5)
        b = generate(demo_household(), days=2, seed=6)
        assert not np.array_equal(a.aggregate.values, b.aggregate.values)


class TestSchedulingGuarantees:
    def _truth_switches(self, result):
        return sorted(t.index + 1 for t in result.truth)

    def test_global_switch_spacing(self):
        result = generate(balanced_household(), days=3, seed=7)
        switches = self._truth_switches(result)
        gaps = np.diff(switches)
        assert gaps.min() >= EVENT_GAP_SAMPLES

    def test_day_margins(self):
        result = generate(balanced_household(), days=3, seed=9)
        spd = int(86400.0 / result.period)
        for t in result.truth:
            offset = (t.index + 1) % spd
            assert DAY_MARGIN_SAMPLES <= offset <= spd - DAY_MARGIN_SAMPLES

    def test_minimum_dwell_on_clean_channel(self):
        result = generate(
            [clean_spec()], days=2, seed=11, jitter_fraction=0.0
        )
        values = result.appliances["unit"].values
        change = np.flatnonzero(np.diff(values)) + 1
        bounds = np.concatenate(([0], change, [len(values)]))
        run_lengths = np.diff(bounds)
        assert run_lengths.min() >= MIN_DWELL_SAMPLES

    def test_all_or_none_days_play_every_mode(self):
        result = generate(demo_household(), days=4, seed=13)
        spd = int(86400.0 / result.period)
        dw = [t for t in result.truth if t.appliance == "dishwasher"]
        by_day = {}
        for t in dw:
            by_day.setdefault((t.index + 1) // spd, []).append(t)
        assert by_day, "expected at least one dishwasher run in four days"
        for day_events in by_day.values():
            touched = {t.from_mode for t in day_events} | {
                t.to_mode for t in day_events
            }
            assert {"on1", "on2", "on3", "on4", "on5"} <= touched


class TestTruthRecovery:
    def test_clean_channel_round_trip_is_exact(self):
        result = generate(
            [clean_spec()], days=3, seed=17, jitter_fraction=0.0
        )
        _, events = filter_and_detect(result.appliances["unit"])
        got = [(e.index, e.magnitude) for e in events]
        want = [(t.index, t.magnitude) for t in result.truth]
        assert got == want

    def test_truth_index_is_last_old_level_sample(self):
        result = generate(
            [clean_spec()], days=2, seed=19, jitter_fraction=0.0
        )
        values = result.appliances["unit"].values
        spec = clean_spec()
        for t in result.truth:
            old = spec.level_of(int(t.from_mode[2:]) if t.from_mode != "off" else 0)
            new = spec.level_of(int(t.to_mode[2:]) if t.to_mode != "off" else 0)
            assert values[t.index] == pytest.approx(old)
            assert values[t.index + 1] == pytest.approx(new)

    def test_truth_points_conversion(self):
        result = generate([clean_spec()], days=1, seed=23)
        points = PointTable.of(result.truth)  # the events carry LabelPoint's four fields
        assert len(points) == len(result.truth)
        for p, t in zip(points, result.truth):
            assert p == LabelPoint(t.index, t.appliance, t.from_mode, t.to_mode)

    def test_noisy_aggregate_detection_is_perfect(self):
        result = generate(balanced_household(), days=2, seed=0)
        _, events = filter_and_detect(result.aggregate)
        preds = [LabelPoint(e.index, "x", "", "") for e in events]
        truth = [LabelPoint(t.index, "x", "", "") for t in result.truth]
        counts = match_events(preds, truth, tolerance=1)["x"]
        assert counts.fp == 0
        assert counts.fn == 0


class TestSpikes:
    def _twins(self):
        base = clean_spec("microwave", levels=(1480.0,), run_sequences=((1,),))
        spiked = ApplianceSpec(
            appliance_id="microwave",
            levels=(1480.0,),
            run_sequences=((1,),),
            noise_fraction=0.0,
            spike_rate_per_day=4.0,
            overshoot_w=(0.0, 0.0),
            runs_per_day=(1, 2),
        )
        a = generate([base], days=2, seed=29, jitter_fraction=0.0)
        b = generate([spiked], days=2, seed=29, jitter_fraction=0.0)
        return a, b

    def test_spikes_are_single_samples_clear_of_switches(self):
        plain, spiked = self._twins()
        diff = spiked.appliances["microwave"].values - plain.appliances["microwave"].values
        positions = np.flatnonzero(diff)
        assert positions.size > 0
        heights = diff[positions]
        assert heights.min() >= 4600.0
        assert heights.max() <= 6000.0
        switches = np.array(sorted(t.index + 1 for t in spiked.truth))
        for pos in positions:
            assert np.abs(switches - pos).min() >= SPIKE_GAP_SAMPLES
        assert np.diff(positions).min() >= SPIKE_GAP_SAMPLES if positions.size > 1 else True

    def test_spikes_do_not_change_detected_events(self):
        plain, spiked = self._twins()
        assert plain.truth == spiked.truth
        _, events = filter_and_detect(spiked.appliances["microwave"])
        got = [(e.index, round(e.magnitude)) for e in events]
        want = [(t.index, round(t.magnitude)) for t in spiked.truth]
        assert got == want


class TestOvershoots:
    def test_rising_switches_carry_decaying_tails(self):
        base = clean_spec("rfg", levels=(420.0,), run_sequences=((1,),))
        shot = ApplianceSpec(
            appliance_id="rfg",
            levels=(420.0,),
            run_sequences=((1,),),
            noise_fraction=0.0,
            spike_rate_per_day=0.0,
            overshoot_w=(510.0, 620.0),
            runs_per_day=(1, 2),
        )
        a = generate([base], days=2, seed=31, jitter_fraction=0.0)
        b = generate([shot], days=2, seed=31, jitter_fraction=0.0)
        diff = b.appliances["rfg"].values - a.appliances["rfg"].values
        rises = [t.index + 1 for t in b.truth if t.to_mode != "off"]
        assert rises
        for at in rises:
            h = diff[at]
            assert 510.0 <= h <= 620.0
            # geometric tail at the configured decay
            assert diff[at + 1] == pytest.approx(h * 0.25)
            assert diff[at + 2] == pytest.approx(h * 0.0625)
        falls = [t.index + 1 for t in b.truth if t.to_mode == "off"]
        for at in falls:
            assert diff[at] == 0.0


class TestStockHouseholds:
    def test_demo_roster(self):
        specs = demo_household()
        ids = [s.appliance_id for s in specs]
        assert len(ids) == len(set(ids)) == 7
        assert "dishwasher" in ids and "refrigerator" in ids

    def test_balanced_roster(self):
        specs = balanced_household()
        ids = [s.appliance_id for s in specs]
        assert len(ids) == len(set(ids)) == 7
