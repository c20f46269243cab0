"""Synthetic household generator: schedules, artifacts, and ground truth.

The generator is the test bed for everything downstream, so these tests
pin its own guarantees: exact aggregate conservation, seeded determinism,
spacing of switches and spikes, dwell and margin floors, and exact truth
recovery on noise-free channels.
"""

import numpy as np
import pytest

from eventnilm.config import RunConfig
from eventnilm.dataset import write_dataset
from eventnilm.errors import SpecValidationError
from eventnilm.evaluation import LabelPoint, PointTable, match_events
from eventnilm.filtering import filter_and_detect
from eventnilm.pipeline import train_models
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

from helpers import reference_generate, reference_write_dataset, truth_events


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

    @pytest.mark.parametrize("bad", ["\t", "\n", "\u2028"])
    def test_id_must_fit_one_report_cell(self, bad):
        """labels.dat, the manifest and ground_truth.tsv could not hold it."""
        with pytest.raises(SpecValidationError, match="holds a tab or line break"):
            clean_spec(app=f"lamp{bad}x")

    def test_id_with_a_comma_rejected(self):
        """The manifest lists appliances comma-separated: load_dataset would refuse it."""
        with pytest.raises(SpecValidationError, match="holds a comma or edge space"):
            clean_spec(app="lamp,x")

    @pytest.mark.parametrize("app", [" lamp", "lamp ", "\u00a0lamp"])
    def test_id_with_edge_whitespace_rejected(self, app):
        """The manifest's names are stripped: it would load back as 'lamp'."""
        with pytest.raises(SpecValidationError, match="holds a comma or edge space"):
            clean_spec(app=app)

    def test_off_level_bounded(self):
        with pytest.raises(SpecValidationError):
            clean_spec(off_level=6.0)
        with pytest.raises(SpecValidationError, match="OFF level not under the OFF threshold"):
            clean_spec(off_level=RunConfig.off_threshold)  # training would call it on1
        with pytest.raises(SpecValidationError):
            clean_spec(off_level=-1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_standby_just_under_the_bound_trains_as_off(self, seed):
        spec = clean_spec(
            app="lamp", levels=(60.0,), run_sequences=((1,),), off_level=4.99, runs_per_day=(3, 5)
        )
        result = generate([spec], days=4, seed=seed, jitter_fraction=0.0)
        (model,) = train_models(result.appliances, result.aggregate, RunConfig()).models
        assert sorted(t.key for t in model.transitions) == [("off", "on1"), ("on1", "off")]

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

    @pytest.mark.parametrize("period, samples", [(3600.0, 24), (4320.0, 20), (86400.0, 1)])
    def test_period_must_leave_room_between_the_day_margins(self, period, samples):
        for household in (demo_household, balanced_household):
            with pytest.raises(SpecValidationError, match=f"gives {samples} samples per day"):
                generate(household(), days=2, period=period, seed=0)

    def test_shortest_day_the_margins_allow(self):
        # 25 samples a day: one sample between the margins for each spike
        for household in (demo_household, balanced_household):
            result = generate(household(), days=3, period=3456.0, seed=0)
            assert len(result.aggregate) == 3 * 25


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
        assert truth_events(a) == truth_events(b)

    def test_different_seed_differs(self):
        a = generate(demo_household(), days=2, seed=5)
        b = generate(demo_household(), days=2, seed=6)
        assert not np.array_equal(a.aggregate.values, b.aggregate.values)


class TestSchedulingGuarantees:
    def _truth_switches(self, result):
        return sorted(t.index + 1 for t in truth_events(result))

    def test_global_switch_spacing(self):
        result = generate(balanced_household(), days=3, seed=7)
        switches = self._truth_switches(result)
        gaps = np.diff(switches)
        assert gaps.min() >= EVENT_GAP_SAMPLES

    def test_day_margins(self):
        result = generate(balanced_household(), days=3, seed=9)
        spd = int(86400.0 / result.period)
        for t in truth_events(result):
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
        dw = [t for t in truth_events(result) if t.appliance == "dishwasher"]
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
        want = [(t.index, t.magnitude) for t in truth_events(result)]
        assert got == want

    def test_truth_index_is_last_old_level_sample(self):
        result = generate(
            [clean_spec()], days=2, seed=19, jitter_fraction=0.0
        )
        values = result.appliances["unit"].values
        spec = clean_spec()
        for t in truth_events(result):
            old = spec.level_of(int(t.from_mode[2:]) if t.from_mode != "off" else 0)
            new = spec.level_of(int(t.to_mode[2:]) if t.to_mode != "off" else 0)
            assert values[t.index] == pytest.approx(old)
            assert values[t.index + 1] == pytest.approx(new)

    def test_truth_points_conversion(self):
        result = generate([clean_spec()], days=1, seed=23)
        points = PointTable.of(truth_events(result))  # the events carry LabelPoint's four fields
        assert len(points) == len(truth_events(result))
        for p, t in zip(points, truth_events(result)):
            assert p == LabelPoint(t.index, t.appliance, t.from_mode, t.to_mode)

    def test_noisy_aggregate_detection_is_perfect(self):
        result = generate(balanced_household(), days=2, seed=0)
        _, events = filter_and_detect(result.aggregate)
        preds = [LabelPoint(e.index, "x", "", "") for e in events]
        truth = [LabelPoint(t.index, "x", "", "") for t in truth_events(result)]
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
        switches = np.array(sorted(t.index + 1 for t in truth_events(spiked)))
        for pos in positions:
            assert np.abs(switches - pos).min() >= SPIKE_GAP_SAMPLES
        assert np.diff(positions).min() >= SPIKE_GAP_SAMPLES if positions.size > 1 else True

    def test_spikes_do_not_change_detected_events(self):
        plain, spiked = self._twins()
        assert truth_events(plain) == truth_events(spiked)
        _, events = filter_and_detect(spiked.appliances["microwave"])
        got = [(e.index, round(e.magnitude)) for e in events]
        want = [(t.index, round(t.magnitude)) for t in truth_events(spiked)]
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
        rises = [t.index + 1 for t in truth_events(b) if t.to_mode != "off"]
        assert rises
        for at in rises:
            h = diff[at]
            assert 510.0 <= h <= 620.0
            # geometric tail at the configured decay
            assert diff[at + 1] == pytest.approx(h * 0.25)
            assert diff[at + 2] == pytest.approx(h * 0.0625)
        falls = [t.index + 1 for t in truth_events(b) if t.to_mode == "off"]
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


def random_spec(rng, name):
    """A seeded spec over the generator's options: several or full-program
    sequences, an OFF level, spikes and overshoots."""
    levels = np.cumsum(rng.uniform(60.0, 900.0, rng.integers(1, 5))).round(1)
    modes = list(range(1, len(levels) + 1))
    all_or_none = len(modes) > 1 and rng.random() < 0.3
    sequences = []
    for _ in range(rng.integers(1, 4)):
        if all_or_none:
            seq = [int(m) for m in rng.permutation(modes)]
        else:
            seq = [int(rng.choice(modes))]
            for _ in range(rng.integers(0, 4)):
                seq.append(int(rng.choice([m for m in modes if m != seq[-1]] or modes)))
            seq = [m for i, m in enumerate(seq) if i == 0 or m != seq[i - 1]]
        sequences.append(tuple(seq))
    dwell = float(rng.uniform(10.0, 900.0))
    runs = int(rng.integers(0, 4))
    return ApplianceSpec(
        appliance_id=name,
        levels=tuple(float(l) for l in levels),
        run_sequences=tuple(sequences),
        dwell_s=(dwell, dwell + float(rng.uniform(0.0, 1200.0))),
        runs_per_day=(runs, runs + int(rng.integers(0, 12))),
        off_level=float(rng.choice([0.0, rng.uniform(0.0, 5.0)])),
        spike_rate_per_day=float(rng.choice([0.0, rng.uniform(0.5, 6.0)])),
        overshoot_w=(0.0, 0.0) if rng.random() < 0.4 else (200.0, float(rng.uniform(200.0, 700.0))),
        overshoot_decay=float(rng.uniform(0.05, 0.9)),
        noise_fraction=float(rng.uniform(0.0, 0.05)),
        all_or_none=all_or_none,
    )


class TestReferenceEquivalence:
    """``generate`` makes the draws of the one-draw-per-call generator, in its
    order, so its signals and truth are the same bytes."""

    @staticmethod
    def assert_same(result, reference):
        values, total, truth = reference
        assert sorted(result.appliances) == sorted(values)
        for name, v in values.items():
            assert result.appliances[name].values.tobytes() == v.tobytes()
        assert result.aggregate.values.tobytes() == total.tobytes()
        assert truth_events(result) == truth

    def test_random_specs(self, tmp_path):
        rng = np.random.default_rng(2024)
        seen = set()
        for trial in range(100):
            specs = [random_spec(rng, f"app{i}") for i in range(rng.integers(1, 5))]
            period = float(rng.choice([6.0, 20.0, 60.0]))
            days, seed = int(rng.integers(1, 6)), int(rng.integers(0, 2**31))
            jitter = float(rng.choice([0.0, 0.015]))
            result = generate(specs, days, period, seed, jitter)
            self.assert_same(result, reference_generate(specs, days, period, seed, jitter))
            if trial < 10:  # fractional magnitudes, too, as the per-event writer wrote them
                write_dataset(tmp_path / "bulk", result, (0, 0), (0, 0))
                reference_write_dataset(tmp_path / "rows", result, (0, 0), (0, 0))
                truth = [(tmp_path / d / "ground_truth.tsv").read_bytes() for d in ("bulk", "rows")]
                assert truth[0] == truth[1]
            for spec in specs:
                seen |= {
                    ("sequences", len(spec.run_sequences) > 1),
                    ("all_or_none", spec.all_or_none),
                    ("off_level", spec.off_level > 0),
                    ("spikes", spec.spike_rate_per_day > 0),
                    ("overshoots", spec.overshoot_w[1] > 0),
                }
            seen |= {("period", period), ("days", days)}
        options = ("sequences", "all_or_none", "off_level", "spikes", "overshoots")
        assert {(o, flag) for o in options for flag in (False, True)} <= seen
        assert {("period", p) for p in (6.0, 20.0, 60.0)} <= seen
        assert {("days", d) for d in range(1, 6)} <= seen

    @pytest.mark.parametrize("household", [demo_household, balanced_household])
    def test_stock_households(self, household):
        for seed, period, days in [(0, 20.0, 4), (7, 6.0, 1), (3, 60.0, 6)]:
            result = generate(household(), days, period, seed)
            self.assert_same(result, reference_generate(household(), days, period, seed))

    def test_crowded_days_and_a_level_equal_to_off(self):
        """Runs that crowd each day to its margins, so some end near midnight
        and the next day's start near it; and a mode as low as OFF, whose
        switch from OFF is no rise and gets no overshoot."""
        crowded = ApplianceSpec(
            appliance_id="pump",
            levels=(300.0, 700.0),
            run_sequences=((1,), (1, 2), (2, 1)),
            dwell_s=(10.0, 200.0),
            runs_per_day=(20, 40),
            spike_rate_per_day=8.0,
            overshoot_w=(100.0, 300.0),
        )
        flat = ApplianceSpec(
            appliance_id="lamp",
            levels=(4.0, 60.0),
            run_sequences=((1, 2), (2, 1)),
            off_level=4.0,
            runs_per_day=(5, 15),
            overshoot_w=(20.0, 40.0),
        )
        for seed in range(4):
            result = generate([crowded, flat], 6, 60.0, seed)
            self.assert_same(result, reference_generate([crowded, flat], 6, 60.0, seed))

    def test_truth_columns_are_read_only_int64(self):
        result = generate(demo_household(), days=4, seed=5)
        _, _, truth = reference_generate(demo_household(), days=4, seed=5)
        assert truth_events(result) == truth
        assert len(result.truth_index) == len(truth)
        for column in (result.truth_index, result.truth_code):
            assert column.dtype == np.int64 and not column.flags.writeable
