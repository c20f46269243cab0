"""End-to-end glue: training, report formats, scoring, plot exports."""

import numpy as np
import pytest

from eventnilm.classifier import (
    STAGES,
    Cycle,
    LabelRow,
    LabelTable,
    all_off_threshold,
    classify,
    segment_cycles,
)
from eventnilm.errors import ParseError
from eventnilm.evaluation import ConfusionCounts, LabelPoint, PointTable, match_events
from eventnilm.filtering import filter_and_detect
from eventnilm.pipeline import (
    build_ground_truth,
    evaluate_points,
    format_event_report,
    format_metrics,
    parse_event_report,
    train_models,
    write_plot_data,
)
from eventnilm.config import RunConfig
from eventnilm.modes import OFF_MODE
from eventnilm.signals import EventRecord
from eventnilm.dataset import slice_days
from eventnilm.synth import balanced_household, demo_household, generate

from helpers import (
    ev,
    reference_build_ground_truth,
    reference_event_report,
    reference_events_table,
    reference_signal_tsv,
    sig,
    table,
    two_mode_model,
)


def day_signal(run_slices, level, spd=24, period=3600.0, start=0.0):
    """One or more days of a single-level appliance, off elsewhere."""
    total = spd * max(hi // spd + 1 for _, hi in run_slices)
    vals = np.zeros(total)
    for lo, hi in run_slices:
        vals[lo:hi] = level
    return sig(vals, start=start, period=period)


class TestTrainModels:
    def test_learns_each_appliance(self):
        result = generate(balanced_household(), days=2, seed=5)
        out = train_models(result.appliances, result.aggregate, RunConfig())
        assert [m.appliance_id for m in out.models] == sorted(result.appliances)
        assert out.notes == []
        for model in out.models:
            assert model.transitions
            assert model.participation
            modes = [s.mode for s in model.states.states]
            assert modes.count(OFF_MODE) == 1

    def test_flat_channel_gets_off_only_model(self):
        result = generate(balanced_household()[:2], days=2, seed=6)
        apps = dict(result.appliances)
        apps["idle"] = sig(
            np.zeros(len(result.aggregate)),
            start=result.aggregate.start_time,
            period=result.period,
        )
        out = train_models(apps, result.aggregate, RunConfig())
        by_id = {m.appliance_id: m for m in out.models}
        assert by_id["idle"].transitions == ()
        assert by_id["idle"].participation == {}
        assert by_id["idle"].behaviors is None
        assert out.notes == ["idle: no training events; OFF-only model"]

    def test_off_only_note_gives_the_reason(self):
        # the appliance runs on both days, but the aggregate it is trained
        # against is flat, so its days hold transitions and zero total events
        s = day_signal([(6, 12), (30, 36)], 800.0, spd=24)
        flat = sig(np.zeros(len(s)), period=s.sample_period)
        out = train_models({"heater": s}, flat, RunConfig())
        assert out.models[0].transitions == ()
        assert out.notes == [
            "heater: day has appliance transitions but zero total events; OFF-only model"
        ]

    def test_participation_uses_aggregate_day_totals(self):
        # One appliance, two days, one cycle per day. The aggregate equals
        # the channel, so each day has 2 events and each key share is 1/2.
        s = day_signal([(6, 12), (30, 36)], 800.0, spd=24)
        out = train_models({"heater": s}, s, RunConfig())
        model = out.models[0]
        assert set(model.participation.values()) == {0.5}


class TestEventReport:
    def _labeled(self):
        rise, fall = two_mode_model("fridge", 90.0, 110.0).transitions
        return LabelTable(
            table([ev(4, 0, 100), ev(19, 100, 0)]),
            (LabelRow("fridge", rise), LabelRow("fridge", fall)),
            [0, 1],
            [STAGES.index("containment"), STAGES.index("participation")],
        )

    def test_round_trip(self, tmp_path):
        signal = sig(np.zeros(40), start=1000.0, period=2.0)
        text = format_event_report(self._labeled(), signal)
        p = tmp_path / "report.tsv"
        p.write_text(text, encoding="utf-8")
        points = parse_event_report(p)
        assert list(points) == [
            LabelPoint(4, "fridge", OFF_MODE, "on1"),
            LabelPoint(19, "fridge", "on1", OFF_MODE),
        ]

    def test_format_fields(self):
        signal = sig(np.zeros(40), start=1000.0, period=2.0)
        lines = format_event_report(self._labeled(), signal).splitlines()
        assert lines[0] == "# event report 1"
        assert lines[1].split("\t") == [
            "timestamp",
            "index",
            "magnitude",
            "appliance",
            "from_mode",
            "to_mode",
            "stage",
        ]
        assert lines[2].split("\t") == [
            "1008",
            "4",
            "100",
            "fridge",
            OFF_MODE,
            "on1",
            "containment",
        ]

    def test_empty_report_parses(self, tmp_path):
        signal = sig(np.zeros(4))
        p = tmp_path / "r.tsv"
        empty = LabelTable(table([]), (), [], [])
        p.write_text(format_event_report(empty, signal), encoding="utf-8")
        assert list(parse_event_report(p)) == []

    @pytest.mark.parametrize("seed", [0, 1])
    def test_text_equals_per_event_reference(self, seed):
        result = generate(demo_household(), days=6, seed=seed)
        base = result.aggregate.start_time
        train = {n: slice_days(s, (0, 2), base) for n, s in result.appliances.items()}
        models = train_models(train, slice_days(result.aggregate, (0, 2), base), RunConfig()).models
        aggregate = slice_days(result.aggregate, (3, 5), base)
        labeled, _ = classify(aggregate, models)
        assert len({le.stage for le in labeled}) > 1
        odd_grid = sig(aggregate.values, start=1.6e9 + 0.25, period=0.1)
        for signal in (aggregate, odd_grid):
            assert format_event_report(labeled, signal) == reference_event_report(labeled, signal)

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("# event report 1\n1\t2\t3\n", encoding="utf-8")
        with pytest.raises(ParseError, match="7 tab-separated"):
            parse_event_report(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            parse_event_report(tmp_path / "r.tsv")

    @pytest.mark.parametrize("index", ["x", "1.5", str(2**63), str(-(2**63) - 1)])
    def test_index_must_be_a_64_bit_integer(self, tmp_path, index):
        p = tmp_path / "r.tsv"
        p.write_text(f"# event report 1\n0\t{index}\t5\tfridge\toff\ton1\tcontainment\n")
        with pytest.raises(ParseError, match=":2: index must be an integer"):
            parse_event_report(p)


class TestBuildGroundTruth:
    def test_labels_submetered_events(self):
        s = day_signal([(6, 12)], 500.0, spd=24)
        model = two_mode_model("heater", 490.0, 510.0)
        points = build_ground_truth({"heater": s}, [model])
        assert [p.appliance for p in points] == ["heater", "heater"]
        assert points[0].key == ("heater", OFF_MODE, "on1")
        assert points[1].key == ("heater", "on1", OFF_MODE)
        assert points[0].index < points[1].index

    def test_offset_shifts_indices(self):
        s = day_signal([(6, 12)], 500.0, spd=24)
        model = two_mode_model("heater", 490.0, 510.0)
        base = build_ground_truth({"heater": s}, [model])
        moved = build_ground_truth({"heater": s}, [model], offset=1000)
        assert [p.index - 1000 for p in moved] == [p.index for p in base]

    def test_off_only_models_skipped(self):
        s = day_signal([(6, 12)], 500.0, spd=24)
        model = two_mode_model("heater", 490.0, 510.0)
        quiet = two_mode_model("lamp", 40.0, 60.0)
        flat = sig(np.zeros(len(s)), period=s.sample_period)
        points = build_ground_truth({"heater": s, "lamp": flat}, [model, quiet])
        assert {p.appliance for p in points} == {"heater"}

    def test_no_labeled_appliance_gives_no_points(self):
        s = day_signal([(6, 12)], 500.0, spd=24)
        assert list(build_ground_truth({"heater": s}, [])) == []
        assert list(build_ground_truth({}, [two_mode_model("heater", 490.0, 510.0)])) == []

    @pytest.mark.parametrize("household", ["demo", "balanced"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_per_event_reference(self, household, seed):
        result = generate(
            demo_household() if household == "demo" else balanced_household(), days=4, seed=seed
        )
        base = result.aggregate.start_time
        models = train_models(
            {n: slice_days(s, (0, 1), base) for n, s in result.appliances.items()},
            slice_days(result.aggregate, (0, 1), base),
            RunConfig(),
        ).models
        test = {n: slice_days(s, (2, 3), base) for n, s in result.appliances.items()}
        for offset in (0, 17):
            points = build_ground_truth(test, models, offset)
            assert list(points) == reference_build_ground_truth(test, models, offset)
            assert all(type(p.index) is int for p in points)
        assert len({p.appliance for p in points}) > 1


class TestEvaluatePoints:
    def test_perfect_match(self):
        truth = [
            LabelPoint(5, "a", "off", "on1"),
            LabelPoint(9, "a", "on1", "off"),
            LabelPoint(20, "b", "off", "on1"),
        ]
        counts, avg = evaluate_points(list(truth), truth, tolerance=1)
        assert avg == 1.0
        assert set(counts) == {"a", "b"}
        assert counts["a"] == ConfusionCounts(tp=2, fp=0, fn=0, tn=1)

    def test_tolerance_applied(self):
        truth = [LabelPoint(5, "a", "off", "on1")]
        pred = [LabelPoint(7, "a", "off", "on1")]
        loose, _ = evaluate_points(pred, truth, tolerance=2)
        tight, _ = evaluate_points(pred, truth, tolerance=1)
        assert loose["a"].tp == 1
        assert tight["a"].tp == 0


class TestFormatMetrics:
    def test_table_layout(self):
        counts = {
            "b": ConfusionCounts(tp=8, fp=2, fn=2, tn=0),
            "a": ConfusionCounts(tp=3, fp=0, fn=0, tn=1),
        }
        lines = format_metrics(counts).splitlines()
        assert lines[0] == "appliance\ttp\tfp\tfn\ttn\tprecision\trecall\tf_measure"
        assert lines[1] == "a\t3\t0\t0\t1\t1.0000\t1.0000\t1.0000"
        assert lines[2] == "b\t8\t2\t2\t0\t0.8000\t0.8000\t0.8000"
        assert lines[3] == "average_f\t0.9000"
        assert len(lines) == 4

    def test_empty_counts(self):
        assert format_metrics({}) == (
            "appliance\ttp\tfp\tfn\ttn\tprecision\trecall\tf_measure\n"
            "average_f\t0.0000\n"
        )


class TestWritePlotData:
    def _signal(self):
        vals = np.zeros(30)
        vals[10:20] = 400.0
        return sig(vals, start=100.0, period=2.0)

    def test_signal_and_event_files(self, tmp_path):
        raw = self._signal()
        filtered, events = filter_and_detect(raw)
        written = write_plot_data(tmp_path / "plots", raw, filtered, events)
        assert [p.name for p in written] == ["signal.tsv", "events.tsv"]
        sig_lines = written[0].read_text().splitlines()
        assert sig_lines[0] == "time\traw\tfiltered"
        assert len(sig_lines) == 1 + len(raw)
        assert sig_lines[1] == "100\t0\t0"
        ev_lines = written[1].read_text().splitlines()
        assert len(ev_lines) == 1 + len(events)
        first = events[0]
        assert ev_lines[1].split("\t") == [
            str(first.index),
            "118",
            "400",
            "0",
            "400",
        ]

    def test_cycle_file(self, tmp_path):
        raw = self._signal()
        filtered, events = filter_and_detect(raw)
        assert len(events) == 2
        cycles = [Cycle(0, 1)]
        written = write_plot_data(tmp_path / "p", raw, filtered, events, cycles)
        assert written[2].name == "cycles.tsv"
        lines = written[2].read_text().splitlines()
        assert lines[0] == "start_event\tend_event\tstart_time\tend_time"
        t0 = raw.time_at(events[0].index)
        t1 = raw.time_at(events[1].post_index)
        assert lines[1] == f"0\t1\t{t0:.0f}\t{t1:.0f}"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_text_equals_per_sample_reference(self, seed, tmp_path):
        result = generate(demo_household(), days=2, seed=seed)
        signals = [result.aggregate, *result.appliances.values()]
        vals = signals[1].values.copy()
        vals[vals == 0] = -0.0  # signed zeros format as "0"
        signals.append(sig(vals, start=1.6e9 + 0.25, period=0.1))
        for raw in signals:
            filtered, events = filter_and_detect(raw)
            written = write_plot_data(tmp_path / "p", raw, filtered, events)
            assert written[0].read_text() == reference_signal_tsv(raw, filtered)
            assert written[1].read_text() == reference_events_table(raw, events)


def test_training_and_plot_data_build_no_event_records(tmp_path, monkeypatch):
    """Training and the plot files read the event columns, never row objects."""
    result = generate(demo_household(), days=6, seed=0)
    raw = result.aggregate
    filtered, events = filter_and_detect(raw)

    def refuse(*args, **kwargs):
        raise AssertionError("EventRecord built on a columnar path")

    monkeypatch.setattr(EventRecord, "__init__", refuse)
    trained = train_models(result.appliances, raw, RunConfig())
    cycles = segment_cycles(filtered, events, all_off_threshold(trained.models))
    written = write_plot_data(tmp_path, raw, filtered, events, cycles)
    monkeypatch.undo()
    assert trained.notes == [] and all(m.behaviors for m in trained.models)
    assert len(cycles) > 1
    lines = written[2].read_text().splitlines()
    first, last = cycles[-1].start_event, cycles[-1].end_event
    t0, t1 = raw.time_at(events[first].index), raw.time_at(events[last].post_index)
    assert lines[-1] == f"{first}\t{last}\t{t0:.0f}\t{t1:.0f}"


def test_scoring_builds_no_label_points(monkeypatch):
    """Ground truth and matching work on columns, never on row objects."""
    result = generate(balanced_household(), days=3, seed=0)
    base = result.aggregate.start_time
    train = {n: slice_days(s, (0, 1), base) for n, s in result.appliances.items()}
    models = train_models(train, slice_days(result.aggregate, (0, 1), base), RunConfig()).models
    test = {n: slice_days(s, (2, 2), base) for n, s in result.appliances.items()}
    predicted = PointTable.of(reference_build_ground_truth(test, models))

    def refuse(*args, **kwargs):
        raise AssertionError("LabelPoint built on a columnar path")

    monkeypatch.setattr(LabelPoint, "__init__", refuse)
    truth = build_ground_truth(test, models)
    counts = match_events(predicted, truth)
    monkeypatch.undo()
    assert len(truth) > 10 and truth == predicted
    assert all(c.fp == c.fn == 0 for c in counts.values()) and len(counts) > 1
