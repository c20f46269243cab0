"""End-to-end glue: training, report formats, scoring, plot exports."""

import numpy as np
import pytest

from eventnilm.classifier import (
    STAGES,
    Cycle,
    CycleTable,
    LabeledEvent,
    LabelRow,
    LabelTable,
    all_off_threshold,
    classify,
    segment_cycles,
)
from eventnilm.errors import AlignmentError, ParseError
from eventnilm.evaluation import ConfusionCounts, LabelPoint, PointTable, match_events
from eventnilm.features import day_columns
from eventnilm.filtering import filter_and_detect, filtered_events
from eventnilm.model_io import load_models, save_models
from eventnilm.pipeline import (
    build_ground_truth,
    format_event_report,
    format_metrics,
    parse_event_report,
    train_models,
    write_plot_data,
)
from eventnilm.config import RunConfig
from eventnilm.modes import OFF_MODE
from eventnilm.signals import EventRecord, EventTable, PowerSignal, aggregate
from eventnilm.dataset import slice_days
from eventnilm.synth import balanced_household, demo_household, generate

from helpers import (
    cycle_table,
    ev,
    evaluate_points,
    reference_build_ground_truth,
    reference_cycles_tsv,
    reference_event_report,
    reference_events_table,
    reference_signal_tsv,
    sig,
    table,
    table_numbers,
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
        # the heater steps between 800 W and 850 W, which cluster into one
        # state, so its events change no mode
        s = day_signal([(6, 12), (30, 36)], 50.0, spd=24)
        s = sig(s.values + 800.0, period=s.sample_period)
        out = train_models({"heater": s}, s, RunConfig())
        assert len(filter_and_detect(s)[1]) == 4
        assert out.models[0].transitions == ()
        assert out.notes == [
            "heater: no usable mode transitions in training data; OFF-only model"
        ]

    def test_quiet_aggregate_day_is_skipped(self):
        """On day 1, b's 20 W steps ride on a's 2000 W run, under the
        aggregate's event threshold: the day has b's mode changes but no
        aggregate event, so b's shares come from days 0 and 2 alone."""
        a, b = np.zeros(3 * 1440), np.zeros(3 * 1440)
        for lo, hi in [(1000, 1100), (1300, 3080), (3480, 3580)]:
            a[lo:hi] = 2000.0
        for lo in [100, 400, 1540, 1840, 2240, 3780, 4080]:
            b[lo : lo + 60] = 20.0
        apps = {"a": sig(a, period=60.0), "b": sig(b, period=60.0)}
        agg = aggregate(list(apps.values()))
        assert set(day_columns(filtered_events(agg).index, agg)) == {0, 2}
        out = train_models(apps, agg, RunConfig())
        assert out.notes == []
        b_model = out.models[1]
        assert [t.key for t in b_model.transitions] == [(OFF_MODE, "on1"), ("on1", OFF_MODE)]
        # two of each day's seven aggregate events, on days 0 and 2
        assert b_model.participation == {
            (OFF_MODE, "on1"): pytest.approx(2 / 7),
            ("on1", OFF_MODE): pytest.approx(2 / 7),
        }

    @pytest.mark.parametrize("case", ["no events", "no mode changes"])
    def test_off_only_model_spans_the_filtered_channel(self, tmp_path, case):
        """The one state is OFF, with the filtered channel's range, mean and
        sample count, and the model file round-trips byte for byte."""
        heater = day_signal([(6, 12), (30, 36)], 50.0, spd=24)
        if case == "no events":  # an idle 2.5 W standby draw
            s = sig(np.full(len(heater), 2.5), period=heater.sample_period)
        else:  # steps between 800 W and 850 W, one state
            s = sig(heater.values + 800.0, period=heater.sample_period)
        out = train_models({"heater": s}, heater, RunConfig())
        filtered, events = filter_and_detect(s)
        assert (len(events) == 0) == (case == "no events")
        [model] = out.models
        [state] = model.states.states
        assert state.mode == OFF_MODE
        assert (state.low, state.high) == (filtered.values.min(), filtered.values.max())
        assert (state.centroid, state.size) == (filtered.values.mean(), len(filtered))
        assert model.transitions == () and model.participation == {}
        assert model.behaviors is None
        save_models(tmp_path / "a.json", out.models)
        assert load_models(tmp_path / "a.json") == out.models
        save_models(tmp_path / "b.json", load_models(tmp_path / "a.json"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_appliance_off_the_aggregate_grid_rejected(self):
        """Days count from each signal's first sample, so an appliance must
        share the aggregate's grid for its days to be the aggregate's."""
        s = day_signal([(6, 12), (30, 36)], 800.0, spd=24)
        shifted = sig(s.values, start=s.start_time + s.sample_period, period=s.sample_period)
        for off in (shifted, sig(s.values[:-1], period=s.sample_period)):
            with pytest.raises(AlignmentError, match="'heater' is not on the aggregate's grid"):
                train_models({"fan": s, "heater": off}, s, RunConfig())

    def test_participation_uses_aggregate_day_totals(self):
        # One appliance, two days, one cycle per day. The aggregate equals
        # the channel, so each day has 2 events and each key share is 1/2.
        s = day_signal([(6, 12), (30, 36)], 800.0, spd=24)
        out = train_models({"heater": s}, s, RunConfig())
        model = out.models[0]
        assert set(model.participation.values()) == {0.5}


class TestEventReport:
    MODELS = [two_mode_model("fridge", 90.0, 110.0)]

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
        points = parse_event_report(p, self.MODELS, 40)
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
        assert list(parse_event_report(p, self.MODELS, 4)) == []

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
            parse_event_report(p, self.MODELS, 40)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            parse_event_report(tmp_path / "r.tsv", self.MODELS, 40)

    @pytest.mark.parametrize("index", ["x", "1.5", str(2**63), str(-(2**63) - 1)])
    def test_index_must_be_a_64_bit_integer(self, tmp_path, index):
        p = tmp_path / "r.tsv"
        p.write_text(f"# event report 1\n0\t{index}\t5\tfridge\toff\ton1\tcontainment\n")
        with pytest.raises(ParseError, match=":2: index must be an integer"):
            parse_event_report(p, self.MODELS, 40)


    def test_labels_and_indices_checked_against_models_and_signal(self, tmp_path):
        p = tmp_path / "r.tsv"
        rows = ["0\t4\t100\tfridge\toff\ton1\tcontainment", "0\t19\t-100\tfridge\ton1\toff\tx"]
        p.write_text("\n".join(["# event report 1", *rows]) + "\n", encoding="utf-8")
        assert len(parse_event_report(p, self.MODELS, 20)) == 2
        with pytest.raises(ParseError, match=":3: index 19 is outside the test signal's 19"):
            parse_event_report(p, self.MODELS, 19)
        for label in ["oven\toff\ton1", "fridge\ton1\ton2"]:
            shown = label.replace("\t", " ")
            p.write_text(f"{rows[0]}\n0\t19\t5\t{label}\tx\n", encoding="utf-8")
            with pytest.raises(ParseError, match=f":2: no model has the label {shown}"):
                parse_event_report(p, self.MODELS, 20)


class TestBuildGroundTruth:
    def test_labels_submetered_events(self):
        s = day_signal([(6, 12)], 500.0, spd=24)
        model = two_mode_model("heater", 490.0, 510.0)
        points = build_ground_truth({"heater": s}, [model])
        assert [p.appliance for p in points] == ["heater", "heater"]
        assert points[0].key == ("heater", OFF_MODE, "on1")
        assert points[1].key == ("heater", "on1", OFF_MODE)
        assert points[0].index < points[1].index

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
        points = build_ground_truth(test, models)
        assert list(points) == reference_build_ground_truth(test, models)
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
        cycles = cycle_table([Cycle(0, 1)])
        written = write_plot_data(tmp_path / "p", raw, filtered, events, cycles)
        assert written[2].name == "cycles.tsv"
        lines = written[2].read_text().splitlines()
        assert lines[0] == "start_event\tend_event\tstart_time\tend_time"
        t0 = raw.time_at(events[0].index)
        t1 = raw.time_at(events[1].post_index)
        assert lines[1] == f"0\t1\t{t0:.0f}\t{t1:.0f}"

    @pytest.mark.parametrize("seed", range(4))
    def test_cycle_file_equals_per_cycle_reference(self, seed, tmp_path):
        """Random events and cycles on a grid whose times are whole above
        2**53, whole below it from a start of -0.0, or not whole; at seed 3,
        no events and no cycles."""
        rng = np.random.default_rng(seed)
        start, period = [(2.0**60, 1024.0), (-0.0, 6.0), (1.6e9 + 0.25, 0.1), (0.0, 1.0)][seed]
        raw = sig(np.zeros(50), start=start, period=period)
        n = 0 if seed == 3 else int(rng.integers(1, 40))
        index = np.sort(rng.integers(0, 2**40, n))
        index[:1] = 0
        pre, magnitude = rng.integers(0, 900, n) * 1.0, rng.choice([-1.0, 1.0], n)
        events = EventTable(index, magnitude, pre, pre + magnitude, index + 1)
        starts = np.sort(rng.integers(0, max(n, 1), n // 2))
        cycles = CycleTable(starts, np.minimum(starts + rng.integers(0, 3, n // 2), n - 1))
        written = write_plot_data(tmp_path / "p", raw, raw, events, cycles)
        assert written[2].read_text() == reference_cycles_tsv(raw, events, cycles)

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


def test_only_value_readers_build_filtered_signals(monkeypatch):
    """Ground truth and the training aggregate read only the filter's events.
    Training builds the dense filtered copy once per appliance channel, whose
    samples it clusters, or whose range an OFF-only model takes when the
    channel has no events; never for the aggregate or a truth channel."""
    result = generate(demo_household(), days=3, seed=0)
    built = []
    replace_values = PowerSignal.replace_values

    def spy(self, *args, **kwargs):
        built.append(self.source_id)
        return replace_values(self, *args, **kwargs)

    monkeypatch.setattr(PowerSignal, "replace_values", spy)
    trained = train_models(result.appliances, result.aggregate, RunConfig())
    assert built == [result.appliances[n].source_id for n in sorted(result.appliances)]
    assert "aggregate" not in built
    assert trained.notes == ["dishwasher: no training events; OFF-only model"]
    built.clear()
    truth = build_ground_truth(result.appliances, trained.models)
    assert built == [] and len(truth) > 10


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


def test_library_paths_build_no_row_views(tmp_path, monkeypatch):
    """Labeling, plot data with cycles, scoring and table equality read
    columns only: no EventRecord, Cycle, LabeledEvent or LabelPoint."""
    result = generate(demo_household(), days=4, seed=0)
    base = result.aggregate.start_time
    train = {n: slice_days(s, (0, 1), base) for n, s in result.appliances.items()}
    models = train_models(train, slice_days(result.aggregate, (0, 1), base), RunConfig()).models
    test = {n: slice_days(s, (2, 3), base) for n, s in result.appliances.items()}
    test_agg = slice_days(result.aggregate, (2, 3), base)

    def refuse(*args, **kwargs):
        raise AssertionError("row view built on a library path")

    for view in (EventRecord, Cycle, LabeledEvent, LabelPoint):
        monkeypatch.setattr(view, "__init__", refuse)
    labeled, _ = classify(test_agg, models)
    filtered, events = filter_and_detect(test_agg)
    cycles = segment_cycles(filtered, events, all_off_threshold(models))
    written = write_plot_data(tmp_path, test_agg, filtered, events, cycles)
    truth = build_ground_truth(test, models)
    counts = match_events(labeled.points(), truth)
    keys = [("a", "off", "on1"), ("b", "on1", "off")]
    same = PointTable([3, 7], [1, 0], keys[::-1]) == PointTable([3, 7], [0, 1], keys)
    differ = PointTable([3, 7], [0, 0], keys) == PointTable([3, 7], [0, 1], keys)
    monkeypatch.undo()
    assert len(labeled) == len(events) > 10 and len(cycles) > 1
    assert written[2].read_text().count("\n") == len(cycles) + 1
    assert len(truth) > 10 and len(counts) > 1
    assert same and not differ
