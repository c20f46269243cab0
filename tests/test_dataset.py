"""Dataset layout: manifests, label maps, channel files, day slicing."""

import numpy as np
import pytest

from eventnilm.dataset import (
    DatasetManifest,
    load_dataset,
    parse_labels,
    read_channel,
    read_ground_truth,
    read_manifest,
    slice_days,
    write_dataset,
)
from eventnilm.errors import AlignmentError, ManifestError, ParseError
from eventnilm.synth import balanced_household, generate

from helpers import sig


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestManifest:
    def test_round_trip_fields(self, tmp_path):
        p = write(
            tmp_path / "manifest.cfg",
            "# household\n"
            "labels = labels.dat\n"
            "period = 20\n"
            "train_days = 0-20\n"
            "test_days = 21-27\n"
            "appliances = fridge, oven\n"
            "max_gap = 120\n",
        )
        m = read_manifest(p)
        assert m.root == tmp_path
        assert m.labels_file == "labels.dat"
        assert m.period == 20.0
        assert m.train_days == (0, 20)
        assert m.test_days == (21, 27)
        assert m.appliances == ("fridge", "oven")
        assert m.max_gap_s == 120.0

    def test_single_day_range(self, tmp_path):
        p = write(
            tmp_path / "m.cfg",
            "labels = l.dat\nperiod = 1\ntrain_days = 0-1\ntest_days = 5\n",
        )
        assert read_manifest(p).test_days == (5, 5)

    def test_missing_keys(self, tmp_path):
        p = write(tmp_path / "m.cfg", "labels = l.dat\nperiod = 1\n")
        with pytest.raises(ManifestError, match="missing keys"):
            read_manifest(p)

    def test_bad_period_and_lines(self, tmp_path):
        p = write(
            tmp_path / "m.cfg",
            "labels = l.dat\nperiod = fast\ntrain_days = 0\ntest_days = 1\n",
        )
        with pytest.raises(ManifestError, match="period"):
            read_manifest(p)
        p2 = write(tmp_path / "m2.cfg", "labels l.dat\n")
        with pytest.raises(ManifestError, match="key = value"):
            read_manifest(p2)

    def test_not_found(self, tmp_path):
        with pytest.raises(ManifestError, match="not found"):
            read_manifest(tmp_path / "nope.cfg")

    def test_validation(self, tmp_path):
        with pytest.raises(ManifestError, match="positive"):
            DatasetManifest(tmp_path, "l", 0.0, (0, 1), (2, 3), ())
        with pytest.raises(ManifestError, match="ascending"):
            DatasetManifest(tmp_path, "l", 1.0, (3, 1), (4, 5), ())
        with pytest.raises(ManifestError, match="overlap"):
            DatasetManifest(tmp_path, "l", 1.0, (0, 5), (5, 8), ())

    def test_bad_day_range_text(self, tmp_path):
        p = write(
            tmp_path / "m.cfg",
            "labels = l.dat\nperiod = 1\ntrain_days = a-b\ntest_days = 5\n",
        )
        with pytest.raises(ManifestError, match="train_days"):
            read_manifest(p)


class TestLabels:
    def test_parse(self, tmp_path):
        p = write(tmp_path / "labels.dat", "# channels\n1 mains\n2 washer dryer\n\n")
        assert parse_labels(p) == {1: "mains", 2: "washer dryer"}

    def test_duplicate_channel(self, tmp_path):
        p = write(tmp_path / "l.dat", "1 a\n1 b\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_labels(p)

    def test_garbage_line(self, tmp_path):
        p = write(tmp_path / "l.dat", "one fridge\n")
        with pytest.raises(ParseError):
            parse_labels(p)

    def test_empty(self, tmp_path):
        p = write(tmp_path / "l.dat", "# nothing\n")
        with pytest.raises(ParseError, match="no channel labels"):
            parse_labels(p)


class TestChannel:
    def test_parse_with_comments(self, tmp_path):
        p = write(tmp_path / "c.dat", "# t w\n100 5.5\n120 6\n")
        times, watts = read_channel(p)
        assert times.tolist() == [100.0, 120.0]
        assert watts.tolist() == [5.5, 6.0]

    def test_field_count(self, tmp_path):
        p = write(tmp_path / "c.dat", "100 5 7\n")
        with pytest.raises(ParseError, match="timestamp watts"):
            read_channel(p)

    def test_non_numeric(self, tmp_path):
        p = write(tmp_path / "c.dat", "100 five\n")
        with pytest.raises(ParseError, match="non-numeric"):
            read_channel(p)

    def test_empty(self, tmp_path):
        p = write(tmp_path / "c.dat", "\n")
        with pytest.raises(ParseError, match="no samples"):
            read_channel(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError, match="not found"):
            read_channel(tmp_path / "c.dat")

    @pytest.mark.parametrize("line", ["120 nan", "120 inf", "120 -inf", "nan 6"])
    def test_non_finite_names_line(self, tmp_path, line):
        p = write(tmp_path / "c.dat", f"# t w\n100 5\n{line}\n")
        with pytest.raises(ParseError, match=r"c\.dat:3: non-finite"):
            read_channel(p)

    def test_negative_clipped(self, tmp_path):
        p = write(tmp_path / "c.dat", "100 -3.5\n120 6\n")
        assert read_channel(p)[1].tolist() == [0.0, 6.0]


class TestWriteAndLoad:
    def test_generated_household_round_trips(self, tmp_path):
        result = generate(balanced_household(), days=2, seed=1)
        manifest_path = write_dataset(tmp_path, result, (0, 0), (1, 1))
        manifest = read_manifest(manifest_path)
        bundle = load_dataset(manifest)
        assert set(bundle.appliances) == set(result.appliances)
        for name, original in result.appliances.items():
            assert np.array_equal(bundle.appliances[name].values, original.values)
            assert not bundle.gaps[name]
        assert np.allclose(
            bundle.aggregate.values, result.aggregate.values, rtol=0, atol=1e-9
        )

    def test_appliance_subset_selected(self, tmp_path):
        result = generate(balanced_household(), days=1, seed=2)
        write_dataset(tmp_path, result, (0, 0), (0, 0))
        names = sorted(result.appliances)[:2]
        manifest = DatasetManifest(
            tmp_path, "labels.dat", result.period, (0, 0), (1, 1), tuple(names)
        )
        bundle = load_dataset(manifest)
        assert sorted(bundle.appliances) == names
        assert np.allclose(
            bundle.aggregate.values,
            sum(bundle.appliances[n].values for n in names),
        )

    def test_unknown_appliance_rejected(self, tmp_path):
        result = generate(balanced_household(), days=1, seed=2)
        write_dataset(tmp_path, result, (0, 0), (0, 0))
        manifest = DatasetManifest(
            tmp_path, "labels.dat", result.period, (0, 0), (1, 1), ("toaster",)
        )
        with pytest.raises(ManifestError, match="toaster"):
            load_dataset(manifest)

    def test_disjoint_channels_rejected(self, tmp_path):
        write(tmp_path / "labels.dat", "1 a\n2 b\n")
        write(tmp_path / "channel_1.dat", "0 1\n10 2\n")
        write(tmp_path / "channel_2.dat", "100 1\n110 2\n")
        manifest = DatasetManifest(tmp_path, "labels.dat", 10.0, (0, 0), (1, 1), ())
        with pytest.raises(AlignmentError):
            load_dataset(manifest)

    def test_ground_truth_round_trip(self, tmp_path):
        result = generate(balanced_household(), days=1, seed=3)
        write_dataset(tmp_path, result, (0, 0), (0, 0))
        rows = read_ground_truth(tmp_path / "ground_truth.tsv")
        assert rows == [
            (t.index, t.appliance, t.from_mode, t.to_mode) for t in result.truth
        ]

    def test_ground_truth_malformed(self, tmp_path):
        p = write(tmp_path / "gt.tsv", "index\tappliance\tfrom\tto\tmag\n1\tx\n")
        with pytest.raises(ParseError, match="5 tab-separated"):
            read_ground_truth(p)


class TestSliceDays:
    def test_middle_day(self):
        spd = 24
        s = sig(np.arange(3 * spd, dtype=float), start=1000.0, period=3600.0)
        out = slice_days(s, (1, 1), base=1000.0)
        assert len(out) == spd
        assert out.start_time == 1000.0 + 86400.0
        assert out.values[0] == float(spd)

    def test_inclusive_range(self):
        spd = 24
        s = sig(np.arange(3 * spd, dtype=float), start=0.0, period=3600.0)
        out = slice_days(s, (1, 2), base=0.0)
        assert len(out) == 2 * spd

    def test_clamped_to_signal(self):
        s = sig(np.arange(30, dtype=float), period=3600.0)  # one day and a bit
        out = slice_days(s, (0, 5), base=0.0)
        assert len(out) == 30

    def test_outside_raises(self):
        s = sig(np.arange(24, dtype=float), period=3600.0)
        with pytest.raises(ManifestError, match="outside"):
            slice_days(s, (2, 3), base=0.0)
