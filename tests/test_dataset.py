"""Dataset layout: manifests, label maps, channel files, day slicing."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eventnilm import cli, dataset
from eventnilm.dataset import (
    DatasetManifest,
    load_dataset,
    parse_labels,
    read_channel,
    read_manifest,
    slice_days,
    timestamp_faults,
    write_dataset,
)
from eventnilm.errors import AlignmentError, ManifestError, ParseError
from eventnilm.synth import balanced_household, demo_household, generate

from helpers import (
    reference_channel_text,
    reference_load_dataset,
    reference_read_channel,
    reference_write_dataset,
    sig,
    truth_events,
)


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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("max_gap = abc", "max_gap must be a number"),
            ("max_gap = -5", "max_gap must be a finite number"),
            ("max_gap = inf", "max_gap must be a finite number"),
            ("period = nan", "period must be a finite positive number"),
            ("period = inf", "period must be a finite positive number"),
            ("period = -1", "period must be a finite positive number"),
        ],
    )
    def test_bad_numbers(self, tmp_path, line, message):
        values = {"labels": "l.dat", "period": "20", "train_days": "0", "test_days": "1"}
        key, _, value = line.partition(" = ")
        values[key] = value
        p = write(tmp_path / "m.cfg", "".join(f"{k} = {v}\n" for k, v in values.items()))
        with pytest.raises(ManifestError, match=message):
            read_manifest(p)

    def test_max_gap_zero_allowed(self, tmp_path):
        p = write(
            tmp_path / "m.cfg",
            "labels = l.dat\nperiod = 1\ntrain_days = 0\ntest_days = 1\nmax_gap = 0\n",
        )
        assert read_manifest(p).max_gap_s == 0.0

    @pytest.mark.parametrize("period, max_gap", [("1", 60.0), ("20", 60.0), ("120", 180.0)])
    def test_max_gap_defaults_to_the_gap_threshold(self, tmp_path, period, max_gap):
        p = write(
            tmp_path / "m.cfg",
            f"labels = l.dat\nperiod = {period}\ntrain_days = 0\ntest_days = 1\n",
        )
        assert read_manifest(p).max_gap_s == max_gap
        assert DatasetManifest(tmp_path, "l", float(period), (0, 0), (1, 1), ()).max_gap_s == max_gap

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "m.cfg"
        p.write_bytes(b"labels = l.dat\nperiod = 1\xff\n")
        with pytest.raises(ParseError, match=r"m\.cfg:2: not UTF-8"):
            read_manifest(p)

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("period = 30\n", r"m\.cfg:6: key 'period' repeats line 3"),
            ("appliance = oven\n", r"m\.cfg:6: unknown key 'appliance'"),
            ("max_gap = 60\nmax_gap = 90\n", r"m\.cfg:7: key 'max_gap' repeats line 6"),
        ],
    )
    def test_repeated_or_unknown_key(self, tmp_path, extra, message):
        base = "# household\nlabels = l.dat\nperiod = 20\ntrain_days = 0\ntest_days = 1\n"
        p = write(tmp_path / "m.cfg", base + extra)
        with pytest.raises(ManifestError, match=message):
            read_manifest(p)

    def test_repeated_appliance(self, tmp_path):
        # loading it would sum channel a twice into the aggregate
        p = write(
            tmp_path / "m.cfg",
            "labels = labels.dat\nperiod = 10\ntrain_days = 0\ntest_days = 1\n"
            "appliances = a,a,b\n",
        )
        with pytest.raises(ManifestError, match="appliance 'a' is listed twice"):
            read_manifest(p)
        with pytest.raises(ManifestError, match="appliance 'b' is listed twice"):
            DatasetManifest(tmp_path, "labels.dat", 10.0, (0, 0), (1, 1), ("b", "a", "b"))

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

    def test_repeated_name(self, tmp_path):
        p = write(tmp_path / "l.dat", "1 kettle\n# spare\n2 oven\n3 kettle\n")
        with pytest.raises(ParseError, match=r"l\.dat:4: name 'kettle' repeats line 1"):
            parse_labels(p)

    def test_garbage_line(self, tmp_path):
        p = write(tmp_path / "l.dat", "one fridge\n")
        with pytest.raises(ParseError):
            parse_labels(p)

    def test_superscript_digit_is_not_a_channel_number(self, tmp_path):
        p = write(tmp_path / "l.dat", "1 fridge\n\u00b2 oven\n")
        with pytest.raises(ParseError, match=r"l\.dat:2: expected 'channel_number name'"):
            parse_labels(p)

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "l.dat"
        p.write_bytes(b"1 fridge\n2 \xe9tuve\n")
        with pytest.raises(ParseError, match=r"l\.dat:2: not UTF-8"):
            parse_labels(p)

    def test_empty(self, tmp_path):
        p = write(tmp_path / "l.dat", "# nothing\n")
        with pytest.raises(ParseError, match="no channel labels"):
            parse_labels(p)


class TestChannel:
    def test_parse_with_comments(self, tmp_path):
        p = write(tmp_path / "c.dat", "# t w\n100 5.5\n120 6\n")
        times, watts, clipped = read_channel(p)
        assert times.tolist() == [100.0, 120.0]
        assert watts.tolist() == [5.5, 6.0]
        assert clipped == 0

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


def _number(rng, x):
    """``x`` in one of the spellings a channel file may use."""
    style = int(rng.integers(0, 5))
    if style == 0:
        return repr(float(x))
    if style == 1:
        return f"{x:.6e}"
    if style == 2:
        return f"{x:.3E}"
    if style == 3 and x >= 0:
        return f"+{x:g}"
    return f"{x:g}"


def _channel_text(rng, data_lines):
    """Join data lines with random blank and comment lines, separators and line ends."""
    out = []
    for line in data_lines:
        while rng.uniform() < 0.1:
            out.append(["", "   ", "\t", "# note", "  # t w", "#"][int(rng.integers(0, 6))])
        if rng.uniform() < 0.3 and len(line.split()) == 2:
            t, w = line.split()
            sep = ["\t", "  ", " \t "][int(rng.integers(0, 3))]
            line = f"{' ' * int(rng.integers(0, 3))}{t}{sep}{w}{' ' * int(rng.integers(0, 2))}"
        out.append(line)
    ends = [["\n", "\r\n", "\r"][int(rng.integers(0, 3))] for _ in out]
    text = "".join(line + end for line, end in zip(out, ends))
    return text if rng.uniform() < 0.8 else text.rstrip("\r\n")


def _random_data_lines(rng):
    n = int(rng.integers(1, 200))
    times = 1.6e9 + np.cumsum(rng.uniform(0.5, 30.0, n))
    watts = rng.normal(200.0, 400.0, n)
    watts[rng.uniform(size=n) < 0.2] = 0.0
    return [f"{_number(rng, t)} {_number(rng, w)}" for t, w in zip(times, watts)]


def _synth_data_lines(tmp_path, seed):
    write_dataset(tmp_path / "synth", generate(balanced_household(), days=1, seed=seed), (0, 0), (0, 0))
    return (tmp_path / "synth" / "channel_1.dat").read_text(encoding="utf-8").splitlines()[:2000]


_BAD_LINES = (
    "{t} {w} 7",  # three fields
    "{t}",  # one field
    "{t} {w} # inline comment",
    "{t} {w}#3",
    "{t} five",
    "{t} 5x",
    "{t} nan",
    "inf {w}",
    "{t} -Infinity",
    "{t} 1e400",
)


class TestTimestampFaults:
    @pytest.mark.parametrize(
        "times, counts",
        [
            ([0, 10, 20, 30], (0, 0)),
            ([0, 10, 10, 20], (1, 0)),
            ([0, 10, 10, 10], (2, 0)),
            ([0, 20, 10, 30], (0, 1)),
            ([0, 30, 10, 30], (1, 1)),  # equal once sorted, apart in the file
            ([30, 20, 10, 0], (0, 3)),
            ([5], (0, 0)),
        ],
    )
    def test_counts(self, times, counts):
        assert timestamp_faults(np.array(times, dtype=np.float64)) == counts


class TestChannelParity:
    """read_channel against the line-by-line reference parser."""

    def cases(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        lines = _synth_data_lines(tmp_path, seed) if seed % 4 == 0 else _random_data_lines(rng)
        return rng, lines

    @pytest.mark.parametrize("seed", range(24))
    def test_valid_files_are_bit_identical(self, tmp_path, seed):
        rng, lines = self.cases(tmp_path, seed)
        p = tmp_path / "c.dat"
        p.write_bytes(_channel_text(rng, lines).encode("utf-8"))
        times, watts, clipped = read_channel(p)
        ref_times, ref_watts = reference_read_channel(p)
        assert times.dtype == watts.dtype == np.float64
        assert times.tobytes() == ref_times.tobytes()
        assert watts.tobytes() == ref_watts.tobytes()
        raw = [float(line.split()[1]) for line in lines]
        assert clipped == sum(w < 0 for w in raw)

    @pytest.mark.parametrize("seed", range(24))
    def test_first_bad_line_named_alike(self, tmp_path, seed):
        rng, lines = self.cases(tmp_path, seed)
        at = int(rng.integers(0, len(lines)))
        t, w = lines[at].split()
        lines[at] = _BAD_LINES[seed % len(_BAD_LINES)].format(t=t, w=w)
        p = tmp_path / "c.dat"
        p.write_bytes(_channel_text(rng, lines).encode("utf-8"))
        with pytest.raises(ParseError) as expected:
            reference_read_channel(p)
        with pytest.raises(ParseError) as got:
            read_channel(p)
        assert str(got.value) == str(expected.value)
        assert f"{p}:" in str(got.value)

    @pytest.mark.parametrize("field", ["1_00", "\u0661\u0662"])
    def test_underscores_and_non_ascii_digits_rejected(self, tmp_path, field):
        # float() reads these, np.loadtxt does not: the one deliberate difference
        p = write(tmp_path / "c.dat", f"100 5\n120 {field}\n")
        assert reference_read_channel(p)[1].tolist() == [5.0, float(field)]
        with pytest.raises(ParseError, match=r"c\.dat:2: non-numeric field"):
            read_channel(p)

    def test_not_utf8_names_line(self, tmp_path):
        p = tmp_path / "c.dat"
        p.write_bytes(b"100 5\r\n120 6\r\n140 \xff\r\n")
        with pytest.raises(ParseError, match=r"c\.dat:3: not UTF-8 text"):
            read_channel(p)

    def test_columns_are_views_of_one_table(self, tmp_path):
        p = write(tmp_path / "c.dat", "100 -5\n120 6\n")
        times, watts, clipped = read_channel(p)
        assert times.base is not None and times.base is watts.base
        assert watts.tolist() == [0.0, 6.0] and clipped == 1


CACHE_DIR = ".eventnilm-cache"


def entries(channel):
    """Cache entries of one channel file, by name."""
    cache = channel.parent / CACHE_DIR
    return sorted(p.name for p in cache.glob(channel.name + ".*.npy")) if cache.is_dir() else []


@pytest.fixture
def parses(monkeypatch):
    """Counts the text parses ``read_channel`` makes."""
    calls, parse = [], dataset._parse_channel

    def counted(path, data):
        calls.append(path)
        return parse(path, data)

    monkeypatch.setattr(dataset, "_parse_channel", counted)
    return calls


def same_reads(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(a[:2], b[:2])) and a[2] == b[2]


# negative, duplicate and out-of-order readings, a comment and a blank line
FAULTY = "# t w\n100 -3.5\n120 6\n120 7.25\n\n110 1e3\n140 -0.5\n160 8\n"


class TestChannelCache:
    def test_hit_equals_miss(self, tmp_path, parses):
        p = write(tmp_path / "c.dat", FAULTY)
        miss = read_channel(p)
        assert len(entries(p)) == 1 and len(parses) == 1
        hit = read_channel(p)
        assert len(parses) == 1  # served from the entry
        assert same_reads(hit, miss)
        assert hit[1].tolist() == [0.0, 6.0, 7.25, 1000.0, 0.0, 8.0] and hit[2] == 2
        assert timestamp_faults(hit[0]) == timestamp_faults(miss[0]) == (1, 1)
        assert hit[0].base is not None and hit[0].base is hit[1].base

    def test_same_length_edit_is_reparsed(self, tmp_path, parses):
        p = write(tmp_path / "c.dat", FAULTY)
        read_channel(p)
        before = os.stat(p)
        write(p, FAULTY.replace("160 8", "160 9"))
        os.utime(p, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert os.stat(p).st_size == before.st_size
        assert read_channel(p)[1][-1] == 9.0
        assert len(parses) == 2
        assert len(entries(p)) == 1  # the old entry is gone

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[: len(raw) - 8],  # truncated
            lambda raw: b"not an array\n" * 20,  # garbage
            lambda raw: b"",
            lambda raw: raw[:128],  # the header alone
        ],
        ids=["truncated", "garbage", "empty", "header-only"],
    )
    def test_bad_entry_is_a_miss_and_rewritten(self, tmp_path, parses, damage):
        p = write(tmp_path / "c.dat", FAULTY)
        first = read_channel(p)
        entry = p.parent / CACHE_DIR / entries(p)[0]
        good = entry.read_bytes()
        entry.write_bytes(damage(good))
        assert same_reads(read_channel(p), first)
        assert len(parses) == 2
        assert entry.read_bytes() == good

    @pytest.mark.parametrize(
        "table",
        [
            np.array([[100.0, 1.0]], dtype=np.float32),
            np.array([100.0, 1.0]),
            np.array([[100.0, 1.0, 2.0]]),
            np.zeros((0, 2)),
            np.array([[100.0, np.nan]]),
            np.array([[100.0, np.inf]]),
        ],
        ids=["float32", "1-d", "3-columns", "no-rows", "nan", "inf"],
    )
    def test_entry_of_another_form_is_a_miss(self, tmp_path, parses, table):
        p = write(tmp_path / "c.dat", FAULTY)
        first = read_channel(p)
        entry = p.parent / CACHE_DIR / entries(p)[0]
        good = entry.read_bytes()
        np.save(entry, table)
        assert same_reads(read_channel(p), first)
        assert len(parses) == 2
        assert entry.read_bytes() == good

    def test_unwritable_cache_changes_nothing(self, tmp_path, parses, capsys):
        (tmp_path / "clean").mkdir()
        clean = read_channel(write(tmp_path / "clean" / "c.dat", FAULTY))
        p = write(tmp_path / "c.dat", FAULTY)
        (tmp_path / CACHE_DIR).write_text("not a directory\n")
        assert same_reads(read_channel(p), clean)
        assert same_reads(read_channel(p), clean)
        assert len(parses) == 3
        assert (tmp_path / CACHE_DIR).read_text() == "not a directory\n"
        assert capsys.readouterr() == ("", "")

    def test_concurrent_readers_agree(self, tmp_path):
        # more processes than cores, all starting on an empty cache
        p = write(tmp_path / "c.dat", "".join(f"{100 + 10 * i} {i % 7 - 2}\n" for i in range(20000)))
        times, watts = reference_read_channel(p)
        clipped = sum(i % 7 < 2 for i in range(20000))
        expected = f"{hashlib.sha256(times.tobytes() + watts.tobytes()).hexdigest()} {clipped}"
        code = (
            "import hashlib, sys\n"
            "from eventnilm.dataset import read_channel\n"
            "for _ in range(20):\n"
            "    t, w, c = read_channel(sys.argv[1])\n"
            "    print(hashlib.sha256(t.tobytes() + w.tobytes()).hexdigest(), c)\n"
        )
        src = str(Path(dataset.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        procs = [
            subprocess.Popen([sys.executable, "-c", code, str(p)], env=env, stdout=subprocess.PIPE, text=True)
            for _ in range(4)
        ]
        outputs = [proc.communicate(timeout=120)[0].splitlines() for proc in procs]
        assert [proc.returncode for proc in procs] == [0] * 4
        assert outputs == [[expected] * 20] * 4
        assert [q.name for q in (tmp_path / CACHE_DIR).iterdir()] == entries(p)
        assert len(entries(p)) == 1

    def test_malformed_file_is_never_cached(self, tmp_path):
        p = write(tmp_path / "c.dat", "100 5\n120 five\n")
        messages = []
        for _ in range(2):
            with pytest.raises(ParseError) as err:
                read_channel(p)
            messages.append(str(err.value))
        assert messages == [f"{p}:2: non-numeric field"] * 2
        assert entries(p) == []

    def test_reading_above_max_watts_is_refused_cold_and_warm(self, tmp_path, parses, monkeypatch):
        assert read_channel(write(tmp_path / "top.dat", "100 1e12\n"))[1].tolist() == [1e12]
        p = write(tmp_path / "c.dat", "# t w\n100 5\n\n120 1e308\n140 6\n")
        message = f"{p}:4: watts above 1e+12"
        with pytest.raises(ParseError) as cold:
            read_channel(p)
        assert str(cold.value) == message and entries(p) == []
        # warm: an entry stored by a reader without the bound
        monkeypatch.setattr(dataset, "MAX_WATTS", np.inf)
        read_channel(p)
        monkeypatch.setattr(dataset, "MAX_WATTS", 1e12)
        assert len(entries(p)) == 1
        with pytest.raises(ParseError) as warm:
            read_channel(p)
        assert str(warm.value) == message and len(parses) == 4

    def test_one_entry_per_channel_file(self, tmp_path):
        a, b = write(tmp_path / "a.dat", "100 1\n"), write(tmp_path / "b.dat", "100 2\n")
        read_channel(a)
        read_channel(b)
        write(a, "100 1\n120 3\n")
        assert read_channel(a)[1].tolist() == [1.0, 3.0]
        assert len(entries(a)) == 1 and len(entries(b)) == 1
        assert sorted(p.name for p in (tmp_path / CACHE_DIR).iterdir()) == entries(a) + entries(b)


class TestWriteAndLoad:
    @pytest.mark.parametrize("household", [demo_household, balanced_household])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bytes_equal_line_by_line_writer(self, tmp_path, household, seed):
        result = generate(household(), days=2, seed=seed)
        write_dataset(tmp_path / "bulk", result, (0, 0), (1, 1))
        reference_write_dataset(tmp_path / "lines", result, (0, 0), (1, 1))
        names = sorted(p.name for p in (tmp_path / "lines").iterdir())
        assert sorted(p.name for p in (tmp_path / "bulk").iterdir()) == names
        for name in names:
            assert (tmp_path / "bulk" / name).read_bytes() == (tmp_path / "lines" / name).read_bytes()

    @pytest.mark.parametrize(
        "period, start", [(20.0, 1600000000.0), (1.5, 1600000000.0), (1.5, 1600000000.37)]
    )
    def test_channels_equal_the_per_line_join(self, tmp_path, period, start):
        """Whole and fractional timestamps (no golden pin covers the latter)."""
        result = generate(demo_household(), days=1, period=period, seed=3)
        write_dataset(tmp_path, result, (0, 0), (1, 1), start_timestamp=start)
        labels = parse_labels(tmp_path / "labels.dat")
        for channel, name in labels.items():
            text = (tmp_path / f"channel_{channel}.dat").read_text(encoding="utf-8")
            assert text == reference_channel_text(result.appliances[name], start)

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

    def test_ground_truth_file_rows(self, tmp_path):
        result = generate(balanced_household(), days=1, seed=3)
        write_dataset(tmp_path, result, (0, 0), (0, 0))
        lines = (tmp_path / "ground_truth.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "index\tappliance\tfrom_mode\tto_mode\tmagnitude"
        assert [tuple(line.split("\t")[:4]) for line in lines[1:]] == [
            (str(t.index), t.appliance, t.from_mode, t.to_mode) for t in truth_events(result)
        ]


def messy_channel(rng, period):
    """Readings of one meter: on or off the grid, with its own span, gaps,
    negative readings, duplicate and out-of-order timestamps."""
    n = int(rng.integers(20, 300))
    start = 1.6e9 + period * rng.uniform(0, 40)
    if rng.uniform() < 0.5:
        times = start + period * np.arange(n)
    else:
        times = start + np.cumsum(period * rng.uniform(0.3, 1.7, size=n))
    if rng.uniform() < 0.5:  # an outage
        a = int(rng.integers(0, n))
        times[a:] += period * rng.uniform(3, 30)
    watts = rng.choice([0.0, 40.0, 800.0, 2000.0], size=n) + rng.normal(0, 3, size=n)
    order = np.arange(n)
    for i in rng.integers(0, n - 1, size=int(rng.integers(0, 4))):
        order[[i, i + 1]] = order[[i + 1, i]]
    repeats = rng.integers(0, n, size=int(rng.integers(0, 3)))  # timestamps read again
    times, watts = np.r_[times[order], times[repeats]], np.r_[watts[order], watts[repeats] + 1]
    return "".join(f"{t!r} {w!r}\n" for t, w in zip(times.tolist(), watts.tolist()))


def messy_dataset(rng, root):
    """A random multi-channel dataset under ``root``: its manifest's path and
    the number of channels it loads."""
    root.mkdir()
    period = float(rng.choice([1.0, 6.0, 20.0]))
    names = [f"app{i}" for i in range(int(rng.integers(1, 6)))]
    write(root / "labels.dat", "".join(f"{i + 1} {name}\n" for i, name in enumerate(names)))
    for i in range(len(names)):
        write(root / f"channel_{i + 1}.dat", messy_channel(rng, period))
    settings = f"labels = labels.dat\nperiod = {period!r}\ntrain_days = 0\ntest_days = 1\n"
    if rng.uniform() < 0.5:  # a subset, in its own order; else every labeled channel
        names = [str(name) for name in rng.permutation(names)[: int(rng.integers(1, len(names) + 1))]]
        settings += f"appliances = {','.join(names)}\n"
    if rng.uniform() < 0.5:
        settings += f"max_gap = {float(rng.choice([0.0, 2.5 * period]))!r}\n"
    return write(root / "manifest.cfg", settings), len(names)


def bundle_fields(bundle):
    """Every field of a bundle, samples as bytes, in the bundle's own order."""
    def signal(s):
        return s.values.tobytes(), s.start_time, s.sample_period, s.source_id

    return (
        [(name, signal(s)) for name, s in bundle.appliances.items()],
        signal(bundle.aggregate),
        list(bundle.gaps.items()),
        list(bundle.clipped.items()),
        list(bundle.disorder.items()),
    )


class TestLoadDatasetParity:
    """The loader that releases each raw table once its channel is resampled
    against the one that holds them all, on random multi-channel sets."""

    def load(self, loader, manifest_path, monkeypatch, capsys):
        """The bundle, or the error, and the CLI's notes, with ``loader`` as
        ``load_dataset`` and each call of ``read_channel`` counted."""
        reads, read = [], dataset.read_channel
        monkeypatch.setattr(dataset, "read_channel", lambda path: reads.append(path) or read(path))
        monkeypatch.setattr(dataset, "load_dataset", loader)
        try:
            out = bundle_fields(cli._load_dataset(str(manifest_path)))
        except AlignmentError as exc:
            out = str(exc)
        finally:
            monkeypatch.undo()
        return out, capsys.readouterr().err, reads

    def test_random_channel_sets(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(26)
        seen = set()
        for case in range(60):
            path, channels = messy_dataset(rng, tmp_path / str(case))
            # each loader meets a cold cache in half the cases
            loaders = (load_dataset, reference_load_dataset)[:: 1 if case % 2 else -1]
            out = {loader: self.load(loader, path, monkeypatch, capsys) for loader in loaders}
            got, want = out[load_dataset], out[reference_load_dataset]
            assert got[:2] == want[:2]
            assert got[2] == want[2] and len(got[2]) == channels
            if isinstance(got[0], str):
                seen.add("no common span")
                continue
            apps, _, gaps, clipped, disorder = got[0]
            seen |= {
                ("several" if len(apps) > 1 else None),
                ("gap" if any(g for _, g in gaps) else None),
                ("clipped" if any(c for _, c in clipped) else None),
                ("duplicate" if any(d for _, (d, _) in disorder) else None),
                ("out of order" if any(u for _, (_, u) in disorder) else None),
            }
        assert seen - {None} == {
            "several", "gap", "clipped", "duplicate", "out of order", "no common span",
        }

    def test_each_raw_table_is_released_once_resampled(self, tmp_path):
        """With a warm cache, the peak holds the raw tables and at most three
        channels' worth of grid arrays, not every resampled channel as well."""
        result = generate(demo_household(), days=7, seed=0)
        manifest = read_manifest(write_dataset(tmp_path, result, (0, 5), (6, 6)))
        load_dataset(manifest)
        tracemalloc.start()
        try:
            bundle = load_dataset(manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = sum(16 * len(s) for s in result.appliances.values())  # on the grid: one row a sample
        channel = bundle.aggregate.values.nbytes
        assert len(bundle.appliances) > 4
        assert tables < peak < tables + 3 * channel


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

    def test_read_only_view_of_the_source(self):
        # the source's samples are read-only and owned, so a slice needs no copy
        s = sig(np.arange(3 * 24, dtype=float) * 1.5, start=0.0, period=3600.0)
        out = slice_days(s, (1, 1), base=0.0)
        assert out.values.tolist() == s.values[24:48].tolist()
        assert out.start_time == 86400.0
        assert not out.values.flags.writeable
        assert np.shares_memory(out.values, s.values)
        assert out.values.base is s.values

    def test_outside_raises(self):
        s = sig(np.arange(24, dtype=float), period=3600.0)
        with pytest.raises(ManifestError, match="outside"):
            slice_days(s, (2, 3), base=0.0)
