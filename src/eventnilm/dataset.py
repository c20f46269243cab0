"""On-disk dataset layout: plain-text channels, labels, manifest.

A dataset directory holds a labels file mapping channel numbers to appliance
names, one two-column file per channel ("unix_timestamp watts", one sample
per line), and a manifest naming the labels file, the sample period, the
appliance subset, and the train/test day split. The synthetic generator
writes the same layout, so generated data is a drop-in dataset.
"""

from __future__ import annotations

import io
import re
import warnings
import zlib
from dataclasses import dataclass
from functools import cache
from math import isfinite
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import AlignmentError, ManifestError, ParseError
from .features import DAY_SECONDS
from .model_io import atomic_write, format_number, format_numbers, read_text
from .signals import GapRecord, PowerSignal, aggregate, gap_threshold, resample_step_hold
from .synth import SynthResult


@dataclass(frozen=True)
class DatasetManifest:
    root: Path
    labels_file: str
    period: float
    train_days: tuple[int, int]  # inclusive day range
    test_days: tuple[int, int]
    appliances: tuple[str, ...]  # empty = every labeled channel
    max_gap_s: float | None = None  # None: gap_threshold(period)

    def __post_init__(self):
        if not (isfinite(self.period) and self.period > 0):
            raise ManifestError("period must be a finite positive number")
        if self.max_gap_s is None:
            object.__setattr__(self, "max_gap_s", gap_threshold(self.period))
        if not (isfinite(self.max_gap_s) and self.max_gap_s >= 0):
            raise ManifestError("max_gap must be a finite number of seconds, 0 or more")
        for name, rng in (("train_days", self.train_days), ("test_days", self.test_days)):
            if rng[0] < 0 or rng[1] < rng[0]:
                raise ManifestError(f"{name} must be a non-empty ascending day range")
        if self.train_days[0] <= self.test_days[1] and self.test_days[0] <= self.train_days[1]:
            raise ManifestError("train and test day ranges overlap")


def _parse_day_range(text: str, key: str) -> tuple[int, int]:
    first, sep, last = text.partition("-")
    try:
        return (int(first), int(last if sep else first))
    except ValueError:
        raise ManifestError(f"{key}: expected DAY or FIRST-LAST, got {text!r}") from None


def read_manifest(path: str | Path) -> DatasetManifest:
    """Parse a key=value manifest file; paths are relative to its directory."""
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    values: dict[str, str] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ManifestError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    required = ("labels", "period", "train_days", "test_days")
    missing = [k for k in required if k not in values]
    if missing:
        raise ManifestError(f"{path}: missing keys: {', '.join(missing)}")

    def number(key: str) -> float:
        try:
            return float(values[key])
        except ValueError:
            raise ManifestError(f"{path}: {key} must be a number") from None

    appliances = tuple(
        a.strip() for a in values.get("appliances", "").split(",") if a.strip()
    )
    return DatasetManifest(
        root=path.parent,
        labels_file=values["labels"],
        period=number("period"),
        train_days=_parse_day_range(values["train_days"], "train_days"),
        test_days=_parse_day_range(values["test_days"], "test_days"),
        appliances=appliances,
        max_gap_s=number("max_gap") if "max_gap" in values else None,
    )


def parse_labels(path: str | Path) -> dict[int, str]:
    """Labels file: one "channel_number name" pair per line."""
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"labels file not found: {path}")
    out: dict[int, str] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2 or not parts[0].isdecimal():
            raise ParseError(f"{path}:{lineno}: expected 'channel_number name'")
        channel = int(parts[0])
        if channel in out:
            raise ParseError(f"{path}:{lineno}: duplicate channel {channel}")
        out[channel] = parts[1].strip()
    if not out:
        raise ParseError(f"{path}: no channel labels")
    return out


def read_channel(path: str | Path) -> tuple[np.ndarray, np.ndarray, int]:
    """Channel file, UTF-8: "unix_timestamp watts" per line, whitespace-separated.

    Blank and ``#`` lines are skipped; any other line must hold two finite
    numbers. One ``np.loadtxt`` call parses the file. Returns views of its two
    columns and the count of negative readings (meter offset) clipped to zero.

    The table, before clipping, is cached in ``.eventnilm-cache/`` beside the
    file, keyed by the file's length, CRC-32 and Adler-32, so an unchanged file
    is parsed once; a directory that cannot hold the cache just means no cache.
    """
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"channel file not found: {path}")
    data = path.read_bytes()
    key = f"{len(data)}-{zlib.crc32(data):08x}{zlib.adler32(data):08x}"
    entry = path.parent / ".eventnilm-cache" / f"{path.name}.{key}.npy"
    table = _cached_table(entry)
    if table is None:
        table = _parse_channel(path, data)
        if path.read_bytes() == data:  # not rewritten while it was parsed
            _store_table(entry, path.name, table)
    times, watts = table[:, 0], table[:, 1]
    clipped = int(np.count_nonzero(watts < 0))
    np.maximum(watts, 0.0, out=watts)
    return times, watts, clipped


def _parse_channel(path: Path, data: bytes) -> np.ndarray:
    """The (n, 2) float64 table of a channel file whose bytes are ``data``."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty file is reported below
            table = np.loadtxt(path, comments="#", ndmin=2, encoding="utf-8")
    except ValueError:  # UnicodeDecodeError included
        _raise_first_bad_line(path)
    if (
        table.shape[1] != 2
        or not np.isfinite(table).all()
        # np.loadtxt drops a '#' after data on a line as a comment; the format does not
        or b"#" in data and re.search(r"^[^\S\n]*[^#\s].*#", read_text(path), re.M)
    ):
        _raise_first_bad_line(path)
    return table


def _cached_table(entry: Path) -> np.ndarray | None:
    """The finite (n, 2) float64 table stored at ``entry``, or None."""
    try:
        with open(entry, "rb") as fh:
            table = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    ok = table.dtype == np.float64 and table.ndim == 2 and table.shape[1] == 2 and len(table)
    return table if ok and np.isfinite(table).all() else None


def _store_table(entry: Path, name: str, table: np.ndarray) -> None:
    """Write ``entry`` and delete the other entries of channel file ``name``."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, table, allow_pickle=False)
    own = re.compile(re.escape(name) + r"\.\d+-[0-9a-f]{16}\.npy")
    try:
        entry.parent.mkdir(exist_ok=True)
        atomic_write(entry, buf.getvalue())
        for old in entry.parent.iterdir():
            if own.fullmatch(old.name) and old.name != entry.name:
                old.unlink()
    except OSError:
        pass  # no cache: the next read parses the file again


def timestamp_faults(times: np.ndarray) -> tuple[int, int]:
    """Duplicate and out-of-order timestamps of a channel, in file order.

    A duplicate repeats a timestamp read before it; an out-of-order reading
    has a lower timestamp than the line before it. Resampling sorts the
    readings stably, so the last of equal timestamps in the file wins.
    """
    unordered = int(np.count_nonzero(times[1:] < times[:-1]))
    ordered = np.sort(times) if unordered else times
    return int(np.count_nonzero(ordered[1:] == ordered[:-1])), unordered


def _raise_first_bad_line(path: Path) -> NoReturn:
    """The ParseError for the first line of a file ``read_channel`` rejected."""
    seen = False
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'timestamp watts'")
        try:  # np.loadtxt reads no digit underscores and no non-ASCII digits
            values = [float(f if f.isascii() and "_" not in f else "?") for f in fields]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric field") from None
        if not all(map(isfinite, values)):
            raise ParseError(f"{path}:{lineno}: non-finite value")
        seen = True
    raise ParseError(f"{path}: unreadable channel file" if seen else f"{path}: no samples")


@dataclass(frozen=True)
class DatasetBundle:
    """Aligned per-appliance signals plus their sum."""

    appliances: dict[str, PowerSignal]
    aggregate: PowerSignal
    gaps: dict[str, list[GapRecord]]
    clipped: dict[str, int]  # negative readings set to 0 W, per appliance
    manifest: DatasetManifest
    # (duplicate, out-of-order) timestamp counts per appliance, see timestamp_faults
    disorder: dict[str, tuple[int, int]]


def load_dataset(manifest: DatasetManifest) -> DatasetBundle:
    """Read, align, and sum the manifest's appliance channels."""
    labels = parse_labels(manifest.root / manifest.labels_file)
    by_name = {name: ch for ch, name in labels.items()}
    names = list(manifest.appliances) if manifest.appliances else sorted(by_name)
    for name in names:
        if name not in by_name:
            raise ManifestError(f"appliance {name!r} not in labels file")

    raw = [(name, *read_channel(manifest.root / f"channel_{by_name[name]}.dat")) for name in names]
    lo = max(float(np.min(t)) for _, t, _, _ in raw)
    hi = min(float(np.max(t)) for _, t, _, _ in raw)
    if hi < lo:
        raise AlignmentError("channels share no common time span")
    appliances: dict[str, PowerSignal] = {}
    gaps: dict[str, list[GapRecord]] = {}
    for name, times, watts, _ in raw:
        appliances[name], gaps[name] = resample_step_hold(
            times, watts, manifest.period, start=lo, end=hi,
            max_gap=manifest.max_gap_s, source_id=name,
        )
    return DatasetBundle(
        appliances=appliances,
        aggregate=aggregate([appliances[name] for name in names]),
        gaps=gaps,
        clipped={name: clipped for name, _, _, clipped in raw},
        manifest=manifest,
        disorder={name: timestamp_faults(times) for name, times, _, _ in raw},
    )


def slice_days(signal: PowerSignal, day_range: tuple[int, int], base: float) -> PowerSignal:
    """Restrict a signal to an inclusive day range relative to ``base``."""
    def index(day: int) -> int:
        return int(round((base + day * DAY_SECONDS - signal.start_time) / signal.sample_period))
    first, last = max(index(day_range[0]), 0), min(index(day_range[1] + 1), len(signal))
    if first >= last:
        raise ManifestError(f"day range {day_range[0]}-{day_range[1]} lies outside the signal")
    return PowerSignal(
        values=signal.values[first:last],
        start_time=signal.time_at(first),
        sample_period=signal.sample_period,
        source_id=signal.source_id,
    )


def split_bundle(bundle: DatasetBundle):
    """Cut a bundle at its manifest's day ranges.

    Returns (train appliances, train aggregate, test appliances, test
    aggregate), with day 0 at the aggregate's first sample.
    """
    base = bundle.aggregate.start_time

    def cut(days):
        apps = {n: slice_days(s, days, base) for n, s in bundle.appliances.items()}
        return apps, slice_days(bundle.aggregate, days, base)

    return (*cut(bundle.manifest.train_days), *cut(bundle.manifest.test_days))


# ---------------------------------------------------------------------------
# writing datasets (used by the generator command)


def write_dataset(
    root: str | Path,
    result: SynthResult,
    train_days: tuple[int, int],
    test_days: tuple[int, int],
    start_timestamp: float = 1600000000.0,
) -> Path:
    """Write a generated household in the standard layout; returns manifest path.

    The manifest goes last, so a dataset whose manifest exists is complete.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    names = sorted(result.appliances)
    lines = [f"{i + 1} {name}" for i, name in enumerate(names)]
    atomic_write(root / "labels.dat", "\n".join(lines) + "\n")

    @cache  # the channels share one grid, so one time column
    def time_column(n: int, period: float) -> list[str]:
        return format_numbers(start_timestamp + np.arange(n) * period)

    for i, name in enumerate(names):
        sig = result.appliances[name]
        times = time_column(len(sig), sig.sample_period)
        lines = map(" ".join, zip(times, format_numbers(sig.values)))
        atomic_write(root / f"channel_{i + 1}.dat", "\n".join(lines) + "\n")
    truth = "".join(
        f"{t.index}\t{t.appliance}\t{t.from_mode}\t{t.to_mode}\t{format_number(t.magnitude)}\n"
        for t in result.truth
    )
    header = "index\tappliance\tfrom_mode\tto_mode\tmagnitude\n"
    atomic_write(root / "ground_truth.tsv", header + truth)
    manifest = root / "manifest.cfg"
    atomic_write(
        manifest,
        "labels = labels.dat\n"
        f"period = {format_number(result.period)}\n"
        f"train_days = {train_days[0]}-{train_days[1]}\n"
        f"test_days = {test_days[0]}-{test_days[1]}\n"
        f"appliances = {','.join(names)}\n",
    )
    return manifest

