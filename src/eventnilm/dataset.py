"""On-disk dataset layout: plain-text channels, labels, manifest.

A dataset directory holds a labels file mapping channel numbers to appliance
names, one two-column file per channel ("unix_timestamp watts", one sample
per line), and a manifest naming the labels file, the sample period, the
appliance subset, and the train/test day split. The synthetic generator
writes the same layout, so generated data is a drop-in dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from pathlib import Path

import numpy as np

from .errors import AlignmentError, ManifestError, ParseError
from .features import DAY_SECONDS
from .model_io import format_number
from .signals import GapRecord, PowerSignal, aggregate, resample_step_hold
from .synth import SynthResult


@dataclass(frozen=True)
class DatasetManifest:
    root: Path
    labels_file: str
    period: float
    train_days: tuple[int, int]  # inclusive day range
    test_days: tuple[int, int]
    appliances: tuple[str, ...]  # empty = every labeled channel
    max_gap_s: float = 60.0

    def __post_init__(self):
        if self.period <= 0:
            raise ManifestError("period must be positive")
        for name, rng in (("train_days", self.train_days), ("test_days", self.test_days)):
            if rng[0] < 0 or rng[1] < rng[0]:
                raise ManifestError(f"{name} must be a non-empty ascending day range")
        tr, te = set(range(self.train_days[0], self.train_days[1] + 1)), set(
            range(self.test_days[0], self.test_days[1] + 1)
        )
        if tr & te:
            raise ManifestError("train and test day ranges overlap")


def _parse_day_range(text: str, key: str) -> tuple[int, int]:
    parts = text.split("-")
    try:
        if len(parts) == 1:
            d = int(parts[0])
            return (d, d)
        if len(parts) == 2:
            return (int(parts[0]), int(parts[1]))
    except ValueError:
        pass
    raise ManifestError(f"{key}: expected DAY or FIRST-LAST, got {text!r}")


def read_manifest(path: str | Path) -> DatasetManifest:
    """Parse a key=value manifest file; paths are relative to its directory."""
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    values: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
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
    try:
        period = float(values["period"])
    except ValueError:
        raise ManifestError(f"{path}: period must be a number")
    appliances = tuple(
        a.strip() for a in values.get("appliances", "").split(",") if a.strip()
    )
    return DatasetManifest(
        root=path.parent,
        labels_file=values["labels"],
        period=period,
        train_days=_parse_day_range(values["train_days"], "train_days"),
        test_days=_parse_day_range(values["test_days"], "test_days"),
        appliances=appliances,
        max_gap_s=float(values.get("max_gap", "60")),
    )


def parse_labels(path: str | Path) -> dict[int, str]:
    """Labels file: one "channel_number name" pair per line."""
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"labels file not found: {path}")
    out: dict[int, str] = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2 or not parts[0].isdigit():
            raise ParseError(f"{path}:{lineno}: expected 'channel_number name'")
        channel = int(parts[0])
        if channel in out:
            raise ParseError(f"{path}:{lineno}: duplicate channel {channel}")
        out[channel] = parts[1].strip()
    if not out:
        raise ParseError(f"{path}: no channel labels")
    return out


def read_channel(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Channel file: "unix_timestamp watts" per line, whitespace-separated.

    A non-finite timestamp or reading is a parse error; negative readings
    (meter offset) are clipped to zero.
    """
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"channel file not found: {path}")
    times: list[float] = []
    watts: list[float] = []
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


@dataclass(frozen=True)
class DatasetBundle:
    """Aligned per-appliance signals plus their sum."""

    appliances: dict[str, PowerSignal]
    aggregate: PowerSignal
    gaps: dict[str, list[GapRecord]]
    manifest: DatasetManifest


def load_dataset(manifest: DatasetManifest) -> DatasetBundle:
    """Read, align, and sum the manifest's appliance channels."""
    labels = parse_labels(manifest.root / manifest.labels_file)
    by_name = {name: ch for ch, name in labels.items()}
    names = list(manifest.appliances) if manifest.appliances else sorted(by_name)
    for name in names:
        if name not in by_name:
            raise ManifestError(f"appliance {name!r} not in labels file")

    raw = []
    for name in names:
        times, watts = read_channel(manifest.root / f"channel_{by_name[name]}.dat")
        raw.append((name, times, watts))
    lo = max(float(np.min(t)) for _, t, _ in raw)
    hi = min(float(np.max(t)) for _, t, _ in raw)
    if hi < lo:
        raise AlignmentError("channels share no common time span")
    appliances: dict[str, PowerSignal] = {}
    gaps: dict[str, list[GapRecord]] = {}
    for name, times, watts in raw:
        sig, g = resample_step_hold(
            times,
            watts,
            manifest.period,
            start=lo,
            end=hi,
            max_gap=manifest.max_gap_s,
            source_id=name,
        )
        appliances[name] = sig
        gaps[name] = g
    return DatasetBundle(
        appliances=appliances,
        aggregate=aggregate([appliances[name] for name in names]),
        gaps=gaps,
        manifest=manifest,
    )


def slice_days(signal: PowerSignal, day_range: tuple[int, int], base: float) -> PowerSignal:
    """Restrict a signal to an inclusive day range relative to ``base``."""
    first = int(round((base + day_range[0] * DAY_SECONDS - signal.start_time) / signal.sample_period))
    last = int(round((base + (day_range[1] + 1) * DAY_SECONDS - signal.start_time) / signal.sample_period))
    first = max(first, 0)
    last = min(last, len(signal))
    if first >= last:
        raise ManifestError(
            f"day range {day_range[0]}-{day_range[1]} lies outside the signal"
        )
    return PowerSignal(
        values=signal.values[first:last].copy(),
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


def _fmt(x: float) -> str:
    return format_number(x)


def write_dataset(
    root: str | Path,
    result: SynthResult,
    train_days: tuple[int, int],
    test_days: tuple[int, int],
    start_timestamp: float = 1600000000.0,
) -> Path:
    """Write a generated household in the standard layout; returns manifest path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    names = sorted(result.appliances)
    lines = [f"{i + 1} {name}" for i, name in enumerate(names)]
    (root / "labels.dat").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for i, name in enumerate(names):
        sig = result.appliances[name]
        with open(root / f"channel_{i + 1}.dat", "w", encoding="utf-8") as fh:
            for j, v in enumerate(sig.values):
                fh.write(f"{_fmt(start_timestamp + j * sig.sample_period)} {_fmt(v)}\n")
    with open(root / "ground_truth.tsv", "w", encoding="utf-8") as fh:
        fh.write("index\tappliance\tfrom_mode\tto_mode\tmagnitude\n")
        for t in result.truth:
            fh.write(
                f"{t.index}\t{t.appliance}\t{t.from_mode}\t{t.to_mode}\t{_fmt(t.magnitude)}\n"
            )
    manifest = root / "manifest.cfg"
    manifest.write_text(
        "labels = labels.dat\n"
        f"period = {_fmt(result.period)}\n"
        f"train_days = {train_days[0]}-{train_days[1]}\n"
        f"test_days = {test_days[0]}-{test_days[1]}\n"
        f"appliances = {','.join(names)}\n",
        encoding="utf-8",
    )
    return manifest


def read_ground_truth(path: str | Path) -> list[tuple[int, str, str, str]]:
    """Read a ground-truth file back to (index, appliance, from, to) rows."""
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"ground truth not found: {path}")
    out = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if lineno == 1 and line.startswith("index"):
            continue
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ParseError(f"{path}:{lineno}: expected 5 tab-separated fields")
        out.append((int(parts[0]), parts[1], parts[2], parts[3]))
    return out
