"""End-to-end orchestration: train, disaggregate, evaluate, plot data.

Glues the library stages together on dataset bundles and writes the text
artifacts the command-line tool exposes. Everything here is deterministic:
sorted appliance order, stable float formatting, atomic writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classifier import STAGES, CycleTable, Diagnostics, LabelTable, classify
from .config import RunConfig
from .errors import DataConsistencyError, ParseError
from .evaluation import (
    ConfusionCounts,
    PointTable,
    f_measure,
    macro_average_f,
    match_events,
    precision_recall,
)
from .features import ApplianceModel, day_columns, mode_changes, train_appliance
from .filtering import filter_and_detect, filtered_events
from .model_io import atomic_write, format_table, make_dirs, read_text
from .modes import Cluster, extract_states, states_from_clusters
from .signals import EventTable, PowerSignal

# the steps of the CLI flow; ``match_events`` is one, so ``evaluate`` scores
# through this module like every other command
__all__ = [
    "TrainResult", "build_ground_truth", "disaggregate", "format_event_report",
    "format_events_table", "format_metrics", "match_events", "parse_event_report",
    "train_models", "write_plot_data",
]


@dataclass
class TrainResult:
    models: list[ApplianceModel]
    notes: list[str] = field(default_factory=list)


def train_models(
    appliances: dict[str, PowerSignal],
    aggregate: PowerSignal,
    config: RunConfig,
) -> TrainResult:
    """Learn one model per appliance from its submetered training signal."""
    agg_events = filtered_events(aggregate)
    totals = {d: len(cols) for d, cols in day_columns(agg_events.index, aggregate).items()}

    result = TrainResult(models=[])
    for name in sorted(appliances):
        raw = appliances[name]
        filtered, events = filter_and_detect(raw)
        try:
            if not events:  # checked first: an idle channel is never clustered
                raise DataConsistencyError("no training events")
            states = extract_states(
                filtered,
                k=config.k_clusters,
                merge_ratio=config.merge_ratio,
                off_threshold=config.off_threshold,
            )
            model = train_appliance(
                name,
                raw,
                filtered,
                events,
                states,
                daily_totals=totals,
                day_base=aggregate.start_time,
                overshoot_floor_w=config.overshoot_floor,
                count_all_days=config.n_days_variant,
            )
        except DataConsistencyError as exc:
            # all samples in one cluster, OFF under any threshold: one OFF state
            off = states_from_clusters([Cluster.of(filtered.values)], off_threshold=math.inf)
            model = ApplianceModel(name, off, transitions=())
            result.notes.append(f"{name}: {exc}; OFF-only model")
        result.models.append(model)
    return result


def disaggregate(
    aggregate: PowerSignal,
    models: list[ApplianceModel],
    config: RunConfig,
) -> tuple[LabelTable, Diagnostics]:
    return classify(
        aggregate,
        models,
        all_off_margin=config.all_off_margin,
        budget=config.search_budget,
    )


# ---------------------------------------------------------------------------
# report formats


def format_event_report(labeled: LabelTable, signal: PowerSignal) -> str:
    events, keys = labeled.events, labeled.points().keys
    header = "# event report 1\ntimestamp\tindex\tmagnitude\tappliance\tfrom_mode\tto_mode\tstage"
    numbers = signal.time_at(events.index), events.index, events.magnitude
    labels = (([key[j] for key in keys], labeled.row) for j in range(3))
    return format_table(header, *numbers, *labels, (STAGES, labeled.stage))


def parse_event_report(path: str | Path, models: list[ApplianceModel], samples: int) -> PointTable:
    """The report's labeled events as columns. A label whose appliance or
    modes no model has is a ParseError, and so is an index outside the test
    signal's ``samples``; each names its line."""
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"report not found: {path}")
    modes = {m.appliance_id: set(m.states.mode_ids()) for m in models}
    slot, index, code = {}, [], []  # slot: label -> code
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip() or line.startswith("#") or line.startswith("timestamp"):
            continue
        parts = line.split("\t")
        if len(parts) != 7:
            raise ParseError(f"{path}:{lineno}: expected 7 tab-separated fields")
        try:
            index.append(np.int64(parts[1]))
        except (ValueError, OverflowError):
            raise ParseError(f"{path}:{lineno}: index must be an integer") from None
        if not 0 <= index[-1] < samples:
            raise ParseError(
                f"{path}:{lineno}: index {parts[1]} is outside the test signal's {samples} samples"
            )
        label = (parts[3], parts[4], parts[5])
        if label not in slot:
            if not {parts[4], parts[5]} <= modes.get(parts[3], set()):
                raise ParseError(f"{path}:{lineno}: no model has the label {' '.join(label)}")
            slot[label] = len(slot)
        code.append(slot[label])
    return PointTable(index, code, tuple(slot))


def build_ground_truth(
    appliances: dict[str, PowerSignal],
    models: list[ApplianceModel],
) -> PointTable:
    """Per-appliance events on submetered test signals, labeled by the model,
    ordered by index, then appliance."""
    by_id = {m.appliance_id: m for m in models}
    names = sorted(n for n in appliances if n in by_id and by_id[n].transitions)
    index, code, keys = [np.empty(0, np.int64)], [np.empty(0, np.int64)], []
    for name in names:
        events = filtered_events(appliances[name])
        modes = by_id[name].states.mode_ids()
        keep, src, dst = mode_changes(events, by_id[name].states)
        index.append(events.index[keep])
        # each appliance owns a block of S² keys, one per (from, to) state pair
        code.append(len(keys) + src * len(modes) + dst)
        keys += [(name, a, b) for a in modes for b in modes]
    index, code = np.concatenate(index), np.concatenate(code)
    order = np.argsort(index, kind="stable")  # ties keep the appliances' sorted order
    return PointTable(index[order], code[order], keys)


def format_metrics(counts: dict[str, ConfusionCounts]) -> str:
    lines = ["appliance\ttp\tfp\tfn\ttn\tprecision\trecall\tf_measure"]
    for name in sorted(counts):
        c = counts[name]
        p, r = precision_recall(c)
        lines.append(
            f"{name}\t{c.tp}\t{c.fp}\t{c.fn}\t{c.tn}\t{p:.4f}\t{r:.4f}\t{f_measure(c):.4f}"
        )
    lines.append(f"average_f\t{macro_average_f(counts):.4f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# plot data


def format_events_table(signal: PowerSignal, events: EventTable) -> str:
    """One line per detected event: index, time, magnitude, levels."""
    header = "index\ttime\tmagnitude\tpre_level\tpost_level"
    levels = events.magnitude, events.pre_level, events.post_level
    return format_table(header, events.index, signal.time_at(events.index), *levels)


def write_plot_data(
    outdir: str | Path,
    raw: PowerSignal,
    filtered: PowerSignal,
    events: EventTable,
    cycles: CycleTable | None = None,
) -> list[Path]:
    """Columnar series for external plotting: signal, events, cycles."""
    outdir = make_dirs(outdir)
    written = [outdir / "signal.tsv", outdir / "events.tsv"]
    text = format_table("time\traw\tfiltered", raw.times(), raw.values, filtered.values)
    atomic_write(written[0], text)
    atomic_write(written[1], format_events_table(raw, events))
    if cycles is not None:
        written.append(outdir / "cycles.tsv")
        t0 = raw.time_at(events.index[cycles.starts])
        t1 = raw.time_at(events.post_index[cycles.ends])
        header = "start_event\tend_event\tstart_time\tend_time"
        atomic_write(written[2], format_table(header, cycles.starts, cycles.ends, t0, t1))
    return written
