"""End-to-end orchestration: train, disaggregate, evaluate, plot data.

Glues the library stages together on dataset bundles and writes the text
artifacts the command-line tool exposes. Everything here is deterministic:
sorted appliance order, stable float formatting, atomic writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classifier import STAGES, Cycle, CycleTable, Diagnostics, LabelTable, classify
from .config import RunConfig
from .errors import DataConsistencyError, ParseError
from .evaluation import (
    ConfusionCounts,
    LabelPoint,
    PointTable,
    f_measure,
    macro_average_f,
    match_events,
    precision_recall,
)
from .features import ApplianceModel, day_columns, mode_changes, train_appliance
from .filtering import filter_and_detect
from .model_io import atomic_write, format_number, format_numbers, make_dirs, read_text
from .modes import OFF_MODE, State, StateSet, extract_states
from .signals import EventTable, PowerSignal


@dataclass
class TrainResult:
    models: list[ApplianceModel]
    notes: list[str] = field(default_factory=list)


def _off_only_model(name: str, filtered: PowerSignal) -> ApplianceModel:
    vals = filtered.values
    states = StateSet(
        states=(
            State(
                OFF_MODE,
                low=float(vals.min()),
                high=float(vals.max()),
                centroid=float(vals.mean()),
                size=len(filtered),
            ),
        )
    )
    return ApplianceModel(
        appliance_id=name, states=states, transitions=(), participation={}, behaviors=None
    )


def train_models(
    appliances: dict[str, PowerSignal],
    aggregate: PowerSignal,
    config: RunConfig,
) -> TrainResult:
    """Learn one model per appliance from its submetered training signal."""
    _, agg_events = filter_and_detect(aggregate)
    totals = {d: len(cols) for d, cols in day_columns(agg_events.index, aggregate).items()}

    result = TrainResult(models=[])
    for name in sorted(appliances):
        raw = appliances[name]
        filtered, events = filter_and_detect(raw)
        if not events:
            result.models.append(_off_only_model(name, filtered))
            result.notes.append(f"{name}: no training events; OFF-only model")
            continue
        states = extract_states(
            filtered,
            k=config.k_clusters,
            merge_ratio=config.merge_ratio,
            off_threshold=config.off_threshold,
        )
        try:
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
            result.models.append(_off_only_model(name, filtered))
            result.notes.append(f"{name}: {exc}; OFF-only model")
            continue
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
    events = labeled.events
    times = signal.start_time + events.index * signal.sample_period
    labels = ["\t".join((row.appliance, *row.transition.key)) for row in labeled.rows]
    rows = map(
        "\t".join,
        zip(
            format_numbers(times),
            map(str, events.index.tolist()),
            format_numbers(events.magnitude),
            map(labels.__getitem__, labeled.row.tolist()),
            map(STAGES.__getitem__, labeled.stage.tolist()),
        ),
    )
    header = "timestamp\tindex\tmagnitude\tappliance\tfrom_mode\tto_mode\tstage"
    return "\n".join(["# event report 1", header, *rows]) + "\n"


def parse_event_report(path: str | Path) -> PointTable:
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"report not found: {path}")
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
        code.append(slot.setdefault((parts[3], parts[4], parts[5]), len(slot)))
    return PointTable(index, code, tuple(slot))


def build_ground_truth(
    appliances: dict[str, PowerSignal],
    models: list[ApplianceModel],
    offset: int = 0,
) -> PointTable:
    """Per-appliance events on submetered test signals, labeled by the model,
    ordered by index, then appliance.

    ``offset`` shifts indices when the signals are a slice of a longer
    aggregate (so predictions and truth share an index origin).
    """
    by_id = {m.appliance_id: m for m in models}
    names = sorted(n for n in appliances if n in by_id and by_id[n].transitions)
    index, code, keys = [np.empty(0, np.int64)], [np.empty(0, np.int64)], []
    for name in names:
        _, events = filter_and_detect(appliances[name])
        modes = by_id[name].states.mode_ids()
        keep, src, dst = mode_changes(events, by_id[name].states)
        index.append(events.index[keep])
        # each appliance owns a block of S² keys, one per (from, to) state pair
        code.append(len(keys) + src * len(modes) + dst)
        keys += [(name, a, b) for a in modes for b in modes]
    index, code = np.concatenate(index), np.concatenate(code)
    order = np.argsort(index, kind="stable")  # ties keep the appliances' sorted order
    return PointTable(index[order] + offset, code[order], keys)


def evaluate_points(
    predicted: PointTable | list[LabelPoint],
    truth: PointTable | list[LabelPoint],
    tolerance: int,
) -> tuple[dict[str, ConfusionCounts], float]:
    counts = match_events(predicted, truth, tolerance)
    return counts, macro_average_f(counts)


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
    times = signal.start_time + events.index * signal.sample_period
    numbers = map(format_numbers, (times, events.magnitude, events.pre_level, events.post_level))
    rows = map("\t".join, zip(map(str, events.index.tolist()), *numbers))
    return "\n".join(["index\ttime\tmagnitude\tpre_level\tpost_level", *rows]) + "\n"


def write_plot_data(
    outdir: str | Path,
    raw: PowerSignal,
    filtered: PowerSignal,
    events: EventTable,
    cycles: CycleTable | list[Cycle] | None = None,
) -> list[Path]:
    """Columnar series for external plotting: signal, events, cycles."""
    outdir = make_dirs(outdir)
    written = []

    rows = map("\t".join, zip(*map(format_numbers, (raw.times(), raw.values, filtered.values))))
    p = outdir / "signal.tsv"
    atomic_write(p, "\n".join(["time\traw\tfiltered", *rows]) + "\n")
    written.append(p)

    p = outdir / "events.tsv"
    atomic_write(p, format_events_table(raw, events))
    written.append(p)

    if cycles is not None:
        lines = ["start_event\tend_event\tstart_time\tend_time"]
        for c in cycles:
            t0 = raw.time_at(int(events.index[c.start_event]))
            t1 = raw.time_at(int(events.post_index[c.end_event]))
            lines.append(
                f"{c.start_event}\t{c.end_event}"
                f"\t{format_number(t0)}\t{format_number(t1)}"
            )
        p = outdir / "cycles.tsv"
        atomic_write(p, "\n".join(lines) + "\n")
        written.append(p)
    return written
