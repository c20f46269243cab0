"""Command-line interface.

Subcommands cover each pipeline stage plus dataset generation:

  filter        raw channel -> filtered two-column series
  detect-events raw channel -> event table
  extract-modes raw channel -> learned state table
  train         dataset manifest -> model file
  disaggregate  manifest + model file -> labeled-event report
  evaluate      report + manifest + model file -> metrics table
  synth         generate a ground-truthed synthetic dataset
  plot-data     raw channel -> plot-ready columnar files

Exit codes: 0 success, 1 usage error, 2 data error (an input that cannot be
read, or an output path that cannot be written), 3 internal error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import dataset as ds
from .config import FIELD_TYPES, RunConfig, read_config
from .errors import NilmError
from .filtering import filter_and_detect, filtered_events
from .model_io import atomic_write, format_number, format_numbers, join_cells
from .model_io import load_models, save_models
from .modes import extract_states
from .signals import gap_threshold, resample_step_hold
from .synth import balanced_household, demo_household, generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the contract here says 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _period(text: str) -> float:
    """Sample period in seconds: a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"period must be a positive number, not {text!r}")
    return value


_MODE_FIELDS = ("k_clusters", "merge_ratio", "off_threshold")  # what extract_states reads


def _add_config_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """--config, and one flag per named RunConfig field: --k-clusters sets
    k_clusters, and so on. A command names only the fields it reads."""
    p.add_argument("--config", help="key = value config file")
    for name in names:
        flag = "--" + name.replace("_", "-")
        if FIELD_TYPES[name] == "bool":
            p.add_argument(flag, action="store_const", const=True, dest=name)
        else:
            p.add_argument(flag, type={"int": int, "float": float}[FIELD_TYPES[name]], dest=name)


def _config_from(args) -> RunConfig:
    config = read_config(args.config) if args.config else RunConfig()
    given = {name: v for name in FIELD_TYPES if (v := getattr(args, name, None)) is not None}
    return replace(config, **given)


def _note_faults(
    channel: str, clipped: int, gaps: list, max_gap: float, disorder: tuple[int, int]
) -> None:
    """One stderr note for a channel whose meter faults the ingest repaired."""
    duplicates, unordered = disorder
    if clipped or gaps or duplicates or unordered:
        note = (
            f"note: {channel}: {clipped} negative readings clipped to 0 W,"
            f" {len(gaps)} gaps longer than {format_number(max_gap)} s"
        )
        if duplicates or unordered:
            note += f", {duplicates} duplicate and {unordered} out-of-order timestamps"
        print(note, file=sys.stderr)


def _read_signal(path: str, period: float | None):
    times, watts, clipped = ds.read_channel(path)
    disorder = ds.timestamp_faults(times)
    if period is None:
        import numpy as np

        diffs = np.diff(np.sort(times))
        diffs = diffs[diffs > 0]
        period = float(np.median(diffs)) if diffs.size else 1.0
    max_gap = gap_threshold(period)
    source = Path(path).stem
    signal, gaps = resample_step_hold(times, watts, period, max_gap=max_gap, source_id=source)
    _note_faults(signal.source_id, clipped, gaps, max_gap, disorder)
    return signal


def _load_dataset(manifest: str) -> ds.DatasetBundle:
    bundle = ds.load_dataset(ds.read_manifest(manifest))
    for name in bundle.appliances:
        _note_faults(
            name,
            bundle.clipped[name],
            bundle.gaps[name],
            bundle.manifest.max_gap_s,
            bundle.disorder[name],
        )
    return bundle


def cmd_filter(args) -> int:
    filtered, _ = filter_and_detect(_read_signal(args.input, args.period))
    cells = format_numbers(filtered.times(), "\t"), format_numbers(filtered.values, "\n")
    atomic_write(args.output, "time\tfiltered\n" + join_cells(*cells))
    print(f"wrote {len(filtered)} filtered samples to {args.output}")
    return EXIT_OK


def cmd_detect_events(args) -> int:
    from . import pipeline

    signal = _read_signal(args.input, args.period)
    events = filtered_events(signal)
    atomic_write(args.output, pipeline.format_events_table(signal, events))
    print(f"wrote {len(events)} events to {args.output}")
    return EXIT_OK


def cmd_extract_modes(args) -> int:
    config = _config_from(args)
    filtered, _ = filter_and_detect(_read_signal(args.input, args.period))
    states = extract_states(
        filtered,
        k=config.k_clusters,
        merge_ratio=config.merge_ratio,
        off_threshold=config.off_threshold,
    )
    lines = ["mode\tlow\thigh\tcentroid\tsize"]
    for s in states.states:
        lines.append(
            f"{s.mode}\t{format_number(s.low)}\t{format_number(s.high)}"
            f"\t{format_number(s.centroid)}\t{s.size}"
        )
    atomic_write(args.output, "\n".join(lines) + "\n")
    print(f"wrote {len(states.states)} states to {args.output}")
    return EXIT_OK


def cmd_train(args) -> int:
    from . import pipeline

    config = _config_from(args)
    bundle = _load_dataset(args.manifest)
    train_apps, train_agg, _, _ = ds.split_bundle(bundle)
    result = pipeline.train_models(train_apps, train_agg, config)
    save_models(args.output, result.models)
    for note in result.notes:
        print(f"note: {note}", file=sys.stderr)
    print(f"trained {len(result.models)} appliance models -> {args.output}")
    return EXIT_OK


def cmd_disaggregate(args) -> int:
    from . import pipeline

    config = _config_from(args)
    bundle = _load_dataset(args.manifest)
    _, _, _, test_agg = ds.split_bundle(bundle)
    models = load_models(args.model)
    labeled, diagnostics = pipeline.disaggregate(test_agg, models, config)
    atomic_write(args.output, pipeline.format_event_report(labeled, test_agg))
    if diagnostics.unrefined_cycles:
        print(
            f"note: {len(diagnostics.unrefined_cycles)} cycle(s) left unrefined",
            file=sys.stderr,
        )
    print(f"labeled {len(labeled)} events -> {args.output}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from . import pipeline

    config = _config_from(args)
    bundle = _load_dataset(args.manifest)
    _, _, test_apps, test_agg = ds.split_bundle(bundle)
    models = load_models(args.model)
    predicted = pipeline.parse_event_report(args.report, models, len(test_agg))
    truth = pipeline.build_ground_truth(test_apps, models)
    counts = pipeline.match_events(predicted, truth, config.match_tolerance)
    text = pipeline.format_metrics(counts)
    if args.output:
        atomic_write(args.output, text)
    print(text, end="")
    return EXIT_OK


def cmd_synth(args) -> int:
    config = _config_from(args)
    split = args.train_days
    if not 1 <= split < args.days:
        print(
            "error: train day count must be at least 1 and leave test days",
            file=sys.stderr,
        )
        return EXIT_USAGE
    household = demo_household() if args.household == "demo" else balanced_household()
    result = generate(household, days=args.days, period=args.period, seed=config.seed)
    manifest = ds.write_dataset(
        args.output,
        result,
        train_days=(0, split - 1),
        test_days=(split, args.days - 1),
    )
    print(
        f"wrote {len(result.appliances)} channels, {len(result.truth_index)} truth events"
        f" -> {manifest}"
    )
    return EXIT_OK


def cmd_plot_data(args) -> int:
    from . import pipeline
    from .classifier import all_off_threshold, segment_cycles

    signal = _read_signal(args.input, args.period)
    filtered, events = filter_and_detect(signal)
    cycles = None
    if args.model:
        models = load_models(args.model)
        threshold = all_off_threshold(models)
        cycles = segment_cycles(filtered, events, threshold)
    written = pipeline.write_plot_data(args.output, signal, filtered, events, cycles)
    print(f"wrote {', '.join(str(p) for p in written)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eventnilm",
        description="Event-based load disaggregation from a single power meter",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="replace spikes and overshoots in a channel")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--period", type=_period, default=None)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("detect-events", help="detect mode-change events in a channel")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--period", type=_period, default=None)
    p.set_defaults(func=cmd_detect_events)

    p = sub.add_parser("extract-modes", help="learn operating states from a channel")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--period", type=_period, default=None)
    _add_config_flags(p, *_MODE_FIELDS)
    p.set_defaults(func=cmd_extract_modes)

    p = sub.add_parser("train", help="train appliance models from a dataset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--output", required=True)
    _add_config_flags(p, *_MODE_FIELDS, "overshoot_floor", "n_days_variant")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("disaggregate", help="label the test aggregate's events")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--output", required=True)
    _add_config_flags(p, "all_off_margin", "search_budget")
    p.set_defaults(func=cmd_disaggregate)

    p = sub.add_parser("evaluate", help="score a report against submetered truth")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--output", default=None)
    _add_config_flags(p, "match_tolerance")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic dataset with ground truth")
    p.add_argument("--output", required=True)
    p.add_argument("--days", type=int, default=28)
    p.add_argument("--train-days", type=int, default=21, dest="train_days")
    p.add_argument("--period", type=_period, default=20.0)
    p.add_argument("--household", choices=("demo", "balanced"), default="demo")
    _add_config_flags(p, "seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("plot-data", help="emit plot-ready series for a channel")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--period", type=_period, default=None)
    p.add_argument("--model", default=None, help="model file, enables cycle export")
    p.set_defaults(func=cmd_plot_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NilmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - last-resort guard for exit code 3
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
