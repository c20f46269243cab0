"""In-memory spans for the traced benchmark run.

A traced run replaces each public eventnilm function at the module attribute
its caller looks it up through (see ``SITES``) with a wrapper that records a
span around the call and, after the span ends, reads counts off the call's
arguments and result. Counting runs inside a ``trace.counters`` span of its
own, so its cost lands there and not in the self time of the layer that
called the wrapped function. ``installed`` puts the originals back on exit,
so untraced runs never pay for tracing.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

COUNTER_SPAN = "trace.counters"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    """Spans and counts of one run (one process or one traced round)."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._ids = itertools.count()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.run))

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts[name], value)

    def to_dict(self) -> dict:
        return {
            "run": self.run,
            "spans": [asdict(s) for s in self.spans],
            "counts": dict(self.counts),
        }


def self_times(spans: list[Span]) -> dict[tuple[str, int], float]:
    """Each span's duration minus its direct children's durations.

    A run's spans come from one single-threaded stack, so children nest
    inside their parent and never overlap each other.
    """
    covered: dict[tuple[str, int], float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[(s.run, s.parent)] += s.end - s.start
    return {(s.run, s.id): (s.end - s.start) - covered[(s.run, s.id)] for s in spans}


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += own[(s.run, s.id)]
    return dict(out)


def spans_from_dicts(items: list[dict]) -> list[Span]:
    return [Span(**d) for d in items]


# ---------------------------------------------------------------------------
# counters: (tracer, result, args, kwargs) -> None, run after the span ends


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_filter(tracer, result, args, kwargs):
    tracer.add("filtering.samples_in", len(_arg(args, kwargs, 0, "signal")))
    tracer.add("filtering.events_out", len(result[1]))


def _count_lw_cluster(tracer, result, args, kwargs):
    # imported here so that in the CLI launcher the cli.import span, which
    # runs before this module's first count, still covers loading numpy
    import numpy as np

    samples = np.asarray(_arg(args, kwargs, 0, "samples"))
    tracer.add("modes.samples_in", samples.size)
    tracer.add("modes.distinct_values", np.unique(samples).size)


def _count_states(tracer, result, args, kwargs):
    tracer.add("modes.states_out", len(result.states))


def _count_transitions(tracer, result, args, kwargs):
    tracer.add("features.transitions_out", len(result.transitions))


def _count_matrix(stage):
    def count(tracer, matrix, args, kwargs):
        per_column = matrix.cells.sum(axis=0)
        tracer.add(f"classifier.candidates_after_{stage}", int(per_column.sum()))
        tracer.add(f"classifier.single_after_{stage}", int((per_column == 1).sum()))
        if stage == "initial_labels":
            tracer.add("classifier.events", len(matrix.events))

    return count


def _count_cycles(tracer, cycles, args, kwargs):
    tracer.add("classifier.cycles", len(cycles))
    for c in cycles:
        tracer.peak("classifier.max_cycle_events", c.end_event - c.start_event + 1)


def _count_classify(tracer, result, args, kwargs):
    labeled, diagnostics = result
    for _, reason in diagnostics.unrefined_cycles:
        tracer.add("classifier.unrefined." + reason.replace(" ", "_"), 1)
    for item in labeled:
        tracer.add(f"classifier.stage.{item.stage}", 1)


def _count_truth(tracer, result, args, kwargs):
    tracer.add("evaluation.truth_points", len(result))


def _count_lines(tracer, result, args, kwargs):
    tracer.add("dataset.lines_parsed", len(result[0]))


def _count_model_bytes(tracer, result, args, kwargs):
    tracer.add("model_io.model_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


# (module, attribute, span name, counter). Each entry is the name a caller
# resolves at call time: ``from x import f`` callers look f up in their own
# module, so the same function can need several entries.
SITES = (
    ("eventnilm.synth", "generate", "synth.generate", None),
    ("eventnilm.cli", "generate", "synth.generate", None),
    ("eventnilm.dataset", "write_dataset", "dataset.write_dataset", None),
    ("eventnilm.dataset", "load_dataset", "dataset.load_dataset", None),
    ("eventnilm.dataset", "read_channel", "dataset.read_channel", _count_lines),
    ("eventnilm.dataset", "resample_step_hold", "signals.resample_step_hold", None),
    ("eventnilm.pipeline", "train_models", "pipeline.train_models", None),
    ("eventnilm.pipeline", "filter_and_detect", "filtering.filter_and_detect", _count_filter),
    ("eventnilm.classifier", "filter_and_detect", "filtering.filter_and_detect", _count_filter),
    ("eventnilm.pipeline", "extract_states", "modes.extract_states", _count_states),
    ("eventnilm.modes", "lw_cluster", "modes.lw_cluster", _count_lw_cluster),
    ("eventnilm.modes", "distance_merge", "modes.distance_merge", None),
    ("eventnilm.pipeline", "train_appliance", "features.train_appliance", _count_transitions),
    ("eventnilm.cli", "save_models", "model_io.save_models", _count_model_bytes),
    ("eventnilm.cli", "load_models", "model_io.load_models", None),
    ("eventnilm.pipeline", "classify", "classifier.classify", _count_classify),
    ("eventnilm.classifier", "initial_labels", "classifier.initial_labels",
     _count_matrix("initial_labels")),
    ("eventnilm.classifier", "segment_cycles", "classifier.segment_cycles", _count_cycles),
    ("eventnilm.classifier", "refine_by_compatibility", "classifier.refine_by_compatibility",
     _count_matrix("refine_by_compatibility")),
    ("eventnilm.classifier", "refine_by_behaviors", "classifier.refine_by_behaviors",
     _count_matrix("refine_by_behaviors")),
    ("eventnilm.classifier", "resolve_by_participation", "classifier.resolve_by_participation",
     _count_matrix("resolve_by_participation")),
    ("eventnilm.classifier", "enforce_cycle_closure", "classifier.enforce_cycle_closure",
     _count_matrix("enforce_cycle_closure")),
    ("eventnilm.pipeline", "format_event_report", "pipeline.format_event_report", None),
    ("eventnilm.pipeline", "parse_event_report", "pipeline.parse_event_report", None),
    ("eventnilm.pipeline", "build_ground_truth", "pipeline.build_ground_truth", _count_truth),
    ("eventnilm.pipeline", "match_events", "evaluation.match_events", None),
    ("eventnilm.evaluation", "match_events", "evaluation.match_events", None),
)


def wrap(tracer: Tracer, fn, name: str, counter=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            with tracer.span(COUNTER_SPAN):
                counter(tracer, result, args, kwargs)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer, sites=SITES):
    """Wrap every site for the duration of the block, then restore it."""
    # import everything before patching anything, so a module imported late
    # cannot bind an already-wrapped function through ``from x import f``
    modules = [importlib.import_module(site[0]) for site in sites]
    patched = []
    try:
        for module, (_, attr, name, counter) in zip(modules, sites):
            original = getattr(module, attr)
            setattr(module, attr, wrap(tracer, original, name, counter))
            patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
