"""Workloads, timed rounds and output checks of the eventnilm benchmark.

A run sets up one workload's inputs from its seed, then makes rounds until
the requested seconds, set-up included, have passed: each round trains once,
then disaggregate, evaluate and set-up take turns. Every round's outputs are
checked. ``demo28`` and ``balanced120`` call the library in this process;
``cli28`` runs each step as its own ``eventnilm`` process on text files, as
users do. README.md says why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

from eventnilm import dataset, evaluation, model_io, pipeline, synth
from eventnilm.classifier import all_off_threshold, segment_cycles
from eventnilm.config import RunConfig
from eventnilm.evaluation import LabelPoint
from eventnilm.filtering import filter_and_detect

import spans

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
LAUNCHER = BENCH_DIR / "cli_launch.py"


@dataclass(frozen=True)
class Workload:
    name: str
    household: str  # "demo" or "balanced"
    days: int
    train_days: int  # train on days [0, train_days), label the rest
    cli: bool = False
    # Criterion 7's floors (macro F, every appliance's F). The acceptance gate
    # states them for seed 0, so they are checked at seed 0 only; other seeds
    # report their quality without a floor.
    floors: tuple[float, float] | None = None


WORKLOADS = {
    "demo28": Workload("demo28", "demo", 28, 21, floors=(0.90, 0.75)),
    "balanced120": Workload("balanced120", "balanced", 120, 7),
    "cli28": Workload("cli28", "demo", 28, 21, cli=True, floors=(0.90, 0.75)),
}

# (name, unit, better): printed with --trace 0 ...
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("disaggregate_s", "s", "lower"),
    ("evaluate_s", "s", "lower"),
    ("total_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("macro_f", "1", "higher"),
    ("refined_cycle_share", "ratio", "higher"),
    ("phase_ok_rate", "ratio", "higher"),
)

SELF_TIME_SPANS = (
    "synth.generate",
    "dataset.write_dataset",
    "cli.import",
    "dataset.load_dataset",
    "dataset.read_channel",
    "signals.resample_step_hold",
    "pipeline.train_models",
    "filtering.filter_and_detect",
    "modes.extract_states",
    "modes.lw_cluster",
    "modes.distance_merge",
    "features.train_appliance",
    "model_io.save_models",
    "model_io.load_models",
    "classifier.classify",
    "classifier.initial_labels",
    "classifier.segment_cycles",
    "classifier.refine_by_compatibility",
    "classifier.refine_by_behaviors",
    "classifier.resolve_by_participation",
    "classifier.enforce_cycle_closure",
    "pipeline.format_event_report",
    "pipeline.parse_event_report",
    "pipeline.build_ground_truth",
    "evaluation.match_events",
    spans.COUNTER_SPAN,
)
STAGES = (
    "initial_labels",
    "refine_by_compatibility",
    "refine_by_behaviors",
    "resolve_by_participation",
    "enforce_cycle_closure",
)
UNREFINED_REASONS = ("no_compatible_assignment", "search_budget_exhausted")
LABEL_STAGES = ("containment", "compatibility", "behavior", "participation", "closure")

# ... and with --trace 1. Counts carry a nominal "lower" (less work) unless
# more of them is the useful outcome.
PER_LAYER = (
    tuple((f"{name}_s", "s", "lower") for name in SELF_TIME_SPANS)
    + (
        ("trace.overhead_s", "s", "lower"),
        ("filtering.samples_in", "count", "lower"),
        ("filtering.events_out", "count", "lower"),
        ("modes.samples_in", "count", "lower"),
        ("modes.distinct_values", "count", "lower"),
        ("modes.states_out", "count", "lower"),
        ("features.transitions_out", "count", "lower"),
        ("dataset.lines_parsed", "count", "lower"),
        ("model_io.model_bytes", "B", "lower"),
        ("classifier.events", "count", "lower"),
        ("classifier.cycles", "count", "lower"),
        ("classifier.max_cycle_events", "count", "lower"),
    )
    + tuple((f"classifier.candidates_after_{s}", "count", "lower") for s in STAGES)
    + tuple((f"classifier.single_after_{s}", "ratio", "higher") for s in STAGES)
    + tuple((f"classifier.unrefined.{r}", "count", "lower") for r in UNREFINED_REASONS)
    + tuple((f"classifier.stage.{s}", "count", "lower") for s in LABEL_STAGES)
    + (
        ("evaluation.truth_points", "count", "lower"),
        ("evaluation.min_appliance_f", "1", "higher"),
    )
)


# Within a library round, disaggregate, evaluate and set-up take turns until
# the turns add up to this long; a cli28 round sets up once and makes this many
# turns of disaggregate and evaluate. Every short phase then samples the same
# stretches of the run: on a shared machine the speed of the same code drifts
# by tens of percent over seconds.
BURST_SECONDS = 1.5
CLI_TURNS = 2
# At least three samples of every phase, train included: with two, the slow
# and fast stretches of a shared machine moved cli28's train_s by a quarter
# from run to run.
MIN_ROUNDS = 3


def p90(times: list[float]) -> float:
    """The 90th percentile, interpolated between the samples."""
    return statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]


def timed(fn: Callable):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


class Checks:
    """Phases attempted, and the ones that raised or failed an output check."""

    def __init__(self):
        self.attempted = 0
        self.failed_phases: set[str] = set()
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failed_phases)

    def expect(self, ok: bool, phase: str, message: str) -> bool:
        if not ok:
            self.failed_phases.add(phase)
            self.problems.append(f"{phase}: {message}")
        return ok


@dataclass
class Outputs:
    """What a round produced, reduced to what the checks compare."""

    models_sha: str
    report_sha: str
    labels: list[tuple[int, str, str, str]]
    f: dict[str, float]
    macro_f: float
    unrefined: int

    def quality(self):
        return (self.macro_f, sorted(self.f.items()), self.unrefined)


@dataclass
class Round:
    train_s: float
    disaggregate_s: list[float]
    evaluate_s: list[float]
    outputs: Outputs
    # library: this process's peak before the round's first set-up turn;
    # cli28: the largest train/disaggregate/evaluate process
    rss_mb: float = 0.0
    setup_s: list[float] = field(default_factory=list)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# library flow


class Inputs(NamedTuple):
    train_apps: dict
    train_agg: object
    test_apps: dict
    test_agg: object


def make_inputs(wl: Workload, seed: int) -> Inputs:
    household = synth.demo_household() if wl.household == "demo" else synth.balanced_household()
    result = synth.generate(household, days=wl.days, seed=seed)
    base = result.aggregate.start_time
    train, test = (0, wl.train_days - 1), (wl.train_days, wl.days - 1)
    return Inputs(
        {n: dataset.slice_days(s, train, base) for n, s in result.appliances.items()},
        dataset.slice_days(result.aggregate, train, base),
        {n: dataset.slice_days(s, test, base) for n, s in result.appliances.items()},
        dataset.slice_days(result.aggregate, test, base),
    )


def label_rows(labeled) -> list[tuple[int, str, str, str]]:
    return [
        (l.event.index, l.appliance, l.transition.from_mode, l.transition.to_mode)
        for l in labeled
    ]


class LibraryRound(NamedTuple):
    train_s: float
    setup_s: list[float]
    disaggregate_s: list[float]
    evaluate_s: list[float]
    models: list
    labeling: tuple  # (labeled events, diagnostics) of the first call
    counts: dict  # confusion counts of the first call
    rss_mb: float  # peak RSS before the first set-up turn
    setup_stable: bool
    labeling_stable: bool
    counts_stable: bool


def library_round(
    inputs: Inputs, config: RunConfig, burst_seconds: float, setup: Callable | None = None
) -> LibraryRound:
    """Time one train, then turns of disaggregate, evaluate and set-up (when
    given) until the turns add up to ``burst_seconds`` (one turn when 0).
    Each later output is compared with the first, or with ``inputs`` for
    set-up, and dropped; the first outputs are checked later.

    The peak RSS is read before the first set-up turn: from then on the
    process also holds the set-up's copy of the inputs, which only the
    benchmark keeps."""
    train_s, trained = timed(lambda: pipeline.train_models(inputs.train_apps, inputs.train_agg, config))
    models = trained.models
    setup_s, dis_s, eval_s = [], [], []
    labeling = counts = predicted = rss_mb = None
    setup_stable = labeling_stable = counts_stable = True

    def evaluate():
        truth = pipeline.build_ground_truth(inputs.test_apps, models)
        return evaluation.match_events(predicted, truth, config.match_tolerance)

    while not dis_s or sum(setup_s) + sum(dis_s) + sum(eval_s) < burst_seconds:
        t, out = timed(lambda: pipeline.disaggregate(inputs.test_agg, models, config))
        dis_s.append(t)
        if labeling is None:
            labeling = out
            predicted = [LabelPoint(*row) for row in label_rows(labeling[0])]
        else:
            labeling_stable = labeling_stable and out == labeling
        t, out = timed(evaluate)
        eval_s.append(t)
        if counts is None:
            counts = out
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            counts_stable = counts_stable and out == counts
        if setup is not None:
            t, out = timed(setup)
            setup_s.append(t)
            setup_stable = setup_stable and same_inputs(out, inputs)
    return LibraryRound(train_s, setup_s, dis_s, eval_s, models, labeling, counts, rss_mb,
                        setup_stable, labeling_stable, counts_stable)


def library_outputs(raw: LibraryRound, inputs: Inputs, work: Path, checks: Checks, tag: str) -> Outputs:
    labeled, diagnostics = raw.labeling
    checks.expect(raw.setup_stable, f"{tag}/setup", "generated inputs differ between calls")
    checks.expect(raw.labeling_stable, f"{tag}/disaggregate", "repeated calls labeled differently")
    checks.expect(raw.counts_stable, f"{tag}/evaluate", "repeated calls scored differently")
    _, events = filter_and_detect(inputs.test_agg)
    checks.expect(
        [l.event.index for l in labeled] == [e.index for e in events],
        f"{tag}/disaggregate",
        f"{len(labeled)} labels for {len(events)} detected events",
    )
    model_path = work / "models.json"
    model_io.save_models(model_path, raw.models)
    report = pipeline.format_event_report(labeled, inputs.test_agg)
    counts = raw.counts
    return Outputs(
        models_sha=sha(model_path.read_bytes()),
        report_sha=sha(report.encode()),
        labels=label_rows(labeled),
        f={name: evaluation.f_measure(c) for name, c in counts.items()},
        macro_f=evaluation.macro_average_f(counts),
        unrefined=len(diagnostics.unrefined_cycles),
    )


def count_cycles(test_agg, models_path: Path, config: RunConfig) -> int:
    models = model_io.load_models(models_path)
    filtered, events = filter_and_detect(test_agg)
    threshold = all_off_threshold(models, config.all_off_margin)
    return len(segment_cycles(filtered, events, threshold))


# ---------------------------------------------------------------------------
# CLI flow


class Proc(NamedTuple):
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH", "")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_process(argv: list[str], work: Path) -> Proc:
    """Run to completion; wall time and peak RSS of that one process."""
    out, err = work / "stdout.txt", work / "stderr.txt"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=work, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        wall,
        usage.ru_maxrss / 1024.0,
        proc.returncode,
        out.read_text(encoding="utf-8"),
        err.read_text(encoding="utf-8"),
    )


class Cli:
    """Runs ``eventnilm`` subcommands, through the tracing launcher if asked."""

    def __init__(self, work: Path, trace_dir: Path | None = None):
        self.work = work
        self.trace_dir = trace_dir
        self.calls = 0

    def __call__(self, *args: str) -> Proc:
        self.calls += 1
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "eventnilm.cli", *args]
        else:
            out = self.trace_dir / f"{self.calls:03d}-{args[0]}.json"
            argv = [sys.executable, str(LAUNCHER), "--spans", str(out),
                    "--run", f"{self.calls:03d}-{args[0]}", "--", *args]
        return run_process(argv, self.work)


def synth_args(wl: Workload, seed: int, out: Path) -> list[str]:
    return ["synth", "--output", str(out), "--household", wl.household,
            "--days", str(wl.days), "--train-days", str(wl.train_days), "--seed", str(seed)]


def dataset_digest(root: Path) -> dict[str, str]:
    return {p.name: sha(p.read_bytes()) for p in sorted(root.iterdir()) if p.is_file()}


def cli_round(
    cli: Cli, data: Path, checks: Checks, tag: str, turns: int,
    setup: Callable[[str], float] | None = None,
) -> Round:
    """One ``train``, one set-up (when given), then ``turns`` turns of
    ``disaggregate`` and ``evaluate``, each its own process."""
    manifest = str(data / "manifest.cfg")
    models, report = str(data / "models.json"), str(data / "report.tsv")
    train = cli("train", "--manifest", manifest, "--output", models)
    checks.expect(train.code == 0, f"{tag}/train", f"exit {train.code}: {train.stderr}")
    setup_s = [] if setup is None else [setup(f"{tag}/setup")]
    dis, evals, report_shas = [], [], []
    for _ in range(turns):
        dis.append(cli("disaggregate", "--manifest", manifest, "--model", models, "--output", report))
        report_shas.append(sha(Path(report).read_bytes()) if dis[-1].code == 0 else "")
        evals.append(cli("evaluate", "--manifest", manifest, "--model", models, "--report", report))
    for phase, procs in (("disaggregate", dis), ("evaluate", evals)):
        for i, p in enumerate(procs):
            checks.expect(p.code == 0, f"{tag}/{phase}/{i}", f"exit {p.code}: {p.stderr}")
            checks.expect(
                p.stdout == procs[0].stdout, f"{tag}/{phase}/{i}", "output differs from first call"
            )
    checks.expect(len(set(report_shas)) == 1, f"{tag}/disaggregate", "reports differ")
    f, macro_f = parse_metrics(evals[0].stdout)
    outputs = Outputs(
        models_sha=sha(Path(models).read_bytes()) if train.code == 0 else "",
        report_sha=report_shas[0],
        labels=parse_report(Path(report)) if report_shas[0] else [],
        f=f,
        macro_f=macro_f,
        unrefined=parse_unrefined(dis[0].stderr),
    )
    return Round(
        train_s=train.wall_s,
        disaggregate_s=[p.wall_s for p in dis],
        evaluate_s=[p.wall_s for p in evals],
        outputs=outputs,
        rss_mb=max(p.rss_mb for p in (train, *dis, *evals)),
        setup_s=setup_s,
    )


def parse_report(path: Path) -> list[tuple[int, str, str, str]]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith(("#", "timestamp")) or not line.strip():
            continue
        f = line.split("\t")
        rows.append((int(f[1]), f[3], f[4], f[5]))
    return rows


def parse_metrics(text: str) -> tuple[dict[str, float], float]:
    """Per-appliance F and the ``average_f`` line of ``evaluate``'s table."""
    f, avg = {}, float("nan")
    for line in text.splitlines()[1:]:
        parts = line.split("\t")
        if parts[0] == "average_f":
            avg = float(parts[1])
        elif len(parts) == 8:
            f[parts[0]] = float(parts[7])
    return f, avg


def parse_unrefined(stderr: str) -> int:
    m = re.search(r"note: (\d+) cycle\(s\) left unrefined", stderr)
    return int(m.group(1)) if m else 0


# ---------------------------------------------------------------------------
# one run of one workload


@dataclass
class RunState:
    wl: Workload
    seed: int
    work: Path
    config: RunConfig = field(default_factory=RunConfig)
    checks: Checks = field(default_factory=Checks)
    rounds: list[Round] = field(default_factory=list)


def check_round(st: RunState, rnd: Round, tag: str, reference: Outputs | None) -> None:
    out, first = rnd.outputs, st.rounds[0].outputs if st.rounds else rnd.outputs
    c = st.checks
    c.expect(out.models_sha == first.models_sha, f"{tag}/train", "models differ from the first round")
    c.expect(out.report_sha == first.report_sha, f"{tag}/disaggregate", "report differs from the first round")
    c.expect(out.quality() == first.quality(), f"{tag}/evaluate", "quality differs from the first round")
    if reference is not None:
        c.expect(out.labels == reference.labels, f"{tag}/disaggregate",
                 "report rows differ from the in-process labels")
        c.expect(f"{out.macro_f:.4f}" == f"{reference.macro_f:.4f}", f"{tag}/evaluate",
                 f"average_f {out.macro_f} vs in-process macro F {reference.macro_f}")
        c.expect({k: f"{v:.4f}" for k, v in out.f.items()}
                 == {k: f"{v:.4f}" for k, v in reference.f.items()},
                 f"{tag}/evaluate", "per-appliance F differs from the in-process run")
        c.expect(out.unrefined == reference.unrefined, f"{tag}/disaggregate",
                 "unrefined cycle count differs from the in-process run")
    if st.wl.floors is not None and st.seed == 0:
        macro_floor, app_floor = st.wl.floors
        c.expect(out.macro_f >= macro_floor, f"{tag}/evaluate", f"macro F {out.macro_f} < {macro_floor}")
        worst = min(out.f.values(), default=0.0)
        c.expect(worst >= app_floor, f"{tag}/evaluate", f"worst appliance F {worst} < {app_floor}")


def same_inputs(a: Inputs, b: Inputs) -> bool:
    signals = lambda x: (x.train_agg, x.test_agg, *x.train_apps.values(), *x.test_apps.values())
    return all((p.values == q.values).all() for p, q in zip(signals(a), signals(b)))


def library_setup(st: RunState) -> tuple[float, Inputs]:
    st.checks.attempted += 1
    return timed(lambda: make_inputs(st.wl, st.seed))


def checked_library_round(st: RunState, raw: LibraryRound, inputs: Inputs, tag: str) -> Round:
    st.checks.attempted += 1 + len(raw.setup_s) + len(raw.disaggregate_s) + len(raw.evaluate_s)
    outputs = library_outputs(raw, inputs, st.work, st.checks, tag)
    rnd = Round(raw.train_s, raw.disaggregate_s, raw.evaluate_s, outputs, raw.rss_mb, raw.setup_s)
    check_round(st, rnd, tag, None)
    return rnd


def reference_outputs(st: RunState) -> tuple[Outputs, int]:
    """The same household and split labeled in-process, untimed."""
    lib = RunState(replace(st.wl, cli=False), st.seed, st.work, st.config, st.checks)
    inputs = make_inputs(lib.wl, lib.seed)
    rnd = checked_library_round(lib, library_round(inputs, st.config, 0.0), inputs, "reference")
    return rnd.outputs, count_cycles(inputs.test_agg, st.work / "models.json", st.config)


def cli_synth(st: RunState, cli: Cli, out: Path, phase: str, digest: dict | None = None):
    """Run ``eventnilm synth`` into ``out``: its wall time and the digest of
    what it wrote, checked against ``digest`` when given."""
    p = cli(*synth_args(st.wl, st.seed, out))
    st.checks.attempted += 1
    written = None
    if st.checks.expect(p.code == 0, phase, f"exit {p.code}: {p.stderr}"):
        written = dataset_digest(out)
        if digest is not None:
            st.checks.expect(written == digest, phase, "synth wrote a different dataset")
    return p.wall_s, written


def cli_timed_round(
    st: RunState, cli: Cli, data: Path, turns: int, tag: str, reference, setup=None
) -> Round:
    rnd = cli_round(cli, data, st.checks, tag, turns, setup)
    st.checks.attempted += 1 + len(rnd.disaggregate_s) + len(rnd.evaluate_s)
    check_round(st, rnd, tag, reference)
    return rnd


def run_rounds(st: RunState, deadline: float, one_round: Callable[[str], Round]) -> None:
    """At least MIN_ROUNDS rounds, then more while the next one, as long as
    the mean round so far, is expected to end by ``deadline`` (a
    ``time.perf_counter`` value)."""
    t0 = time.perf_counter()
    while True:
        st.rounds.append(one_round(f"round{len(st.rounds)}"))
        now = time.perf_counter()
        n = len(st.rounds)
        if n >= MIN_ROUNDS and now + (now - t0) / n > deadline:
            return


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(wl: Workload, seed: int, seconds: float, work: Path) -> dict:
    """End-to-end metrics, tracing off. Set-up, the in-process reference of
    ``cli28`` and the rounds all count against ``seconds``."""
    deadline = time.perf_counter() + seconds
    st = RunState(wl, seed, work)
    if wl.cli:
        cli = Cli(work)
        data = work / "data"
        first_setup, digest = cli_synth(st, cli, data, "setup")
        reference, cycles = reference_outputs(st)

        def resynth(phase: str) -> float:
            t, _ = cli_synth(st, cli, work / "resynth", phase, digest)
            shutil.rmtree(work / "resynth", ignore_errors=True)
            return t

        run_rounds(st, deadline, lambda tag: cli_timed_round(
            st, cli, data, CLI_TURNS, tag, reference, resynth))
        peak_rss = max(r.rss_mb for r in st.rounds)
    else:
        first_setup, inputs = library_setup(st)
        setup = lambda: make_inputs(wl, seed)
        run_rounds(st, deadline, lambda tag: checked_library_round(
            st, library_round(inputs, st.config, BURST_SECONDS, setup), inputs, tag))
        cycles = count_cycles(inputs.test_agg, work / "models.json", st.config)
        peak_rss = st.rounds[0].rss_mb

    # The 90th percentile of the run's calls of each phase, set-up too. On a
    # shared machine the speed of the same code switches between a common
    # slow level and short fast spells; the upper percentile follows the
    # common level, where the median and mean move with the share of fast
    # spells a run happened to get (README.md has the measured spreads).
    setup_s = [first_setup] + [t for r in st.rounds for t in r.setup_s]
    train = p90([r.train_s for r in st.rounds])
    dis = p90([t for r in st.rounds for t in r.disaggregate_s])
    ev = p90([t for r in st.rounds for t in r.evaluate_s])
    out = st.rounds[0].outputs
    c = st.checks
    metrics = {
        "setup_s": metric(p90(setup_s), "s"),
        "train_s": metric(train, "s"),
        "disaggregate_s": metric(dis, "s"),
        "evaluate_s": metric(ev, "s"),
        "total_s": metric(train + dis + ev, "s"),
        "peak_rss_mb": metric(peak_rss, "MB"),
        "macro_f": metric(out.macro_f, "1"),
        "refined_cycle_share": metric(1.0 - out.unrefined / cycles, "ratio"),
        "phase_ok_rate": metric((c.attempted - c.failed) / c.attempted, "ratio"),
    }
    # Three more figures users read. Each can be 0 or spread across seeds
    # beyond any bound, so they are printed but not gated (README.md).
    reported = {
        "error_rate": metric(c.failed / c.attempted, "ratio"),
        "unrefined_cycles": metric(out.unrefined, "count"),
        "min_appliance_f": metric(min(out.f.values(), default=0.0), "1"),
    }
    detail = {
        "setup_s": setup_s,
        "rounds": [
            {"train_s": r.train_s, "setup_s": r.setup_s, "disaggregate_s": r.disaggregate_s,
             "evaluate_s": r.evaluate_s, "rss_mb": r.rss_mb}
            for r in st.rounds
        ],
        "quality": {"macro_f": out.macro_f, "f": out.f, "unrefined": out.unrefined,
                    "cycles": cycles, "labels": len(out.labels)},
    }
    return {**result(st, metrics, detail), "reported": reported}


def traced_run(wl: Workload, seed: int, work: Path) -> dict:
    """Per-layer metrics: one untraced round, then one traced round."""
    st = RunState(wl, seed, work)
    if wl.cli:
        trace_dir = work / "spans"
        trace_dir.mkdir()
        traced_cli = Cli(work, trace_dir)
        data = work / "data"
        cli_synth(st, traced_cli, data, "setup")
        reference, _ = reference_outputs(st)
        plain = cli_timed_round(st, Cli(work), data, 1, "untraced", reference)
        st.rounds.append(plain)
        traced = cli_timed_round(st, traced_cli, data, 1, "traced", reference)
        runs = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(trace_dir.iterdir())]
    else:
        _, inputs = library_setup(st)
        plain = checked_library_round(st, library_round(inputs, st.config, 0.0), inputs, "untraced")
        st.rounds.append(plain)
        tracer = spans.Tracer(f"{wl.name}/traced")
        # outputs are read after the wrappers are gone: reading them calls
        # functions (format_event_report) the library flow itself never runs
        with spans.installed(tracer):
            traced_inputs = make_inputs(wl, seed)
            raw = library_round(traced_inputs, st.config, 0.0)
        st.checks.attempted += 1  # the traced set-up
        traced = checked_library_round(st, raw, traced_inputs, "traced")
        runs = [tracer.to_dict()]

    all_spans = [s for run in runs for s in spans.spans_from_dicts(run["spans"])]
    own = spans.self_time_by_name(all_spans)
    counts: dict[str, float] = {}
    for run in runs:
        for k, v in run["counts"].items():
            merge = max if k == "classifier.max_cycle_events" else operator.add
            counts[k] = merge(counts.get(k, 0), v)

    def total(r: Round) -> float:
        return r.train_s + r.disaggregate_s[0] + r.evaluate_s[0]

    events = counts.get("classifier.events", 0)
    values = {f"{name}_s": own.get(name, 0.0) for name in SELF_TIME_SPANS}
    values["trace.overhead_s"] = total(traced) - total(plain)
    values["evaluation.min_appliance_f"] = min(traced.outputs.f.values(), default=0.0)
    for name, unit, _ in PER_LAYER:
        if name in values:
            continue
        v = counts.get(name, 0)
        if name.startswith("classifier.single_after_"):
            v = v / events if events else 0.0
        values[name] = v
    metrics = {name: metric(values[name], unit) for name, unit, _ in PER_LAYER}
    detail = {"untraced_total_s": total(plain), "traced_total_s": total(traced),
              "counts": counts, "spans": runs}
    return result(st, metrics, detail)


def result(st: RunState, metrics: dict, detail: dict) -> dict:
    c = st.checks
    return {
        "correct": c.failed == 0,
        "attempted": c.attempted,
        "failed": c.failed,
        "metrics": metrics,
        "problems": c.problems,
        "detail": detail,
    }
