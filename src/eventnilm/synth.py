"""Seeded synthetic households with exact ground truth.

Each appliance is a mode machine: runs are scheduled inside each day, every
run walks a sequence of power levels with sampled dwell times, and every
level switch is recorded as a ground-truth event. On top of the clean
step signal the generator layers the artifacts a real meter shows: bounded
multiplicative sample noise, single-sample spikes, decaying turn-on
overshoots, and a grid-wide multiplicative jitter series shared by all
appliances. The aggregate is the exact per-sample sum of the appliance
signals, so conservation holds by construction.

Noise is uniform (bounded), not Gaussian: detection separates events from
noise with a hard threshold, and only a bounded noise law keeps a zero
false-positive rate attainable on long signals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SpecValidationError
from .features import DAY_SECONDS
from .signals import PowerSignal

MIN_DWELL_SAMPLES = 8  # keeps every settled level long enough to survive filtering
EVENT_GAP_SAMPLES = 6  # level switches closer than this would merge into one event
RUN_GAP_SAMPLES = 30
DAY_MARGIN_SAMPLES = 12
SPIKE_GAP_SAMPLES = 5
PLACE_ATTEMPTS = 200
OVERSHOOT_MAX_LEN = 5


def mode_name(level_index: int) -> str:
    return "off" if level_index == 0 else f"on{level_index}"


@dataclass(frozen=True)
class ApplianceSpec:
    """Mode machine plus artifact model for one synthetic appliance.

    levels: non-OFF power levels in ascending watts; level i is mode "on{i+1}".
    run_sequences: admissible per-run programs as 1-based level indices; a
      run plays one sequence (chosen uniformly) and returns to OFF.
    dwell_s: uniform bounds on each mode dwell, seconds.
    runs_per_day: inclusive uniform bounds on the number of runs in a day.
    spike_rate_per_day: expected single-sample spikes per day (Poisson).
    overshoot_w: turn-on overshoot height bounds; (0, 0) disables.
    overshoot_decay: per-sample geometric retention of the overshoot tail.
    noise_fraction: uniform multiplicative sample noise, ±fraction.
    all_or_none: every run plays all non-OFF modes (full-program appliances).
    """

    appliance_id: str
    levels: tuple[float, ...]
    run_sequences: tuple[tuple[int, ...], ...] = ((1,),)
    dwell_s: tuple[float, float] = (160.0, 600.0)
    runs_per_day: tuple[int, int] = (1, 2)
    off_level: float = 0.0
    spike_rate_per_day: float = 0.0
    # inrush-scale heights: a spike must dwarf any plausible concurrent stack,
    # or its edge ratios can straddle the outlier threshold and leak through
    # the first filtering pass as a residual step
    spike_height_w: tuple[float, float] = (4600.0, 6000.0)
    overshoot_w: tuple[float, float] = (0.0, 0.0)
    overshoot_decay: float = 0.25
    noise_fraction: float = 0.01
    all_or_none: bool = False

    def __post_init__(self):
        if not self.appliance_id:
            raise SpecValidationError("appliance needs an id")
        if not self.levels:
            raise SpecValidationError(f"{self.appliance_id}: no power levels")
        if any(l <= 0 for l in self.levels) or list(self.levels) != sorted(self.levels):
            raise SpecValidationError(
                f"{self.appliance_id}: levels must be positive and ascending"
            )
        if not 0.0 <= self.off_level <= 5.0:
            raise SpecValidationError(f"{self.appliance_id}: OFF level above 5 W")
        if self.dwell_s[0] <= 0 or self.dwell_s[0] > self.dwell_s[1]:
            raise SpecValidationError(f"{self.appliance_id}: bad dwell bounds")
        if self.runs_per_day[0] < 0 or self.runs_per_day[0] > self.runs_per_day[1]:
            raise SpecValidationError(f"{self.appliance_id}: bad runs_per_day")
        if not self.run_sequences:
            raise SpecValidationError(f"{self.appliance_id}: no run sequences")
        all_modes = set(range(1, len(self.levels) + 1))
        for seq in self.run_sequences:
            if not seq or any(s not in all_modes for s in seq):
                raise SpecValidationError(
                    f"{self.appliance_id}: sequence {seq} uses unknown modes"
                )
            if any(a == b for a, b in zip(seq, seq[1:])):
                raise SpecValidationError(
                    f"{self.appliance_id}: sequence {seq} repeats a mode in place"
                )
            if self.all_or_none and set(seq) != all_modes:
                raise SpecValidationError(
                    f"{self.appliance_id}: all-or-none runs must play every mode"
                )
        if not 0.0 <= self.noise_fraction < 0.2:
            raise SpecValidationError(f"{self.appliance_id}: bad noise fraction")
        if self.overshoot_w[0] < 0 or self.overshoot_w[0] > self.overshoot_w[1]:
            raise SpecValidationError(f"{self.appliance_id}: bad overshoot bounds")
        if not 0.0 < self.overshoot_decay < 1.0:
            raise SpecValidationError(f"{self.appliance_id}: bad overshoot decay")

    def level_of(self, mode_index: int) -> float:
        return self.off_level if mode_index == 0 else self.levels[mode_index - 1]


@dataclass(frozen=True)
class GroundTruthEvent:
    """One mode switch: index is the last sample at the old level."""

    index: int
    appliance: str
    from_mode: str
    to_mode: str
    magnitude: float


@dataclass(frozen=True)
class SynthResult:
    appliances: dict[str, PowerSignal]
    aggregate: PowerSignal
    truth: tuple[GroundTruthEvent, ...]
    period: float
    days: int
    seed: int


@dataclass
class _Run:
    start: int
    switches: list[tuple[int, int, int]] = field(default_factory=list)  # (sample, from, to)
    end: int = 0


def _sample_dwell(rng, spec, period) -> int:
    sec = rng.uniform(spec.dwell_s[0], spec.dwell_s[1])
    return max(MIN_DWELL_SAMPLES, int(round(sec / period)))


def _clear_of_registry(switches: list[int], registry: set[int]) -> bool:
    for s in switches:
        for g in range(s - EVENT_GAP_SAMPLES + 1, s + EVENT_GAP_SAMPLES):
            if g in registry:
                return False
    return True


def _schedule_day(rng, spec, period, day_start, day_end, registry) -> list[_Run]:
    """Place this appliance's runs for one day, avoiding global switch clashes."""
    n_runs = int(rng.integers(spec.runs_per_day[0], spec.runs_per_day[1] + 1))
    runs: list[_Run] = []
    occupied: list[tuple[int, int]] = []
    for _ in range(n_runs):
        seq = spec.run_sequences[int(rng.integers(len(spec.run_sequences)))]
        dwells = [_sample_dwell(rng, spec, period) for _ in seq]
        duration = sum(dwells)
        lo = day_start + DAY_MARGIN_SAMPLES
        hi = day_end - DAY_MARGIN_SAMPLES - duration
        if hi <= lo:
            continue
        placed = None
        for _ in range(PLACE_ATTEMPTS):
            start = int(rng.integers(lo, hi))
            end = start + duration
            if any(
                start - RUN_GAP_SAMPLES < e and end + RUN_GAP_SAMPLES > s
                for s, e in occupied
            ):
                continue
            switches = [start]
            at = start
            for d in dwells:
                at += d
                switches.append(at)
            if not _clear_of_registry(switches, registry):
                continue
            placed = (start, end, switches)
            break
        if placed is None:
            continue
        start, end, switches = placed
        occupied.append((start, end))
        registry.update(switches)
        run = _Run(start=start, end=end)
        modes = [0] + list(seq) + [0]
        for i in range(len(modes) - 1):
            run.switches.append((switches[i], modes[i], modes[i + 1]))
        runs.append(run)
    runs.sort(key=lambda r: r.start)
    return runs


def generate(
    specs: list[ApplianceSpec],
    days: int,
    period: float = 20.0,
    seed: int = 0,
    jitter_fraction: float = 0.015,
) -> SynthResult:
    """Build a seeded household: per-appliance signals, aggregate, truth."""
    if days < 1:
        raise SpecValidationError("need at least one day")
    if not specs:
        raise SpecValidationError("need at least one appliance")
    ids = [s.appliance_id for s in specs]
    if len(set(ids)) != len(ids):
        raise SpecValidationError("appliance ids must be unique")
    spd = DAY_SECONDS / period
    if abs(spd - round(spd)) > 1e-9:
        raise SpecValidationError("sample period must divide a day evenly")
    spd = int(round(spd))
    n = days * spd

    rng = np.random.default_rng(seed)
    jitter = 1.0 + rng.uniform(-jitter_fraction, jitter_fraction, n)

    signals: dict[str, PowerSignal] = {}
    truth: list[GroundTruthEvent] = []
    registry: set[int] = set()
    total = np.zeros(n, dtype=np.float64)

    for spec in specs:
        base = np.full(n, spec.off_level, dtype=np.float64)
        switch_list: list[tuple[int, int, int]] = []
        for day in range(days):
            day_runs = _schedule_day(
                rng, spec, period, day * spd, (day + 1) * spd, registry
            )
            for run in day_runs:
                for i, (at, m_from, m_to) in enumerate(run.switches):
                    nxt = run.switches[i + 1][0] if i + 1 < len(run.switches) else run.end
                    base[at:nxt] = spec.level_of(m_to)
                    switch_list.append((at, m_from, m_to))

        noise = rng.uniform(-spec.noise_fraction, spec.noise_fraction, n)
        values = base * (1.0 + noise)

        # turn-on overshoots: geometric tails on rising switches
        if spec.overshoot_w[1] > 0:
            for at, m_from, m_to in switch_list:
                if spec.level_of(m_to) <= spec.level_of(m_from):
                    continue
                h = rng.uniform(spec.overshoot_w[0], spec.overshoot_w[1])
                for k in range(OVERSHOOT_MAX_LEN):
                    if at + k >= n:
                        break
                    values[at + k] += h * spec.overshoot_decay**k

        # single-sample spikes, kept clear of switches and one another
        if spec.spike_rate_per_day > 0:
            for day in range(days):
                count = int(rng.poisson(spec.spike_rate_per_day))
                for _ in range(count):
                    for _ in range(PLACE_ATTEMPTS):
                        pos = int(
                            rng.integers(
                                day * spd + DAY_MARGIN_SAMPLES,
                                (day + 1) * spd - DAY_MARGIN_SAMPLES,
                            )
                        )
                        near = range(
                            pos - SPIKE_GAP_SAMPLES + 1, pos + SPIKE_GAP_SAMPLES
                        )
                        if all(g not in registry for g in near):
                            registry.add(pos)
                            values[pos] += rng.uniform(*spec.spike_height_w)
                            break

        values *= jitter
        np.maximum(values, 0.0, out=values)
        total += values
        values.flags.writeable = False
        signals[spec.appliance_id] = PowerSignal(
            values=values, sample_period=period, source_id=spec.appliance_id
        )
        for at, m_from, m_to in switch_list:
            truth.append(
                GroundTruthEvent(
                    index=at - 1,
                    appliance=spec.appliance_id,
                    from_mode=mode_name(m_from),
                    to_mode=mode_name(m_to),
                    magnitude=spec.level_of(m_to) - spec.level_of(m_from),
                )
            )

    truth.sort(key=lambda t: (t.index, t.appliance))
    total.flags.writeable = False
    aggregate = PowerSignal(values=total, sample_period=period, source_id="aggregate")
    return SynthResult(
        appliances=signals,
        aggregate=aggregate,
        truth=tuple(truth),
        period=period,
        days=days,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# stock households


def demo_household() -> list[ApplianceSpec]:
    """Seven-appliance home with multi-mode machines, overshoots, spikes.

    Levels are spaced so most transition magnitude bands are mutually
    disjoint, with the deliberate exceptions inside the dishwasher's program
    (neighbouring steps overlap and are told apart by walk order alone).
    """
    return [
        ApplianceSpec(
            appliance_id="dishwasher",
            levels=(170.0, 280.0, 520.0, 840.0, 1160.0),
            run_sequences=((1, 2, 3, 4, 5),),
            dwell_s=(240.0, 720.0),
            runs_per_day=(0, 1),
            all_or_none=True,
        ),
        ApplianceSpec(
            appliance_id="refrigerator",
            levels=(200.0, 420.0),
            run_sequences=((1,), (1,), (1,), (1, 2, 1)),
            dwell_s=(480.0, 1080.0),
            runs_per_day=(14, 20),
            overshoot_w=(510.0, 620.0),
        ),
        ApplianceSpec(
            appliance_id="microwave",
            levels=(1480.0,),
            dwell_s=(160.0, 360.0),
            runs_per_day=(2, 5),
            spike_rate_per_day=2.0,
        ),
        ApplianceSpec(
            appliance_id="bathroom_gfi",
            levels=(1640.0,),
            dwell_s=(160.0, 400.0),
            runs_per_day=(1, 4),
        ),
        ApplianceSpec(
            appliance_id="kettle",
            levels=(1075.0,),
            dwell_s=(160.0, 320.0),
            runs_per_day=(2, 5),
        ),
        ApplianceSpec(
            appliance_id="washer_dryer",
            levels=(2800.0,),
            dwell_s=(600.0, 1800.0),
            runs_per_day=(0, 2),
            spike_rate_per_day=1.0,
        ),
        ApplianceSpec(
            appliance_id="oven",
            levels=(4150.0,),
            dwell_s=(600.0, 2400.0),
            runs_per_day=(0, 1),
        ),
    ]


def balanced_household() -> list[ApplianceSpec]:
    """Seven comparable single-mode appliances for detection stress tests.

    Levels are close to one another so that even the smallest switch stays
    well above the noise floor of any plausible concurrent stack, which is
    what makes a perfect-detection requirement meaningful rather than vacuous.
    """
    out = []
    levels = [900.0, 1000.0, 1100.0, 1200.0, 1300.0, 1400.0, 1500.0]
    for i, level in enumerate(levels):
        out.append(
            ApplianceSpec(
                appliance_id=f"unit{i + 1}",
                levels=(level,),
                dwell_s=(160.0, 500.0),
                runs_per_day=(6, 9),
                spike_rate_per_day=3.0 if i in (1, 4) else 0.0,
                overshoot_w=(250.0, 450.0) if i in (0, 3) else (0.0, 0.0),
            )
        )
    return out
