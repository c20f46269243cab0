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

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .config import RunConfig
from .errors import SpecValidationError
from .features import DAY_SECONDS
from .model_io import fits_one_cell
from .modes import mode_name
from .signals import PowerSignal, aggregate

MIN_DWELL_SAMPLES = 8  # keeps every settled level long enough to survive filtering
EVENT_GAP_SAMPLES = 6  # level switches closer than this would merge into one event
RUN_GAP_SAMPLES = 30
DAY_MARGIN_SAMPLES = 12
SPIKE_GAP_SAMPLES = 5
PLACE_ATTEMPTS = 200
OVERSHOOT_MAX_LEN = 5


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
        if not fits_one_cell(self.appliance_id):
            raise SpecValidationError(f"{self.appliance_id!r}: id holds a tab or line break")
        if "," in self.appliance_id or self.appliance_id != self.appliance_id.strip():
            # the manifest lists appliances comma-separated, each stripped
            raise SpecValidationError(f"{self.appliance_id!r}: id holds a comma or edge space")
        if not self.levels:
            raise SpecValidationError(f"{self.appliance_id}: no power levels")
        if any(l <= 0 for l in self.levels) or list(self.levels) != sorted(self.levels):
            raise SpecValidationError(
                f"{self.appliance_id}: levels must be positive and ascending"
            )
        if not 0.0 <= self.off_level < RunConfig.off_threshold:  # else training calls it on
            raise SpecValidationError(f"{self.appliance_id}: OFF level not under the OFF threshold")
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


@dataclass(frozen=True, eq=False)
class SynthResult:
    """A generated household: per-appliance signals, their exact aggregate,
    and the ground truth as read-only columns. The order of ``generate``'s
    random draws fixes all of it for a seed.

    Truth event ``i`` is the switch after sample ``truth_index[i]``, with the
    (appliance, from mode, to mode, magnitude) ``truth_keys[truth_code[i]]``,
    in (index, appliance) order.
    """

    appliances: dict[str, PowerSignal]
    aggregate: PowerSignal
    truth_index: np.ndarray
    truth_code: np.ndarray
    truth_keys: tuple[tuple[str, str, str, float], ...]
    period: float
    days: int
    seed: int


_EVENT_SPAN = b"\1" * (2 * EVENT_GAP_SAMPLES - 1)
_SPIKE_SPAN = b"\1" * (2 * SPIKE_GAP_SAMPLES - 1)


def _register(near_switch: bytearray, near_spike: bytearray, at: int) -> None:
    """Mark the samples a switch or spike at ``at`` forbids to later switches
    and to later spikes; the day margins keep both inside the signal."""
    near_switch[at - EVENT_GAP_SAMPLES + 1 : at + EVENT_GAP_SAMPLES] = _EVENT_SPAN
    near_spike[at - SPIKE_GAP_SAMPLES + 1 : at + SPIKE_GAP_SAMPLES] = _SPIKE_SPAN


def _place_runs(rng, spec, period, day_start, day_end, busy, near_switch, near_spike):
    """One day's runs of an appliance as (start, sequence number, switch
    offsets), in time order: each RUN_GAP_SAMPLES from the day's other runs
    (``busy`` marks them), each switch clear of every registered one."""
    n_seq = len(spec.run_sequences)
    lo = day_start + DAY_MARGIN_SAMPLES
    runs = []
    for _ in range(int(rng.integers(spec.runs_per_day[0], spec.runs_per_day[1] + 1))):
        k = int(rng.integers(n_seq)) if n_seq > 1 else 0  # integers(1) draws nothing
        secs = rng.uniform(spec.dwell_s[0], spec.dwell_s[1], len(spec.run_sequences[k]))
        offsets = [0, *accumulate(max(MIN_DWELL_SAMPLES, round(s / period)) for s in secs.tolist())]
        duration = offsets[-1]
        hi = day_end - DAY_MARGIN_SAMPLES - duration
        if hi <= lo:
            continue
        for _ in range(PLACE_ATTEMPTS):
            start = int(rng.integers(lo, hi))
            # the day's earlier runs only: later days hold no runs yet
            window = max(day_start, start - RUN_GAP_SAMPLES + 1), start + duration + RUN_GAP_SAMPLES
            if busy.find(1, *window) < 0 and not any(near_switch[start + o] for o in offsets):
                break
        else:
            continue
        busy[start : start + duration + 1] = b"\1" * (duration + 1)
        for o in offsets:
            _register(near_switch, near_spike, start + o)
        runs.append((start, k, offsets))
    runs.sort()
    return runs


def generate(
    specs: list[ApplianceSpec],
    days: int,
    period: float = 20.0,
    seed: int = RunConfig.seed,
    jitter_fraction: float = 0.015,
) -> SynthResult:
    """Build a seeded household. The draws, in order: the jitter series, then
    per appliance its runs day by day, its noise, its overshoot heights and
    its spikes day by day."""
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
    if spd <= 2 * DAY_MARGIN_SAMPLES:
        raise SpecValidationError(
            f"a {period:g} s period gives {spd} samples per day;"
            f" the generator needs more than {2 * DAY_MARGIN_SAMPLES}"
        )
    n = days * spd

    rng = np.random.default_rng(seed)
    jitter = 1.0 + rng.uniform(-jitter_fraction, jitter_fraction, n)

    signals: dict[str, PowerSignal] = {}
    near_switch, near_spike = bytearray(n), bytearray(n)
    slot: dict[tuple, int] = {}  # truth key -> code
    to_level, rising, switch_at, switch_code = [], [], [], []

    for spec in specs:
        # each run sequence as the truth-key codes of its switches
        programs = []
        for seq in spec.run_sequences:
            modes = (0, *seq, 0)
            programs.append([])
            for a, b in zip(modes, modes[1:]):
                lv_a, lv_b = spec.level_of(a), spec.level_of(b)
                key = (spec.appliance_id, mode_name(a), mode_name(b), lv_b - lv_a)
                if key not in slot:
                    slot[key] = len(slot)
                    to_level.append(lv_b)
                    rising.append(lv_b > lv_a)
                programs[-1].append(slot[key])

        ats, codes = [], []
        busy = bytearray(n)
        for day in range(days):
            for start, k, offsets in _place_runs(
                rng, spec, period, day * spd, (day + 1) * spd, busy, near_switch, near_spike
            ):
                ats += [start + o for o in offsets]
                codes += programs[k]
        ats, codes = np.array(ats, dtype=np.int64), np.array(codes, dtype=np.int64)

        levels = np.array([spec.off_level, *to_level])[np.r_[0, codes + 1]]
        values = rng.uniform(-spec.noise_fraction, spec.noise_fraction, n)
        values += 1.0
        values *= np.repeat(levels, np.diff(np.r_[0, ats, n]))

        # turn-on overshoots: geometric tails on rising switches
        if spec.overshoot_w[1] > 0:
            rises = ats[np.array(rising, dtype=bool)[codes]]
            heights = rng.uniform(spec.overshoot_w[0], spec.overshoot_w[1], rises.size)
            decay = np.array([spec.overshoot_decay**k for k in range(OVERSHOOT_MAX_LEN)])
            tails = rises[:, None] + np.arange(OVERSHOOT_MAX_LEN)
            kept = tails < n
            np.add.at(values, tails[kept], (heights[:, None] * decay)[kept])

        # single-sample spikes, kept clear of switches and one another
        if spec.spike_rate_per_day > 0:
            for day in range(days):
                lo, hi = day * spd + DAY_MARGIN_SAMPLES, (day + 1) * spd - DAY_MARGIN_SAMPLES
                for _ in range(int(rng.poisson(spec.spike_rate_per_day))):
                    for _ in range(PLACE_ATTEMPTS):
                        pos = int(rng.integers(lo, hi))
                        if not near_spike[pos]:
                            _register(near_switch, near_spike, pos)
                            values[pos] += rng.uniform(*spec.spike_height_w)
                            break

        values *= jitter
        np.maximum(values, 0.0, out=values)
        values.flags.writeable = False
        signals[spec.appliance_id] = PowerSignal(
            values=values, sample_period=period, source_id=spec.appliance_id
        )
        switch_at.append(ats)
        switch_code.append(codes)

    index = np.concatenate(switch_at) - 1
    # registered switches lie EVENT_GAP_SAMPLES apart, so no two share an
    # index and the index order is the (index, appliance) order
    order = np.argsort(index)
    index, code = index[order], np.concatenate(switch_code)[order]
    for column in (index, code):
        column.flags.writeable = False
    total = aggregate(list(signals.values()))
    return SynthResult(signals, total, index, code, tuple(slot), period, days, seed)


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
