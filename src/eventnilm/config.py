"""Run configuration: defaults, file parsing, validation."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

# the floor on k_clusters: below 10 clusters the linkage phase of mode
# extraction would already be doing the distance sweep's job
MIN_CLUSTERS = 10


@dataclass(frozen=True)
class RunConfig:
    """Tunable knobs shared by training and classification, each with the
    one default every library function takes.

    Each command offers flags for the fields it reads: extract-modes the
    first three, train those and overshoot_floor and n_days_variant,
    disaggregate all_off_margin and search_budget, evaluate match_tolerance,
    synth seed. ``--config`` checks every field.

    k_clusters: agglomeration target before distance merging; at least
      ``MIN_CLUSTERS`` so infrequent modes survive to the merge phase.
    merge_ratio: centroid-closeness fraction for the distance merge sweep.
    off_threshold: a lone lowest cluster under this many watts is the OFF
      state; above it the appliance was never seen off.
    all_off_margin: watts added to the summed OFF maxima when deciding that
      the aggregate signal is all-OFF.
    overshoot_floor: smallest overshoot height that counts as a habit.
    search_budget: forward (mode vector, candidate) expansions allowed in
      each walk search of a cycle, compatibility or closure repair.
    match_tolerance: +/- samples allowed when matching events in evaluation.
    n_days_variant: average participation shares over all active days, the
      days with aggregate events, instead of only those the transition
      occurred in.
    seed: non-negative seed for anything randomized (the synthetic generator).
    """

    k_clusters: int = 10
    merge_ratio: float = 0.15
    off_threshold: float = 5.0
    all_off_margin: float = 10.0
    overshoot_floor: float = 50.0
    search_budget: int = 1_000_000
    match_tolerance: int = 1
    n_days_variant: bool = False
    seed: int = 0

    def __post_init__(self):
        watts = (self.off_threshold, self.all_off_margin, self.overshoot_floor)
        if not all(map(math.isfinite, watts)):
            raise ConfigError("off_threshold, all_off_margin and overshoot_floor must be finite")
        if self.k_clusters < MIN_CLUSTERS:
            raise ConfigError(f"k_clusters must be at least {MIN_CLUSTERS}")
        if not 0.0 < self.merge_ratio < 1.0:
            raise ConfigError("merge_ratio must lie in (0, 1)")
        if self.off_threshold < 0 or self.all_off_margin < 0:
            raise ConfigError("thresholds must be non-negative")
        if self.overshoot_floor < 0:
            raise ConfigError("overshoot_floor must be non-negative")
        if self.search_budget < 1:
            raise ConfigError("search_budget must be positive")
        if self.match_tolerance < 0:
            raise ConfigError("match_tolerance must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


# each field's type name ("int", "float" or "bool"), in declaration order
FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, text: str):
    kind = FIELD_TYPES[key]
    try:
        if kind == "bool":
            if text.lower() in ("1", "true", "yes", "on"):
                return True
            if text.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(text)
        if kind == "int":
            return int(text)
        return float(text)
    except ValueError:
        raise ConfigError(f"config key {key}: cannot parse {text!r} as {kind}")


def read_config(path: str | Path) -> RunConfig:
    """Parse a flat key = value config file into a RunConfig."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    from .model_io import read_settings

    values = read_settings(path, FIELD_TYPES, ConfigError)
    overrides = {key: _parse_value(key, text) for key, text in values.items()}
    return RunConfig(**overrides)
