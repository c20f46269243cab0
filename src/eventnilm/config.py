"""Run configuration: defaults, file parsing, validation."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError
from .model_io import read_text
from .modes import MIN_CLUSTERS


@dataclass(frozen=True)
class RunConfig:
    """Tunable knobs shared by training and classification.

    k_clusters: agglomeration target before distance merging; at least 10 so
      infrequent modes survive to the merge phase.
    merge_ratio: centroid-closeness fraction for the distance merge sweep.
    off_threshold: a lone lowest cluster under this many watts is the OFF
      state; above it the appliance was never seen off.
    all_off_margin: watts added to the summed OFF maxima when deciding that
      the aggregate signal is all-OFF.
    overshoot_floor: smallest overshoot height that counts as a habit.
    search_budget: forward (mode vector, candidate) expansions allowed in
      each walk search of a cycle, compatibility or closure repair.
    match_tolerance: +/- samples allowed when matching events in evaluation.
    n_days_variant: average participation shares over all active days
      instead of only the days the transition occurred in.
    seed: seed for anything randomized (the synthetic generator).
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
        if self.k_clusters < MIN_CLUSTERS:
            raise ConfigError("k_clusters must be at least 10")
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


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, text: str):
    kind = _FIELD_TYPES[key]
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
    overrides = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        overrides[key] = _parse_value(key, val.strip())
    return RunConfig(**overrides)


def apply_overrides(config: RunConfig, overrides: dict[str, object]) -> RunConfig:
    """Override selected fields; None values mean "leave as is"."""
    actual = {k: v for k, v in overrides.items() if v is not None}
    unknown = set(actual) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return replace(config, **actual) if actual else config
