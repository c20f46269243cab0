"""Event-based load disaggregation from a single household power meter.

The library learns per-appliance operating modes from submetered training
signals, then labels every mode-change event found on the aggregated signal
with the appliance and transition that caused it.

Each exported name loads its submodule on first use, so a command that only
generates data never imports the classifier.
"""

import importlib
import logging

__version__ = "0.1.0"

# warnings (such as a signal that never reaches all-OFF) reach stderr only if
# the caller configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())

_EXPORTS = {
    "classifier": ("LabeledEvent", "LabelTable", "classify"),
    "config": ("RunConfig",),
    "errors": (
        "AlignmentError",
        "ConfigError",
        "DataConsistencyError",
        "InsufficientDataError",
        "ManifestError",
        "ModelCoverageError",
        "NilmError",
        "ParseError",
        "SpecValidationError",
    ),
    "evaluation": ("ConfusionCounts", "LabelPoint", "PointTable", "f_measure", "match_events"),
    "features": ("ApplianceModel", "BehaviorSet", "Transition", "transition_interval"),
    "filtering": ("detect_events", "detect_outliers", "filter_and_detect"),
    "modes": ("Cluster", "State", "StateSet", "extract_states", "lw_cluster", "ward_merge_cost"),
    "signals": (
        "EventRecord", "EventTable", "GapRecord", "PowerSignal", "aggregate", "resample_step_hold"
    ),
    "synth": ("ApplianceSpec", "GroundTruthEvent", "SynthResult", "generate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    """An exported name, imported from its submodule on first access (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
