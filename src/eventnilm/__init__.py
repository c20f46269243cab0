"""Event-based load disaggregation from a single household power meter.

The library learns per-appliance operating modes from submetered training
signals, then labels every mode-change event found on the aggregated signal
with the appliance and transition that caused it.
"""

import logging

from .classifier import LabeledEvent, LabelTable, classify
from .config import RunConfig
from .errors import (
    AlignmentError,
    ConfigError,
    DataConsistencyError,
    InsufficientDataError,
    ManifestError,
    ModelCoverageError,
    NilmError,
    ParseError,
    SpecValidationError,
)
from .evaluation import ConfusionCounts, LabelPoint, PointTable, f_measure, match_events
from .features import ApplianceModel, BehaviorSet, Transition, transition_interval
from .filtering import detect_events, detect_outliers, filter_and_detect
from .modes import Cluster, State, StateSet, extract_states, lw_cluster, ward_merge_cost
from .signals import EventRecord, EventTable, GapRecord, PowerSignal, aggregate, resample_step_hold
from .synth import ApplianceSpec, GroundTruthEvent, SynthResult, generate

__version__ = "0.1.0"

# per-cycle warnings reach stderr only if the caller configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "AlignmentError",
    "ApplianceModel",
    "ApplianceSpec",
    "BehaviorSet",
    "Cluster",
    "ConfigError",
    "ConfusionCounts",
    "DataConsistencyError",
    "EventRecord",
    "EventTable",
    "GapRecord",
    "GroundTruthEvent",
    "InsufficientDataError",
    "LabelPoint",
    "LabelTable",
    "LabeledEvent",
    "ManifestError",
    "ModelCoverageError",
    "NilmError",
    "ParseError",
    "PointTable",
    "PowerSignal",
    "RunConfig",
    "SpecValidationError",
    "State",
    "StateSet",
    "SynthResult",
    "Transition",
    "aggregate",
    "classify",
    "detect_events",
    "detect_outliers",
    "extract_states",
    "f_measure",
    "filter_and_detect",
    "generate",
    "lw_cluster",
    "match_events",
    "resample_step_hold",
    "transition_interval",
    "ward_merge_cost",
    "__version__",
]
