"""Exception hierarchy for the eventnilm toolkit."""


class NilmError(Exception):
    """Base class for all toolkit errors."""


class AlignmentError(NilmError):
    """Signals cannot be placed on a common grid (disjoint spans, mixed grids)."""


class InsufficientDataError(NilmError):
    """An operation needs more samples than the input provides."""


class DataConsistencyError(NilmError):
    """Per-day bookkeeping contradicts itself (e.g. transitions on an event-free day)."""


class ModelCoverageError(NilmError):
    """No learned transition can describe an observed event."""


class SpecValidationError(NilmError):
    """A synthetic appliance specification violates its own constraints."""


class ParseError(NilmError):
    """A data file line could not be parsed."""


class ManifestError(NilmError):
    """A dataset manifest is incomplete or points at missing files."""


class ConfigError(NilmError):
    """A run configuration value is out of range or unreadable."""


class OutputError(NilmError):
    """An output file or directory cannot be written where the user asked."""
