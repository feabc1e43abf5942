"""Exception and warning types shared across the toolkit."""


class JoulecastError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(JoulecastError):
    """Tensor shape cannot be propagated through a layer."""


class ParseError(JoulecastError):
    """Malformed input document (JSON or CSV)."""


class SchemaError(ParseError):
    """Input file is parseable but missing required columns/fields."""


class ValidationError(JoulecastError):
    """A domain invariant is violated."""


class UnknownPresetError(JoulecastError):
    """Requested architecture preset does not exist."""


class MacOverflowError(JoulecastError):
    """MAC count exceeds the 64-bit budget."""


class RetryExhaustedError(JoulecastError):
    """Rejection sampling failed to produce a valid configuration."""


class TooFewRecordsError(JoulecastError):
    """Not enough records to split or cross-validate."""


class KindMismatchError(JoulecastError):
    """Records of different layer kinds were mixed where one kind is required."""


class MissingKindError(JoulecastError):
    """No trained predictor (or no records) for a required layer kind."""


class DegreeOutOfRangeError(JoulecastError):
    """Polynomial degree outside the supported range."""


class EmptyRecordsError(JoulecastError):
    """An operation requiring records received none."""


class ColumnMismatchError(JoulecastError):
    """Design matrix columns do not match the fitted model."""


class NonFiniteError(JoulecastError):
    """NaN or Inf encountered where finite values are required."""


class RaplUnavailableError(JoulecastError):
    """No readable RAPL powercap interface on this host."""


class AllRepeatsFailedError(JoulecastError):
    """Every measurement repeat failed; no usable energy reading."""


class ConcurrentMeasurementError(JoulecastError):
    """A second measurement was started while one is already running."""


class ConsistencyWarning(UserWarning):
    """Stored value disagrees with a recomputed one (kept, not fixed)."""


class SingularityWarning(UserWarning):
    """Rank-deficient design matrix; minimum-norm solution returned."""


class NotConvergedWarning(UserWarning):
    """Iterative solver hit its iteration cap; best iterate returned."""


class ConstantColumnWarning(UserWarning):
    """A constant feature column was dropped before standardization."""


class AggregationWarning(UserWarning):
    """Per-layer energy sum disagrees with the stored full-model total."""
