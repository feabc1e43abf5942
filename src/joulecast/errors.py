"""Exception and warning types shared across the toolkit.

There is one exception class per way a caller handles a failure. Callers
catch ``ShapeError``, ``ParseError``, ``ValidationError`` and
``MacOverflowError`` to add context to the message or to draw again, and
``CounterRangeError`` to skip one configuration of a collection; the command
line reports every ``JoulecastError`` as a one-line error. A failure
that no caller tells apart, such as a host without RAPL counters, is a plain
``JoulecastError``."""


class JoulecastError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(JoulecastError):
    """Tensor shape cannot be propagated through a layer."""


class ParseError(JoulecastError):
    """Malformed input document (JSON or CSV), or one missing required columns or keys."""


class ValidationError(JoulecastError):
    """A domain invariant is violated: a value out of range, too few or mixed
    records, a missing layer kind, or a non-finite or mismatched input."""


class MacOverflowError(JoulecastError):
    """MAC count exceeds the 64-bit budget."""


class CounterRangeError(JoulecastError):
    """A metered window reached its counters' safe interval, so its energy may
    have wrapped a counter range more than once and would read low."""


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
