"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: DomainError/DataError -> 3,
NumericError and subclasses -> 4.
"""


class _Located:
    """An error that may name the flat position of the first offending input."""

    def __init__(self, msg, index=None):
        super().__init__(msg)
        self.dim = None  # filled in by the flow layer
        self.index = index  # flat position of the first offending input


class DomainError(_Located, ValueError):
    """Input outside an operation's declared domain."""


class DataError(ValueError):
    """Malformed external data (CSV rows, checkpoints, registry names)."""


class NumericError(_Located, ArithmeticError):
    """A computation left the representable/valid numeric regime."""


class SaturationError(NumericError):
    """A transformer's pre-logit hit 0 or 1 within float tolerance."""

    def __init__(self, msg, magnitude=None, layer=None, index=None):
        super().__init__(msg, index)
        self.magnitude = magnitude
        self.layer = layer


class RangeError(NumericError):
    """Requested output value lies outside a map's numeric range."""


class InconsistencyError(RuntimeError):
    """A closure expected to be deterministic returned differing values."""
