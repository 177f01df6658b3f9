"""Exception types shared across the package."""


class BmtasError(Exception):
    """Base class for all package errors."""


class BoundsError(BmtasError, ValueError):
    """An index, size, or enumeration guard was violated."""


class DimensionMismatch(BmtasError, ValueError):
    """Shapes or task/layer counts of two arguments disagree."""


class DomainError(BmtasError, ValueError):
    """A numeric argument lies outside the valid domain."""


class NumericError(BmtasError, ArithmeticError):
    """A computation produced non-finite values; in training, at stage's step."""

    def __init__(self, message, stage=None, step=None):
        super().__init__(message)
        self.stage, self.step = stage, step


class ConfigError(BmtasError, ValueError):
    """A run configuration or input file failed validation."""


class SearchError(BmtasError, RuntimeError):
    """Architecture search aborted. Carries the trace of the steps before the failing one."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []
        self.stage, self.step = "search", len(self.trace) + 1
