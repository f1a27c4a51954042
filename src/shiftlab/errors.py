"""Exception types shared across the package.

Each family's base carries the exit code and stderr label of its category (1
config, 2 generation, 3 training, 4 analysis), which the CLI reports it with;
a new error condition subclasses its family's base rather than raise ValueError.
"""


class ShiftLabError(Exception):
    """Base class for all package errors."""


class ConfigError(ShiftLabError):
    """Malformed or inconsistent experiment configuration."""
    exit_code, label = 1, "config"


class InvalidSpecError(ShiftLabError):
    """A ShiftSpec invariant is violated."""
    exit_code, label = 2, "generation"


class DegenerateDimensionError(InvalidSpecError):
    """Core feature dimension is zero."""


class InfeasibleMarginalsError(InvalidSpecError):
    """No non-negative integer contingency table satisfies the marginals."""


class DegeneratePopulationError(InvalidSpecError):
    """P(Z=1) is 0 or 1, so conditional quantities are undefined."""


class DivergenceError(ShiftLabError):
    """Training encountered a non-finite loss."""
    exit_code, label = 3, "training"

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"non-finite loss at epoch {epoch}")


class DimensionMismatchError(ShiftLabError):
    """Model weight length does not match the dataset feature dimension."""
    exit_code, label = 3, "training"


class AnalysisError(ShiftLabError):
    """Curve fitting failed (too few points, degenerate design, bad input)."""
    exit_code, label = 4, "analysis"


class EmptyGroupError(AnalysisError):
    """A subpopulation received no samples where some were required."""


class MissingInputsError(AnalysisError):
    """A pipeline stage requires artifacts that are not on disk."""
