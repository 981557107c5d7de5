"""Exception hierarchy.

Validation errors double as ValueError so callers can catch either
family. Numerical failures are kept distinct so the CLI can map them to
a separate exit code (1 = validation, 2 = numerical).
"""
from __future__ import annotations


class CascadeRiskError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSizeError(CascadeRiskError, ValueError):
    """Node or vehicle count outside the supported range."""


class InvalidParameterError(CascadeRiskError, ValueError):
    """A parameter violates a documented precondition."""


class InvalidQueryError(CascadeRiskError, ValueError):
    """A risk query addresses a failed or out-of-range pair."""


class ConfigError(CascadeRiskError, ValueError):
    """Malformed run configuration; the message carries the source line
    and names the file it came from."""

    def __init__(self, message: str, line: int | None = None,
                 path: str | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{message} (in {path})"
        super().__init__(message)
        self.line = line
        self.path = path


class UnstablePlatoonError(CascadeRiskError):
    """The configured platoon does not form: some mode leaves the
    stability region, so steady-state statistics do not exist."""


class NumericalError(CascadeRiskError):
    """A numerical routine failed to reach the requested accuracy."""


class NearBoundaryError(NumericalError):
    """Stability margin below the limit down to which f's accuracy is
    guaranteed; refusing to return a silently inaccurate value."""


class IllConditionedScenarioError(NumericalError):
    """The conditioning covariance block is singular or nearly so."""


class DivergenceError(NumericalError):
    """The simulated state stopped being finite."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step
