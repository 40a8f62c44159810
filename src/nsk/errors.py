"""Exception hierarchy shared across the package.

Two families hold every error: configuration, usage and double-range problems
(``ConfigError``, exit 2) and runtime solver failures (``SolverError``, exit 3).
"""


class NskError(Exception):
    """Base class for all package errors."""


class ConfigError(NskError):
    """Invalid configuration, argument, or domain violation."""


class DomainError(ConfigError):
    """Argument outside the mathematical domain of an operation."""


class RangeError(ConfigError):
    """Value left the representable floating-point range (over/underflow)."""


class GridSizeError(ConfigError):
    """Grid construction would exceed the node cap."""


class NoRootError(ConfigError):
    """Requested boundary slope is outside the attainable range."""


class SolverError(NskError):
    """Base class for runtime solver failures."""


class NonContractionError(SolverError):
    """Fixed-point iteration diverged or did not converge within its iteration cap."""


class PositivityError(SolverError):
    """Density lost positivity during an iteration."""


class NewtonDivergenceError(SolverError):
    """Newton iteration failed to converge."""
