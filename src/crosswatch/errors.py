"""Exception hierarchy shared by every crosswatch module.

All library errors derive from :class:`CrosswatchError` so callers can
catch one base type.  Subclasses mark *why* a computation was refused or
abandoned, which the command line layer maps onto distinct exit codes.
"""

from __future__ import annotations


class CrosswatchError(Exception):
    """Base class for all crosswatch errors."""


class DomainError(CrosswatchError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(CrosswatchError, ValueError):
    """A model configuration file or mapping is malformed."""


class UnsupportedLawError(CrosswatchError, TypeError):
    """A law object of an unknown or unsupported kind was supplied."""


class DivergenceError(CrosswatchError, ArithmeticError):
    """The crossing never comes: marks that are all zero, or a resolvent series outside its contraction region."""


class SeriesOrderError(CrosswatchError, ValueError):
    """A truncated series is too short for the requested coefficient."""


class InversionError(CrosswatchError, ArithmeticError):
    """Numerical Laplace inversion missed its error tolerance or returned a non-finite value."""


class TableInvariantError(CrosswatchError, AssertionError):
    """A probability table violated a structural invariant.

    Carries the offending cells so reports can name them.
    """

    def __init__(self, message: str, cells: list[tuple] | None = None):
        super().__init__(message)
        self.cells = cells or []


class RunawaySimulationError(CrosswatchError, RuntimeError):
    """A simulated path exceeded the epoch safety cap without crossing."""
