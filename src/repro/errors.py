"""Exception hierarchy for the PDHT reproduction library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError`, so
callers can catch library failures without masking programming errors such as
``TypeError``.
"""

from __future__ import annotations

import math
from numbers import Integral, Real


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ParameterError(ReproError, ValueError):
    """A scenario or model parameter is out of its valid domain."""


class CapabilityError(ParameterError):
    """A requested engine (or other capability) is not supported by the
    target experiment; the message carries the gate reason."""


class ConvergenceError(ReproError, RuntimeError):
    """A fixed-point iteration failed to converge within its budget."""


class SimulationError(ReproError, RuntimeError):
    """The simulation clock was asked to run to an invalid time."""


class TopologyError(ReproError, ValueError):
    """An overlay topology cannot be built with the requested parameters."""


class RoutingError(ReproError, RuntimeError):
    """A DHT routing operation could not complete (e.g. no live route)."""


class KeyspaceError(ReproError, ValueError):
    """A key or identifier is outside the configured key space."""


class OfflinePeerError(SimulationError):
    """An operation was attempted on a peer that is currently offline."""


def require_count(name: str, value: object, minimum: int) -> None:
    """Raise :class:`ParameterError` unless ``value`` is an integer (a
    numpy one included, a boolean not) of at least ``minimum``."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")


def require_period(name: str, value: object) -> None:
    """Raise :class:`ParameterError` unless ``value`` is a real number (a
    numpy one included, a boolean not) above 0; ``inf`` means never."""
    if isinstance(value, bool) or not isinstance(value, Real) or not value > 0:
        raise ParameterError(f"{name} must be > 0, got {value!r}")


def require_finite(name: str, value: object, minimum: float) -> None:
    """Raise :class:`ParameterError` unless ``value`` is a finite real
    number (a numpy one included, a boolean not) of at least ``minimum``;
    NaN is not."""
    if (
        isinstance(value, bool)
        or not isinstance(value, Real)
        or not minimum <= value < math.inf
    ):
        raise ParameterError(
            f"{name} must be a finite number >= {minimum:g}, got {value!r}"
        )


def require_key_ttl(value: object) -> None:
    """Raise :class:`ParameterError` unless ``value`` is a keyTtl: a real
    number (a numpy one included, a boolean not) of at least 0, where
    ``inf`` means an entry never expires; NaN is not."""
    if isinstance(value, bool) or not isinstance(value, Real) or not value >= 0:
        raise ParameterError(f"key_ttl must be a number >= 0, got {value!r}")
