"""Exception hierarchy shared by all fedbeam modules, and the checks that
config values are of the right type."""

import math
from numbers import Integral, Real


class FedbeamError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(FedbeamError):
    """A config value, grid, or requested operation is structurally invalid."""


class ContractViolationError(FedbeamError):
    """A caller broke an API contract: a shape mismatch (a weight vector of the
    wrong length included), a stale cache or an empty input."""


class IngestionError(FedbeamError):
    """An input (config file, beam CSV, report) could not be read, parsed or validated."""


class NumericsError(FedbeamError):
    """Training or evaluation produced a non-finite value."""


def require_int(name: str, value, minimum: int) -> None:
    """Raise ConfigurationError unless value is an integer >= minimum.

    Booleans are rejected although Python counts them as integers.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_finite(name: str, value) -> None:
    """Raise ConfigurationError unless value is a finite real number."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
