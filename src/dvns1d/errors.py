"""Exception types shared across the package, and its one check of an integer input."""

import math


class ConfigurationError(ValueError):
    """Invalid parameters, scenario settings, or config file contents."""


class DomainError(ValueError):
    """A field value left the physical domain of a law (e.g. negative density)."""


class VacuumBreach(RuntimeError):
    """Density reached zero or below during time integration.

    Carries the first offending cell and the time at which it happened.
    This is a recorded outcome, not a crash: sweeps deliberately probe
    parameter regions where vacuum can form.
    """

    def __init__(self, time: float, cell: int, value: float):
        self.time = float(time)
        self.cell = int(cell)
        self.value = float(value)
        super().__init__(
            f"density {value:.3e} <= 0 in cell {cell} at t={time:.6g}"
        )


def integer(value, name: str, least: int) -> int:
    """value as an int; ConfigurationError unless it is finite (checked first,
    as int() of inf or NaN raises) and an integer >= least."""
    if not math.isfinite(value) or int(value) != value or value < least:
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)
