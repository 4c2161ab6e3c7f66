"""Exception types shared across the package.

The CLI maps these onto exit codes: bad or inconsistent input data is an
InputError (exit 2), while a well-posed problem with no feasible answer is
an InfeasibleError (exit 1).  require_finite, require_positive and
require_nonnegative are the one check every scalar input passes.
"""

import math
from numbers import Real


class VesflexError(Exception):
    """Base class for all package errors."""


class InputError(VesflexError):
    """Malformed, inconsistent, or out-of-range input data."""


class ShapeError(InputError):
    """Array lengths or sampling grids that do not line up."""


class PowerRangeError(InputError):
    """A demand trajectory outside the physical range [0, p_rated]."""


class ChannelMissingError(InputError):
    """QoS bounds reference a signal channel that was not supplied."""


class InfeasibleError(VesflexError):
    """No trajectory satisfies the stated constraints."""


class SolverError(VesflexError):
    """Internal optimizer failure (iteration limit, numerical breakdown)."""


def _finite(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def require_finite(name: str, value) -> None:
    """InputError naming the field unless value is a finite number of either sign."""
    if not _finite(value):
        raise InputError(f"{name} must be finite, got {value!r}")


def require_positive(name: str, value) -> None:
    """InputError naming the field unless value is a finite number above zero."""
    if not (_finite(value) and value > 0):
        raise InputError(f"{name} must be finite and positive, got {value!r}")


def require_nonnegative(name: str, value) -> None:
    """InputError naming the field unless value is a finite number, zero or above."""
    if not (_finite(value) and value >= 0):
        raise InputError(f"{name} must be finite and non-negative, got {value!r}")
