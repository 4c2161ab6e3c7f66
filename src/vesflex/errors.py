"""Exception types shared across the package.

The CLI maps these onto exit codes: bad or inconsistent input data is an
InputError (exit 2), while a well-posed problem with no feasible answer is
an InfeasibleError (exit 1).  Every scalar input passes one of four checks:
require_finite, require_positive, require_nonnegative or require_count, and
every array a frozen value holds passes _freeze, under the same number rules.
"""

import math
from numbers import Integral, Real


class VesflexError(Exception):
    """Base class for all package errors."""


class InputError(VesflexError):
    """Malformed, inconsistent, or out-of-range input data."""


class ShapeError(InputError):
    """Array lengths or sampling grids that do not line up."""


class PowerRangeError(InputError):
    """A demand trajectory outside the physical range [0, p_rated]."""


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


def require_count(name: str, value, least: int = 0) -> None:
    """InputError naming the field unless value is an integer (not a bool) at or above least."""
    # int first: a plain int then skips the slower Integral ABC check
    if not (isinstance(value, (int, Integral)) and not isinstance(value, bool) and value >= least):
        raise InputError(f"{name} must be an integer of at least {least}, got {value!r}")


def _freeze(holder, name: str, value, dtype: type = float, ndim: int = 1, finite: bool = True):
    """Set holder.<name> to a read-only copy of value, and return it: an ndim-D array
    (non-empty when 1-D) of values dtype holds exactly, so no string, no bool in a
    number field, no fraction or 256 in an int8 one, no NaN, no +-inf if finite."""
    import numpy as np

    src, want = np.asarray(value), np.dtype(dtype)
    if src.dtype.kind not in ("b" if want.kind == "b" else "iuf"):
        raise InputError(f"{name} must be an array of {want} values, not {src.dtype}")
    if src.ndim != ndim or (ndim == 1 and src.size == 0):
        raise ShapeError(f"{name} must be a {'non-empty 1-D' if ndim == 1 else '2-D'} array")
    if src.dtype.kind == "f" and not (np.isfinite(src) if finite else ~np.isnan(src)).all():
        raise InputError(f"{name} must be {'finite' if finite else 'free of NaN'}")
    if src.dtype == want:
        out = src.copy()  # the caller's array stays writable
    else:
        with np.errstate(invalid="ignore"):  # a float beyond int8 is refused below
            out = src.astype(want)
        if not np.array_equal(out, src):
            bad = src[out != src][0].item()
            raise InputError(f"{name} must be an array of {want} values; {bad!r} is not one")
    out.setflags(write=False)
    object.__setattr__(holder, name, out)
    return out
