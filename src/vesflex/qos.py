"""Quality-of-service bounds and feasibility verdicts.

A load is useful as virtual storage only while the occupant never notices.
QoS is expressed as closed-interval bounds on zone temperature, optionally
tightened sample by sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InputError, ShapeError, _freeze, require_count, require_finite, require_nonnegative,
)
from .thermal import Trajectory


@dataclass(frozen=True)
class QoSBounds:
    """Closed-interval comfort bounds, with optional per-sample overrides.

    theta_min/theta_max are finite scalars (degC); theta_min_t/theta_max_t,
    when given, tighten them sample-by-sample, every sample inside
    [theta_min, theta_max], lower below upper at each sample and both of one
    length, checked here; that length must match the signal's: for a
    flexset.Scenario of N steps that is the N+1 temperature samples,
    checked when the Scenario is built.
    """

    theta_min: float
    theta_max: float
    theta_min_t: np.ndarray | None = None
    theta_max_t: np.ndarray | None = None

    def __post_init__(self) -> None:
        require_finite("theta_min", self.theta_min)
        require_finite("theta_max", self.theta_max)
        if not self.theta_min < self.theta_max:
            raise InputError(
                f"theta_min {self.theta_min} must be below theta_max {self.theta_max}"
            )
        for name in ("theta_min_t", "theta_max_t"):
            if getattr(self, name) is not None:
                held = _freeze(self, name, getattr(self, name))
                if np.any(held < self.theta_min) or np.any(held > self.theta_max):
                    raise InputError(
                        f"{name} must lie within [theta_min, theta_max] = "
                        f"[{self.theta_min}, {self.theta_max}]"
                    )
        lo = self.theta_min if self.theta_min_t is None else self.theta_min_t
        hi = self.theta_max if self.theta_max_t is None else self.theta_max_t
        if np.ndim(lo) == np.ndim(hi) == 1 and lo.size != hi.size:
            raise ShapeError(f"theta_min_t has {lo.size} samples but theta_max_t has {hi.size}")
        if np.any(lo >= hi):
            raise InputError("per-sample bounds must satisfy lower < upper")

    def theta_limits(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample (lower, upper) temperature limits for an n-sample signal."""
        require_count("n", n, 1)
        lo = np.full(n, self.theta_min) if self.theta_min_t is None else self.theta_min_t
        hi = np.full(n, self.theta_max) if self.theta_max_t is None else self.theta_max_t
        if lo.size != n or hi.size != n:
            raise ShapeError(
                f"per-sample temperature bounds sized {lo.size}/{hi.size} "
                f"do not match {n} signal samples"
            )
        return lo, hi


@dataclass(frozen=True)
class Verdict:
    """Outcome of a QoS check.

    ok is True when the temperature stays within bounds at every sample
    (closed intervals: touching a bound is feasible).  On failure the
    earliest offending sample is reported; channel is then "theta".
    """

    ok: bool
    first_violation_index: int | None = None
    channel: str | None = None
    value: float | None = None
    limit: float | None = None

    def __bool__(self) -> bool:
        return self.ok


def satisfies(theta: Trajectory, bounds: QoSBounds, atol: float = 0.0) -> Verdict:
    """Check the temperature band, closed intervals, optional slack atol.

    atol widens the interval symmetrically; it exists so optimizer output
    feasible to solver tolerance is not rejected for a 1e-9 grazing of a
    bound.
    """
    require_nonnegative("atol", atol)
    th = theta.values
    lo, hi = bounds.theta_limits(len(theta))
    bad = (th < lo - atol) | (th > hi + atol)
    if not bad.any():
        return Verdict(ok=True)
    i = int(np.argmax(bad))
    lim = lo[i] if th[i] < lo[i] else hi[i]
    return Verdict(
        ok=False, first_violation_index=i, channel="theta", value=float(th[i]), limit=float(lim)
    )
