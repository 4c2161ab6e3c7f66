"""Quality-of-service bounds and feasibility verdicts.

A load is useful as virtual storage only while the occupant never notices.
QoS is expressed as closed-interval bounds on zone temperature, optionally
on humidity ratio, and optionally as a compressor lockout rule: within any
trailing window of tau_lock hours a unit may switch on or off at most once.

The lockout counter s(t) counts switch events inside the half-open window
(t - tau_lock, t], so an event falling exactly tau_lock before t has aged
out.  Feasibility requires s(t) <= 1 at every sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChannelMissingError, InputError, ShapeError, _freeze, require_count, require_finite,
    require_nonnegative, require_positive,
)
from .thermal import Trajectory, _check_grid

# Channel names, in the order ties at the same sample index are reported.
CHANNELS = ("theta", "humidity", "lockout")


@dataclass(frozen=True)
class QoSBounds:
    """Closed-interval comfort bounds, with optional per-sample overrides.

    theta_min/theta_max are finite scalars (degC); theta_min_t/theta_max_t,
    when given, tighten them sample-by-sample, every sample inside
    [theta_min, theta_max], lower below upper at each sample and both of one
    length, checked here; that length must match the signal's: for a
    flexset.Scenario of N steps that is the N+1 temperature samples,
    checked when the Scenario is built.  Humidity-ratio
    bounds (kg water per kg dry air) and the lockout window tau_lock (hours)
    are optional; leaving a channel's bounds unset leaves that channel
    unconstrained.
    """

    theta_min: float
    theta_max: float
    w_min: float | None = None
    w_max: float | None = None
    tau_lock: float | None = None
    theta_min_t: np.ndarray | None = None
    theta_max_t: np.ndarray | None = None

    def __post_init__(self) -> None:
        require_finite("theta_min", self.theta_min)
        require_finite("theta_max", self.theta_max)
        if not self.theta_min < self.theta_max:
            raise InputError(
                f"theta_min {self.theta_min} must be below theta_max {self.theta_max}"
            )
        if (self.w_min is None) != (self.w_max is None):
            raise InputError("w_min and w_max must be given together")
        if self.w_min is not None:
            require_nonnegative("w_min", self.w_min)
            require_positive("w_max", self.w_max)
            if not self.w_min < self.w_max:
                raise InputError(f"need w_min < w_max, got [{self.w_min}, {self.w_max}]")
        if self.tau_lock is not None:
            require_positive("tau_lock", self.tau_lock)
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

    @property
    def constrains_humidity(self) -> bool:
        return self.w_min is not None

    @property
    def constrains_lockout(self) -> bool:
        return self.tau_lock is not None


@dataclass(frozen=True)
class QoSSignal:
    """Signals a verdict is computed over; channels share dt and length."""

    theta: Trajectory
    w: Trajectory | None = None
    s: Trajectory | None = None

    def __post_init__(self) -> None:
        for name in ("w", "s"):
            tr = getattr(self, name)
            if tr is None:
                continue
            _check_grid(f"{name} channel", tr, len(self.theta), self.theta.dt)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a QoS check.

    ok is True when every configured channel stays within bounds at every
    sample (closed intervals: touching a bound is feasible).  On failure the
    earliest offending sample is reported; when several channels fail at the
    same index the first in CHANNELS order is named.
    """

    ok: bool
    first_violation_index: int | None = None
    channel: str | None = None
    value: float | None = None
    limit: float | None = None

    def __bool__(self) -> bool:
        return self.ok


def lockout_count(
    on_off: Trajectory, tau_lock: float, u_init: float | None = None
) -> Trajectory:
    """Switch events in the trailing half-open window (t - tau_lock, t].

    on_off holds the unit's on/off state per sample.  A switch event occurs
    at sample k >= 1 whenever on_off[k] != on_off[k-1]; passing u_init counts
    a change at the very first sample as an event at t = 0.  Events exactly
    tau_lock old are excluded, so switches spaced exactly tau_lock apart
    never overlap in one window.
    """
    require_positive("tau_lock", tau_lock)
    u = on_off.values
    events = np.zeros(len(on_off), dtype=int)
    events[1:] = u[1:] != u[:-1]
    if u_init is not None and u[0] != u_init:
        events[0] = 1
    # window size in samples: events at j with j*dt > k*dt - tau_lock
    q = tau_lock / on_off.dt
    if abs(q - round(q)) < 1e-9:
        w = int(round(q))  # exact multiple: sample k-w has aged out
    else:
        w = int(math.floor(q)) + 1
    csum = np.concatenate(([0], np.cumsum(events)))
    k = np.arange(len(on_off))
    lo = np.maximum(k - w + 1, 0)
    counts = csum[k + 1] - csum[lo]
    return Trajectory(on_off.dt, counts.astype(float), unit="switches")


def satisfies(signal: QoSSignal, bounds: QoSBounds, atol: float = 0.0) -> Verdict:
    """Check every configured channel, closed intervals, optional slack atol.

    Raises ChannelMissingError when bounds constrain a channel the signal
    does not carry.  atol widens every interval symmetrically; it exists so
    optimizer output feasible to solver tolerance is not rejected for a
    1e-9 grazing of a bound.
    """
    require_nonnegative("atol", atol)
    n = len(signal.theta)
    lo, hi = bounds.theta_limits(n)

    if bounds.constrains_humidity and signal.w is None:
        raise ChannelMissingError(
            "bounds constrain humidity but the signal has no w channel"
        )
    if bounds.constrains_lockout and signal.s is None:
        raise ChannelMissingError(
            "bounds set tau_lock but the signal has no switch counter s"
        )

    # first offending index per channel; ties resolved by CHANNELS order
    hits: list[tuple[int, str, float, float]] = []

    th = signal.theta.values
    bad = (th < lo - atol) | (th > hi + atol)
    if bad.any():
        i = int(np.argmax(bad))
        lim = lo[i] if th[i] < lo[i] else hi[i]
        hits.append((i, "theta", float(th[i]), float(lim)))

    if bounds.constrains_humidity and signal.w is not None:
        wv = signal.w.values
        bad = (wv < bounds.w_min - atol) | (wv > bounds.w_max + atol)
        if bad.any():
            i = int(np.argmax(bad))
            lim = bounds.w_min if wv[i] < bounds.w_min else bounds.w_max
            hits.append((i, "humidity", float(wv[i]), float(lim)))

    if bounds.constrains_lockout and signal.s is not None:
        sv = signal.s.values
        bad = sv > 1 + atol
        if bad.any():
            i = int(np.argmax(bad))
            hits.append((i, "lockout", float(sv[i]), 1.0))

    if not hits:
        return Verdict(ok=True)
    hits.sort(key=lambda h: (h[0], CHANNELS.index(h[1])))
    i, ch, val, lim = hits[0]
    return Verdict(
        ok=False, first_violation_index=i, channel=ch, value=val, limit=lim
    )
