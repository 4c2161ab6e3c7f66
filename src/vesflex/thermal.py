"""Single-zone RC thermal model of a cooling load.

The zone temperature theta (degC) obeys

    C * dtheta/dt = -(theta - theta_a) / R + q_d - eta_cop * p

with thermal resistance R (degC/kW), capacitance C (kWh/degC), ambient
temperature theta_a, exogenous heat gain q_d (kW thermal), coefficient of
performance eta_cop, and electric cooling demand p (kW).  Time is in hours
throughout.

Simulation uses the exact zero-order-hold discretization: over a step dt
with constant inputs the temperature relaxes toward the quasi-steady value
theta_a + R*(q_d - eta_cop*p) with decay factor a = exp(-dt/(R*C)).  For
piecewise-constant inputs this is exact, not an Euler approximation, so
closed-form step and frequency responses can be used as test oracles at
solver-level tolerances.

The transfer function from demand deviation to temperature deviation around
any operating point is

    G(s) = -(eta_cop / C) / (s + 1/(R*C))

whose magnitude at s = j*omega is tf_magnitude().  Its DC gain is
R * eta_cop degC per kW.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import read_csv
from .errors import (
    InputError, ShapeError, _freeze, require_count, require_finite, require_nonnegative,
    require_positive,
)

# Uniform-grid tolerance for time stamps read from CSV, hours.
TIME_GRID_TOL_H = 1e-9

# Most steps a horizon may span: 19 years of one-minute steps, 80 MB per
# float64 channel.  A longer horizon is refused before any array is made.
MAX_GRID_STEPS = 10_000_000

# steady_sine_amplitude: steps per period, periods measured, RC time
# constants of transient discarded first (remnants below 1e-2 of the swing)
_SINE_SAMPLES_PER_PERIOD = 24
_SINE_PERIODS = 4
_SINE_SETTLE_TIME_CONSTANTS = 5.0


def _check_grid(name: str, signal, n: int, dt: float) -> None:
    """ShapeError unless signal has n samples dt apart, within TIME_GRID_TOL_H."""
    if len(signal) != n or abs(signal.dt - dt) > TIME_GRID_TOL_H:
        raise ShapeError(f"{name} has {len(signal)} samples {signal.dt:.6g} h apart, "
                         f"not {n} samples {dt:.6g} h apart")


def _check_stamps(path: str, t: np.ndarray, dt: float) -> None:
    """InputError naming path unless each time stamp t[k] sits at k*dt, within TIME_GRID_TOL_H."""
    off = np.flatnonzero(np.abs(t - np.arange(t.size) * dt) > TIME_GRID_TOL_H)
    if off.size:
        k = int(off[0])
        raise InputError(
            f"{path}: time stamp {k} is {t[k]:.12g} h, off the grid's {k * dt:.12g} h"
        )


@dataclass(frozen=True)
class ThermalParams:
    """Lumped RC parameters of one cooling load.

    r_thermal : degC per kW of heat crossing the envelope
    c_thermal : kWh of heat per degC of zone temperature
    eta_cop   : kW thermal removed per kW electric
    p_rated   : maximum electric demand, kW
    """

    r_thermal: float
    c_thermal: float
    eta_cop: float
    p_rated: float

    def __post_init__(self) -> None:
        for name in ("r_thermal", "c_thermal", "eta_cop", "p_rated"):
            require_positive(name, getattr(self, name))

    @property
    def time_constant_h(self) -> float:
        """RC time constant in hours."""
        return self.r_thermal * self.c_thermal

    @property
    def dc_gain(self) -> float:
        """Steady temperature drop per kW of extra demand, degC/kW."""
        return self.r_thermal * self.eta_cop


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A uniformly sampled scalar signal: values[k] is the sample at t = k*dt, dt in hours."""

    dt: float
    values: np.ndarray

    def __post_init__(self) -> None:
        require_positive("dt", self.dt)
        _freeze(self, "values", self.values)

    def __len__(self) -> int:
        return int(self.values.size)

    def times(self) -> np.ndarray:
        """Sample times in hours."""
        return np.arange(len(self)) * self.dt


def grid_steps(horizon_h: float, dt: float) -> int:
    """Number of dt steps spanning horizon_h, which must be a positive multiple of dt.

    At most MAX_GRID_STEPS: a longer horizon is an InputError, not an allocation.
    """
    steps = horizon_h / dt if dt > 0 else math.nan
    n = round(steps) if math.isfinite(steps) else 0
    if n < 1 or abs(n * dt - horizon_h) > TIME_GRID_TOL_H:
        raise InputError(f"horizon {horizon_h:.6g} h is not a positive multiple of {dt:.6g} h")
    if n > MAX_GRID_STEPS:
        raise InputError(
            f"horizon {horizon_h:.6g} h at {dt:.6g} h steps is more than {MAX_GRID_STEPS} steps"
        )
    return n


@dataclass(frozen=True, eq=False)
class DisturbanceSeries:
    """Ambient temperature and internal heat gain on a shared grid.

    theta_a in degC and q_d in kW thermal, both sampled every dt hours and
    held constant over each step (zero-order hold).
    """

    dt: float
    theta_a: np.ndarray
    q_d: np.ndarray

    def __post_init__(self) -> None:
        require_positive("dt", self.dt)
        ta, qd = _freeze(self, "theta_a", self.theta_a), _freeze(self, "q_d", self.q_d)
        if ta.size != qd.size:
            raise ShapeError(f"theta_a has {ta.size} samples but q_d has {qd.size}")

    def __len__(self) -> int:
        return int(self.theta_a.size)

    @property
    def horizon_h(self) -> float:
        return len(self) * self.dt

    @classmethod
    def constant(
        cls, dt: float, n_steps: int, theta_a: float, q_d: float
    ) -> "DisturbanceSeries":
        require_count("n_steps", n_steps, 1)
        return cls(dt, np.full(n_steps, theta_a), np.full(n_steps, q_d))

    def slice(self, start: int, n_steps: int) -> "DisturbanceSeries":
        require_count("start", start)
        require_count("n_steps", n_steps, 1)
        if start + n_steps > len(self):
            raise ShapeError(
                f"slice [{start}, {start + n_steps}) exceeds {len(self)} samples"
            )
        return DisturbanceSeries(
            self.dt,
            self.theta_a[start : start + n_steps],
            self.q_d[start : start + n_steps],
        )

    @classmethod
    def from_csv(cls, path: str) -> "DisturbanceSeries":
        """Read `t_hours,theta_a_C,q_d_kW` rows stamped k*dt from t = 0, dt = t_1 - t_0."""
        t, ta, qd = read_csv(path, ["t_hours", "theta_a_C", "q_d_kW"]).T
        if t.size < 2:
            raise InputError(f"{path}: need at least 2 samples")
        dt = float(t[1] - t[0])
        if dt <= 0:
            raise InputError(f"{path}: time stamps must increase")
        _check_stamps(path, t, dt)
        return cls(dt, ta, qd)


def equilibrium_power(
    params: ThermalParams,
    theta_a: float | np.ndarray,
    theta_sp: float | np.ndarray,
    q_d: float | np.ndarray,
) -> float | np.ndarray:
    """Demand that holds the zone exactly at theta_sp, kW.

    Solves 0 = -(theta_sp - theta_a)/R + q_d - eta_cop*p for p, elementwise
    when given per-sample arrays.  The value is returned unclamped: a
    negative result means the setpoint calls for heating, which this
    cooling-only model cannot deliver.
    """
    return (q_d + (theta_a - theta_sp) / params.r_thermal) / params.eta_cop


def decay_factor(params: ThermalParams, dt: float) -> float:
    """Zero-order-hold decay exp(-dt/RC) for one step."""
    require_positive("dt", dt)
    return math.exp(-dt / params.time_constant_h)


def simulate(
    params: ThermalParams,
    dist: DisturbanceSeries,
    p: Trajectory,
    theta0: float,
) -> Trajectory:
    """Integrate the zone temperature under a demand trajectory.

    Parameters
    ----------
    params : ThermalParams
    dist : DisturbanceSeries
        N samples of theta_a and q_d, held over each step.
    p : Trajectory
        N samples of electric demand, kW, on the same grid as dist.
    theta0 : float
        Initial zone temperature, degC.

    Returns
    -------
    Trajectory
        N+1 temperature samples (degC): theta0 followed by the state after
        each step.  Exact for piecewise-constant inputs.
    """
    _check_grid("demand", p, len(dist), dist.dt)
    a = decay_factor(params, dist.dt)
    # quasi-steady temperature for each step's frozen inputs
    theta_qs = dist.theta_a + params.r_thermal * (
        dist.q_d - params.eta_cop * p.values
    )
    out, th = [theta0], theta0
    for qs in theta_qs.tolist():  # Python floats step as numpy's scalars do, only faster
        th = qs + (th - qs) * a
        out.append(th)
    return Trajectory(dist.dt, out)


def tf_magnitude(params: ThermalParams, omega: float) -> float:
    """|G(j*omega)|: degC of temperature swing per kW of demand swing.

    omega is in rad/h.  At omega = 0 this is the DC gain R*eta_cop.
    """
    require_nonnegative("omega", omega)
    rc = params.time_constant_h
    return (params.eta_cop / params.c_thermal) / math.hypot(omega, 1.0 / rc)


def max_sine_amplitude(
    params: ThermalParams, delta_theta: float, omega: float
) -> float:
    """Largest sinusoidal demand amplitude keeping |theta deviation| <= delta_theta.

    Steady state only; the value delta_theta / |G(j*omega)| grows without
    bound as omega increases, which is what makes a fixed quasi-steady power
    envelope conservative at short time scales.
    """
    require_positive("delta_theta", delta_theta)
    return delta_theta / tf_magnitude(params, omega)


@dataclass(frozen=True, eq=False)
class BaselineResult:
    """Baseline demand with clamp bookkeeping.

    power : Trajectory, kW, clamped to [0, p_rated]
    clamped_low / clamped_high : boolean masks, True where the unclamped
        equilibrium demand fell outside the physical range.
    """

    power: Trajectory
    clamped_low: np.ndarray
    clamped_high: np.ndarray

    def __post_init__(self) -> None:
        for name in ("clamped_low", "clamped_high"):
            _freeze(self, name, getattr(self, name), bool)

    @property
    def saturated(self) -> bool:
        return bool(self.clamped_low.any() or self.clamped_high.any())


def baseline_trajectory(
    params: ThermalParams, dist: DisturbanceSeries, theta_sp: float
) -> BaselineResult:
    """Per-sample equilibrium demand holding theta_sp, clamped to the rated range.

    Quasi-steady baseline: each sample is the equilibrium power for that
    sample's disturbances.  Negative equilibria (heating called for) clamp
    to zero and rated-power excesses clamp to p_rated; both are flagged so
    callers can tell the baseline no longer holds the setpoint there.
    """
    require_finite("theta_sp", theta_sp)
    raw = equilibrium_power(params, dist.theta_a, theta_sp, dist.q_d)
    return BaselineResult(
        power=Trajectory(dist.dt, np.clip(raw, 0.0, params.p_rated)),
        clamped_low=raw < 0.0,
        clamped_high=raw > params.p_rated,
    )


def steady_sine_amplitude(params: ThermalParams, amplitude_kw: float, omega: float) -> float:
    """Measured steady-state temperature swing under a sinusoidal demand deviation.

    Simulates theta for a demand deviation amplitude_kw*sin(omega*t) around
    an arbitrary operating point, discards the first
    _SINE_SETTLE_TIME_CONSTANTS*RC hours of transient, and recovers the
    amplitude from the RMS of an integer number of periods (exact for a
    sampled sinusoid).  Used to cross-check tf_magnitude at stated tolerances.
    """
    require_positive("omega", omega)
    per = _SINE_SAMPLES_PER_PERIOD
    dt = 2.0 * math.pi / omega / per
    settle_h = _SINE_SETTLE_TIME_CONSTANTS * params.time_constant_h
    n_settle = int(math.ceil(settle_h / dt / per)) * per
    n = n_settle + _SINE_PERIODS * per
    t = np.arange(n) * dt
    # operating point: theta_a = theta0 = 25, q_d = 0, so the baseline demand
    # is zero and theta - 25 is exactly the deviation response (linear model;
    # simulate does not restrict the sign of p)
    p_dev = amplitude_kw * np.sin(omega * t)
    dist = DisturbanceSeries.constant(dt, n, 25.0, 0.0)
    theta = simulate(params, dist, Trajectory(dt, p_dev), 25.0)
    tail = theta.values[1 + n_settle :] - 25.0
    tail = tail - tail.mean()
    return float(math.sqrt(2.0) * np.sqrt(np.mean(tail**2)))
