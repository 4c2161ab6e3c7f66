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

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ShapeError

# Default sampling step, hours.  One minute resolves the paper-scale RC time
# constant (about 3.5 h) by more than two orders of magnitude.
DEFAULT_DT_H = 1.0 / 60.0

# Uniform-grid tolerance for time stamps read from CSV, hours.
TIME_GRID_TOL_H = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=float))
    out.setflags(write=False)
    return out


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
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise InputError(f"{name} must be finite and positive, got {v!r}")

    @property
    def time_constant_h(self) -> float:
        """RC time constant in hours."""
        return self.r_thermal * self.c_thermal

    @property
    def dc_gain(self) -> float:
        """Steady temperature drop per kW of extra demand, degC/kW."""
        return self.r_thermal * self.eta_cop


@dataclass(frozen=True)
class Trajectory:
    """A uniformly sampled scalar signal.

    dt is the step in hours; values[k] is the sample at t = k*dt.  The unit
    tag is caller-supplied ("kW", "degC", ...) and only used for display.
    """

    dt: float
    values: np.ndarray
    unit: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise InputError(f"dt must be positive, got {self.dt!r}")
        v = _readonly(self.values)
        if v.ndim != 1 or v.size == 0:
            raise InputError("values must be a non-empty 1-D array")
        if not np.all(np.isfinite(v)):
            raise InputError("values must be finite")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.values.size)

    def times(self) -> np.ndarray:
        """Sample times in hours."""
        return np.arange(len(self)) * self.dt


@dataclass(frozen=True)
class DisturbanceSeries:
    """Ambient temperature and internal heat gain on a shared grid.

    theta_a in degC and q_d in kW thermal, both sampled every dt hours and
    held constant over each step (zero-order hold).
    """

    dt: float
    theta_a: np.ndarray
    q_d: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise InputError(f"dt must be positive, got {self.dt!r}")
        ta = _readonly(self.theta_a)
        qd = _readonly(self.q_d)
        if ta.ndim != 1 or qd.ndim != 1 or ta.size == 0:
            raise InputError("theta_a and q_d must be non-empty 1-D arrays")
        if ta.size != qd.size:
            raise ShapeError(
                f"theta_a has {ta.size} samples but q_d has {qd.size}"
            )
        if not (np.all(np.isfinite(ta)) and np.all(np.isfinite(qd))):
            raise InputError("disturbance samples must be finite")
        object.__setattr__(self, "theta_a", ta)
        object.__setattr__(self, "q_d", qd)

    def __len__(self) -> int:
        return int(self.theta_a.size)

    @property
    def horizon_h(self) -> float:
        return len(self) * self.dt

    def times(self) -> np.ndarray:
        return np.arange(len(self)) * self.dt

    def is_constant(self, tol: float = 0.0) -> bool:
        """True when both channels are constant to within tol."""
        return (
            float(np.ptp(self.theta_a)) <= tol and float(np.ptp(self.q_d)) <= tol
        )

    @classmethod
    def constant(
        cls, dt: float, n_steps: int, theta_a: float, q_d: float
    ) -> "DisturbanceSeries":
        if n_steps < 1:
            raise InputError("n_steps must be at least 1")
        return cls(dt, np.full(n_steps, theta_a), np.full(n_steps, q_d))

    def slice(self, start: int, n_steps: int) -> "DisturbanceSeries":
        if start < 0 or start + n_steps > len(self):
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
        """Read `t_hours,theta_a_C,q_d_kW` rows with a uniform time grid."""
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        if not rows or rows[0] != ["t_hours", "theta_a_C", "q_d_kW"]:
            raise InputError(
                f"{path}: expected header 't_hours,theta_a_C,q_d_kW'"
            )
        body = rows[1:]
        if len(body) < 2:
            raise InputError(f"{path}: need at least 2 samples")
        try:
            t = np.array([float(r[0]) for r in body])
            ta = np.array([float(r[1]) for r in body])
            qd = np.array([float(r[2]) for r in body])
        except (ValueError, IndexError) as exc:
            raise InputError(f"{path}: malformed row ({exc})") from exc
        dt = t[1] - t[0]
        if dt <= 0 or np.max(np.abs(np.diff(t) - dt)) > TIME_GRID_TOL_H:
            raise InputError(
                f"{path}: time stamps must be uniform within {TIME_GRID_TOL_H} h"
            )
        return cls(float(dt), ta, qd)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["t_hours", "theta_a_C", "q_d_kW"])
            for t, a, q in zip(self.times(), self.theta_a, self.q_d):
                w.writerow([f"{t:.17g}", f"{a:.17g}", f"{q:.17g}"])


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
    if abs(p.dt - dist.dt) > TIME_GRID_TOL_H:
        raise ShapeError(f"p.dt {p.dt} does not match disturbance dt {dist.dt}")
    if len(p) != len(dist):
        raise ShapeError(
            f"demand has {len(p)} samples but disturbance has {len(dist)}"
        )
    a = decay_factor(params, dist.dt)
    # quasi-steady temperature for each step's frozen inputs
    theta_qs = dist.theta_a + params.r_thermal * (
        dist.q_d - params.eta_cop * p.values
    )
    out = np.empty(len(dist) + 1)
    out[0] = theta0
    th = theta0
    for k in range(len(dist)):
        th = theta_qs[k] + (th - theta_qs[k]) * a
        out[k + 1] = th
    return Trajectory(dist.dt, out, unit="degC")


def tf_magnitude(params: ThermalParams, omega: float) -> float:
    """|G(j*omega)|: degC of temperature swing per kW of demand swing.

    omega is in rad/h.  At omega = 0 this is the DC gain R*eta_cop.
    """
    if omega < 0:
        raise InputError("omega must be non-negative")
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
    if delta_theta <= 0:
        raise InputError("delta_theta must be positive")
    return delta_theta / tf_magnitude(params, omega)


@dataclass(frozen=True)
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
        object.__setattr__(
            self, "clamped_low", np.asarray(self.clamped_low, dtype=bool)
        )
        object.__setattr__(
            self, "clamped_high", np.asarray(self.clamped_high, dtype=bool)
        )

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
    raw = equilibrium_power(params, dist.theta_a, theta_sp, dist.q_d)
    return BaselineResult(
        power=Trajectory(dist.dt, np.clip(raw, 0.0, params.p_rated), unit="kW"),
        clamped_low=raw < 0.0,
        clamped_high=raw > params.p_rated,
    )


def fahrenheit_to_celsius(t_f: float) -> float:
    """Plain unit conversion; all internal temperatures are degC."""
    return (t_f - 32.0) * 5.0 / 9.0


def steady_sine_amplitude(
    params: ThermalParams,
    amplitude_kw: float,
    omega: float,
    samples_per_period: int = 24,
    n_periods: int = 4,
    discard_time_constants: float = 5.0,
) -> float:
    """Measured steady-state temperature swing under a sinusoidal demand deviation.

    Simulates theta for a demand deviation amplitude_kw*sin(omega*t) around
    an arbitrary operating point, discards the first
    discard_time_constants*RC hours of transient, and recovers the amplitude
    from the RMS of an integer number of periods (exact for a sampled
    sinusoid).  Used to cross-check tf_magnitude at stated tolerances.
    """
    if omega <= 0:
        raise InputError("omega must be positive for an amplitude measurement")
    if samples_per_period < 4:
        raise InputError("need at least 4 samples per period")
    period_h = 2.0 * math.pi / omega
    dt = period_h / samples_per_period
    settle_h = discard_time_constants * params.time_constant_h
    n_settle = int(math.ceil(settle_h / dt / samples_per_period)) * samples_per_period
    n = n_settle + n_periods * samples_per_period
    t = np.arange(n) * dt
    # operating point: theta_a = theta0 = 25, q_d = 0, so the baseline demand
    # is zero and theta - 25 is exactly the deviation response (linear model;
    # simulate does not restrict the sign of p)
    p_dev = amplitude_kw * np.sin(omega * t)
    dist = DisturbanceSeries.constant(dt, n, 25.0, 0.0)
    theta = simulate(params, dist, Trajectory(dt, p_dev, unit="kW"), 25.0)
    tail = theta.values[1 + n_settle :] - 25.0
    # transient remnants decay as exp(-t/RC); with the default discard they
    # are below 1e-2 of the steady swing
    tail = tail - tail.mean()
    return float(math.sqrt(2.0) * np.sqrt(np.mean(tail**2)))
