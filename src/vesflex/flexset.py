"""Demand flexibility sets and their conservative power envelope.

The true flexibility set of a load is every demand trajectory that keeps
QoS intact over the horizon; membership is decided by simulating the zone
and checking bounds.  feasible_band gives, in O(n), the per-sample band of
temperatures some member passes through: a forward reachable-interval pass
and a backward viable-interval pass, exact because the state is scalar and
monotone.  A simpler object is the quasi-steady power envelope
[p_lo(t), p_hi(t)]: p_hi holds the zone at the lower temperature bound in
steady state, p_lo at the upper bound.  Any trajectory that stays inside
the envelope (starting inside the comfort band) is feasible, because at a
temperature bound the drift always points back into the band.  The converse
fails badly at short time scales: a sinusoidal demand deviation of frequency
omega may exceed the envelope half-width by the factor

    |G(0)| / |G(j omega)| = sqrt(1 + (omega R C)^2)

and still respect comfort.  conservativeness_curve() quantifies that gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleError, InputError, PowerRangeError, ShapeError
from .qos import QoSBounds, QoSSignal, Verdict, satisfies
from .thermal import (
    DisturbanceSeries,
    ThermalParams,
    Trajectory,
    baseline_trajectory,
    decay_factor,
    equilibrium_power,
    max_sine_amplitude,
    simulate,
    tf_magnitude,
)


@dataclass(frozen=True)
class Scenario:
    """One load, one disturbance record, one temperature-only comfort contract.

    No analysis here simulates humidity or switching, so humidity and
    lockout bounds raise InputError instead of being silently dropped.
    """

    params: ThermalParams
    bounds: QoSBounds
    dist: DisturbanceSeries
    theta_sp: float
    theta0: float

    def __post_init__(self) -> None:
        if self.bounds.constrains_humidity or self.bounds.constrains_lockout:
            raise InputError(
                "this analysis enforces only the temperature band; drop the "
                "humidity (w_min/w_max) and lockout (tau_lock) bounds"
            )
        lo, hi = self.bounds.theta_min, self.bounds.theta_max
        if not lo <= self.theta_sp <= hi:
            raise InputError(
                f"theta_sp {self.theta_sp} outside comfort band [{lo}, {hi}]"
            )
        if not lo <= self.theta0 <= hi:
            raise InputError(
                f"theta0 {self.theta0} outside comfort band [{lo}, {hi}]"
            )

    @property
    def n_steps(self) -> int:
        return len(self.dist)

    @property
    def dt(self) -> float:
        return self.dist.dt

    def baseline(self):
        return baseline_trajectory(self.params, self.dist, self.theta_sp)

    def window(self, start: int, n_steps: int, theta0: float) -> "Scenario":
        """Steps [start, start + n_steps) as a scenario starting at theta0.

        Per-sample temperature bounds cover the N+1 temperature samples, so
        the window keeps n_steps + 1 of them.
        """
        b = self.bounds
        keep = slice(start, start + n_steps + 1)
        bounds = replace(
            b,
            theta_min_t=None if b.theta_min_t is None else b.theta_min_t[keep],
            theta_max_t=None if b.theta_max_t is None else b.theta_max_t[keep],
        )
        return replace(
            self, bounds=bounds, dist=self.dist.slice(start, n_steps), theta0=theta0
        )

    def dynamics(self) -> tuple[float, float, np.ndarray]:
        """(a, gain, forcing) of the exact one-step recursion.

        theta_{k+1} = a*theta_k - gain*p_k + forcing[k]: zero-order-hold
        decay a, gain = (1-a) R eta_cop, forcing = (1-a)(theta_a + R q_d).
        """
        par = self.params
        a = decay_factor(par, self.dt)
        gain = (1.0 - a) * par.r_thermal * par.eta_cop
        forcing = (1.0 - a) * (self.dist.theta_a + par.r_thermal * self.dist.q_d)
        return a, gain, forcing


def _forward_reach(scn: Scenario) -> tuple[list[float], list[float], int]:
    """Reachable temperature interval per sample, intersected with the band.

    The next state is affine and increasing in the current one, so the
    reachable set stays an interval.  Returns (lo, hi, bad) over samples
    0..N, sample 0 being theta0; bad is -1, or the sample where the
    interval empties, and the lists then stop before it.
    """
    a, gain, forcing = scn.dynamics()
    lo_t, hi_t = (b.tolist() for b in scn.bounds.theta_limits(scn.n_steps + 1))
    drop = gain * scn.params.p_rated
    lo, hi = [scn.theta0], [scn.theta0]
    if not lo_t[0] <= scn.theta0 <= hi_t[0]:
        return [], [], 0
    for k, f in enumerate(forcing.tolist()):
        x_lo = max(a * lo[k] + f - drop, lo_t[k + 1])
        x_hi = min(a * hi[k] + f, hi_t[k + 1])
        if x_lo > x_hi:
            return lo, hi, k + 1
        lo.append(x_lo)
        hi.append(x_hi)
    return lo, hi, -1


def feasible_window(scn: Scenario) -> tuple[bool, int]:
    """Exact feasibility of the window: the forward pass of feasible_band.

    Returns (feasible, first_bad_index); the index is the theta sample
    where the reachable interval first empties (0 when theta0 itself is
    outside that sample's band), or -1 when feasible.
    """
    bad = _forward_reach(scn)[2]
    return bad < 0, bad


def _unreachable(scn: Scenario, bad: int) -> InfeasibleError:
    """The error for a window whose reachable interval empties at sample bad."""
    return InfeasibleError(
        f"comfort band cannot be held at sample {bad} "
        f"(t = {bad * scn.dt:.6g} h) under any demand in "
        f"[0, {scn.params.p_rated}] kW"
    )


def feasible_band(scn: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample band [lo_k, hi_k] of temperatures on feasible trajectories.

    theta_k is in the band when it is reachable from theta0 (forward pass)
    and some demand in [0, p_rated] continues from it inside the comfort
    band to the horizon (backward pass).  The edges are themselves the
    pointwise-lowest and pointwise-highest feasible trajectories.  Returns
    N+1 samples; raises InfeasibleError when no trajectory exists.
    """
    lo, hi, bad = _forward_reach(scn)
    if bad >= 0:
        raise _unreachable(scn, bad)
    a, gain, forcing = scn.dynamics()
    drop = gain * scn.params.p_rated
    f = forcing.tolist()
    for k in range(scn.n_steps - 1, -1, -1):
        # preimage of the viable interval at k+1 (everything when a == 0);
        # it meets the reachable one in exact arithmetic, and the clamps
        # keep rounding from crossing the edges
        pre_lo = (lo[k + 1] - f[k]) / a if a > 0.0 else -math.inf
        pre_hi = (hi[k + 1] - f[k] + drop) / a if a > 0.0 else math.inf
        lo[k] = min(max(lo[k], pre_lo), hi[k])
        hi[k] = max(min(hi[k], pre_hi), lo[k])
    return np.array(lo), np.array(hi)


@dataclass(frozen=True)
class FlexEnvelope:
    """Per-sample demand band [p_lo, p_hi], kW, on the disturbance grid.

    Samples with p_lo > p_hi mean no quasi-steady demand can hold the zone
    inside the band there; the out-of-range side is kept unclipped so the
    inversion (and its magnitude) stays visible through empty_mask.
    """

    dt: float
    p_lo: np.ndarray
    p_hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.p_lo, dtype=float)
        hi = np.asarray(self.p_hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ShapeError("p_lo and p_hi must be 1-D arrays of equal length")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "p_lo", lo)
        object.__setattr__(self, "p_hi", hi)

    def __len__(self) -> int:
        return int(self.p_lo.size)

    @property
    def empty_mask(self) -> np.ndarray:
        return self.p_lo > self.p_hi

    @property
    def half_width(self) -> np.ndarray:
        return 0.5 * (self.p_hi - self.p_lo)

    def times(self) -> np.ndarray:
        return np.arange(len(self)) * self.dt

    def contains(self, p: Trajectory, atol: float = 0.0) -> bool:
        if len(p) != len(self):
            raise ShapeError(f"{len(p)} power samples vs {len(self)} envelope samples")
        return bool(
            np.all(p.values >= self.p_lo - atol)
            and np.all(p.values <= self.p_hi + atol)
        )


def is_member(p: Trajectory, scn: Scenario, atol: float = 1e-9) -> Verdict:
    """Simulate p under the scenario and check the comfort contract.

    Demand outside the physical range [0, p_rated] is not a QoS question;
    it raises PowerRangeError instead of returning a verdict.  atol is the
    slack granted to optimizer output on both the power range and the
    comfort bounds.
    """
    if len(p) != scn.n_steps:
        raise ShapeError(
            f"demand has {len(p)} samples but scenario has {scn.n_steps}"
        )
    pv = p.values
    if np.any(pv < -atol) or np.any(pv > scn.params.p_rated + atol):
        bad = int(np.argmax((pv < -atol) | (pv > scn.params.p_rated + atol)))
        raise PowerRangeError(
            f"p[{bad}] = {pv[bad]:.6g} kW outside [0, {scn.params.p_rated}] kW"
        )
    theta = simulate(scn.params, scn.dist, p, scn.theta0)
    return satisfies(QoSSignal(theta=theta), scn.bounds, atol=atol)


def envelope(scn: Scenario) -> FlexEnvelope:
    """Quasi-steady power envelope clamped to the rated range.

    p_hi(t) is the demand holding theta at the per-sample lower temperature
    bound, p_lo(t) the demand holding the upper bound (more cooling power
    pushes the zone colder).  Both are clamped to [0, p_rated]; where the
    raw band lies entirely outside the rated range the offending side is
    left unclamped, so the stored band inverts and empty_mask flags it.
    """
    lo_t, hi_t = scn.bounds.theta_limits(scn.n_steps)
    par, dist = scn.params, scn.dist
    raw_hi = equilibrium_power(par, dist.theta_a, lo_t, dist.q_d)
    raw_lo = equilibrium_power(par, dist.theta_a, hi_t, dist.q_d)
    # an inverted unclamped band is impossible (theta_min < theta_max), so
    # emptiness can only come from the rated-range clamp; keep the violating
    # side raw so the stored band inverts exactly there
    p_hi = np.where(raw_hi < 0.0, raw_hi, np.clip(raw_hi, 0.0, par.p_rated))
    p_lo = np.where(raw_lo > par.p_rated, raw_lo, np.clip(raw_lo, 0.0, par.p_rated))
    return FlexEnvelope(scn.dt, p_lo, p_hi)


@dataclass(frozen=True)
class ConservativenessPoint:
    """Envelope-vs-sinusoid comparison at one frequency.

    a_max_unclamped  : largest steady sinusoid amplitude the comfort band
                       admits, ignoring the rated range, kW
    a_max            : the same, clamped to the headroom min(p_rated - p_eq,
                       p_eq) so the demand stays physical, kW
    ratio            : a_max relative to the envelope half-width a_max(0)
    """

    omega: float
    a_max_unclamped: float
    a_max: float
    ratio: float


def conservativeness_curve(
    scn: Scenario, omegas: "list[float] | np.ndarray"
) -> list[ConservativenessPoint]:
    """How much sinusoidal flexibility the quasi-steady envelope gives away.

    Only defined for a time-invariant scenario (constant disturbances) with
    the setpoint strictly inside the comfort band.  For each omega (rad/h)
    the largest comfort-feasible amplitude delta_theta/|G(j omega)| is
    reported next to the envelope half-width: ratio >= 1 everywhere and is
    non-decreasing in omega until the rated-range clamp binds.
    """
    if not scn.dist.is_constant(tol=1e-12):
        raise InputError("conservativeness curve requires constant disturbances")
    par = scn.params
    p_eq = equilibrium_power(
        par, float(scn.dist.theta_a[0]), scn.theta_sp, float(scn.dist.q_d[0])
    )
    if not 0.0 < p_eq < par.p_rated:
        raise InputError(
            f"baseline demand {p_eq:.4g} kW must lie strictly inside "
            f"(0, {par.p_rated}) kW"
        )
    delta_dn = scn.theta_sp - scn.bounds.theta_min
    delta_up = scn.bounds.theta_max - scn.theta_sp
    delta = min(delta_dn, delta_up)
    if delta <= 0:
        raise InputError("setpoint must be strictly inside the comfort band")
    headroom = min(par.p_rated - p_eq, p_eq)
    a0 = max_sine_amplitude(par, delta, 0.0)
    out = []
    for omega in omegas:
        a_raw = max_sine_amplitude(par, delta, float(omega))
        a_clamped = min(a_raw, headroom)
        out.append(
            ConservativenessPoint(
                omega=float(omega),
                a_max_unclamped=a_raw,
                a_max=a_clamped,
                ratio=a_clamped / a0,
            )
        )
    return out


def sample_interior_trajectories(
    scn: Scenario, n_draws: int, rng: np.random.Generator
) -> list[Trajectory]:
    """Random demand trajectories drawn uniformly inside the envelope.

    Every draw is a member of the true flexibility set whenever theta0 is
    inside the comfort band, which makes this the workhorse of the property
    tests.  An envelope that is empty somewhere has no interior to draw
    from; that is an InputError, not an infeasibility verdict.
    """
    env = envelope(scn)
    if env.empty_mask.any():
        raise InputError("envelope is empty at some samples; nothing to draw")
    out = []
    for _ in range(n_draws):
        u = rng.uniform(size=scn.n_steps)
        vals = env.p_lo + u * (env.p_hi - env.p_lo)
        out.append(Trajectory(scn.dt, vals, unit="kW"))
    return out
