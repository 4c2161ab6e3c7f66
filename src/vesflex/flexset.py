"""Demand flexibility sets, their comfort contract and conservative power envelope.

The true flexibility set of a load is every demand trajectory that keeps
the zone inside its comfort band (QoSBounds) over the horizon; audit decides
membership by simulating the zone and judging it against the band, and its
Verdict names the first violation.  feasible_band gives, in O(n), the
per-sample band of temperatures some member passes through: a forward
reachable-interval pass and a backward viable-interval pass, exact because
the state is scalar and monotone.  A simpler object is the quasi-steady power envelope
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

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleError, InputError, PowerRangeError, ShapeError, SolverError, _freeze,
    require_count, require_finite, require_positive,
)
from .thermal import (
    MAX_GRID_STEPS,
    DisturbanceSeries,
    ThermalParams,
    Trajectory,
    _check_grid,
    baseline_trajectory,
    decay_factor,
    equilibrium_power,
    max_sine_amplitude,
    simulate,
)

# the one rounding slack, degC or kW, of every comparison with a comfort or power bound
_SLACK = 1e-9

# Most steps the recursion may remember, min(n_steps, 1 / (1 - a)): simulate and
# dynamics() round apart with it, on the paper zone by under 2e-11 C to 1e5, 3.2e-9 C at 1e7.
MAX_MEMORY_STEPS = 100_000


@dataclass(frozen=True, eq=False)
class QoSBounds:
    """Closed-interval comfort band, degC.

    Each side is a finite float, the limit at every sample, or a 1-D array
    of per-sample limits, held as a read-only copy; lower below upper at
    every sample and two arrays of one length are checked here, and a
    Scenario of N steps checks that an array covers its N+1 samples.
    """

    theta_min: float | np.ndarray
    theta_max: float | np.ndarray

    def __post_init__(self) -> None:
        for name in ("theta_min", "theta_max"):
            if np.ndim(side := getattr(self, name)) == 0:
                require_finite(name, side)
            else:
                _freeze(self, name, side)
        lo, hi = self.theta_min, self.theta_max
        if np.ndim(lo) == np.ndim(hi) == 1 and lo.size != hi.size:
            raise ShapeError(f"theta_min has {lo.size} samples but theta_max has {hi.size}")
        if np.ndim(lo) == np.ndim(hi) == 0 and not lo < hi:
            raise InputError(f"theta_min {lo} must be below theta_max {hi}")
        if np.any(lo >= hi):
            raise InputError("per-sample bounds must satisfy lower < upper")


@dataclass(frozen=True)
class Verdict:
    """Outcome of a comfort audit: ok, or the earliest sample outside the
    band with its value and the limit it crossed."""

    ok: bool
    first_violation_index: int | None = None
    value: float | None = None
    limit: float | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, eq=False)
class Scenario:
    """One load, one disturbance record, one temperature comfort contract.

    A step so short that its decay rounds to 1, so that demand moves
    nothing, raises InputError, as do a memory of more than MAX_MEMORY_STEPS
    steps, a gain whose square overflows or underflows, a rated demand that
    moves theta less than 1e-6 C per step (demand read back from theta
    divides its rounding by the gain) and a disturbance whose forcing overflows.
    theta_sp and theta0 must lie in the band's hull [min theta_min, max
    theta_max].  A per-sample side covers the N+1 temperature samples
    theta_0..theta_N; its length is checked once, here.  The scenario holds
    that one limit grid and the one-step coefficients, read-only, and every
    analysis reads them off theta_limits() and dynamics().
    """

    params: ThermalParams
    bounds: QoSBounds
    dist: DisturbanceSeries
    theta_sp: float
    theta0: float

    def __post_init__(self) -> None:
        b, n = self.bounds, self.n_steps + 1
        lo, hi = (np.full(np.shape(side) or n, side) for side in (b.theta_min, b.theta_max))
        if lo.size != n or hi.size != n:
            raise ShapeError(f"per-sample temperature bounds sized {lo.size}/{hi.size} "
                             f"do not match {n} signal samples")
        lo, hi = _freeze(self, "_lo", lo), _freeze(self, "_hi", hi)
        _require_in_hull(lo, hi, theta_sp=self.theta_sp, theta0=self.theta0)
        par = self.params
        a = decay_factor(par, self.dt)
        if a == 1.0:
            raise InputError(f"dt {self.dt} h rounds one step's decay to 1 against "
                             f"the RC time constant {par.time_constant_h} h")
        if (memory := min(self.n_steps, 1.0 / (1.0 - a))) > MAX_MEMORY_STEPS:
            raise InputError(f"dt {self.dt} h over {self.n_steps} steps makes the recursion "
                             f"remember {memory:.6g} steps, more than {MAX_MEMORY_STEPS}")
        gain = (1.0 - a) * par.r_thermal * par.eta_cop
        if not math.isfinite(gain * gain):  # the two-norm plan weighs by 1 / gain**2
            raise InputError(f"eta_cop {par.eta_cop} makes one step's gain {gain:.6g} C/kW, "
                             "whose square overflows")
        if gain * gain < np.finfo(float).tiny:
            raise InputError(f"eta_cop {par.eta_cop} and dt {self.dt} h make one step's gain "
                             f"{gain:.6g} C/kW, whose square underflows")
        if gain * par.p_rated < 1e-6:
            raise InputError(f"eta_cop {par.eta_cop} and dt {self.dt} h let rated demand move "
                             f"theta {gain * par.p_rated:.6g} C per step, below 1e-6 C")
        object.__setattr__(self, "_step", (a, gain))
        ta, qd = self.dist.theta_a, self.dist.q_d
        with np.errstate(over="ignore"):  # refused by name below
            forcing = (1.0 - a) * (ta + par.r_thermal * qd)
        if not (finite := np.isfinite(forcing)).all():
            k = int(np.argmin(finite))
            raise InputError(f"theta_a[{k}] = {ta[k]:.6g} C and q_d[{k}] = {qd[k]:.6g} kW "
                             "overflow the one-step forcing")
        _freeze(self, "_forcing", forcing)

    @property
    def n_steps(self) -> int:
        return len(self.dist)

    @property
    def dt(self) -> float:
        return self.dist.dt

    def baseline(self):
        return baseline_trajectory(self.params, self.dist, self.theta_sp)

    def theta_limits(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample (lower, upper) temperature limits over samples 0..N."""
        return self._lo, self._hi

    def window(self, start: int, n_steps: int, theta0: float) -> "Scenario":
        """Steps [start, start + n_steps) as a scenario starting at theta0.

        The window slices this scenario's checked limit grid (n_steps + 1
        samples), forcing and disturbance, keeps its theta_sp, and judges
        only theta0, against the hull of its own band.
        """
        require_count("start", start)
        require_count("n_steps", n_steps, 1)
        dist = self.dist.slice(start, n_steps)
        keep = slice(start, start + n_steps + 1)
        _require_in_hull(lo := self._lo[keep], hi := self._hi[keep], theta0=theta0)
        b = self.bounds
        sides = (side if np.ndim(side) == 0 else side[keep] for side in (b.theta_min, b.theta_max))
        win = copy.copy(self)  # no second __post_init__: every part below is checked
        vars(win).update(bounds=QoSBounds(*sides), dist=dist, theta0=theta0, _lo=lo, _hi=hi,
                         _forcing=self._forcing[start : start + n_steps])
        return win

    def dynamics(self) -> tuple[float, float, np.ndarray]:
        """(a, gain, forcing) of the exact one-step recursion.

        theta_{k+1} = a*theta_k - gain*p_k + forcing[k]: zero-order-hold
        decay a, gain = (1-a) R eta_cop, forcing = (1-a)(theta_a + R q_d).
        """
        return (*self._step, self._forcing)

    def step_demand(self, theta_k: np.ndarray, theta_next: np.ndarray) -> np.ndarray:
        """Demand per step moving theta_k to theta_next: dynamics() inverted."""
        a, gain, forcing = self.dynamics()
        return (a * theta_k + forcing - theta_next) / gain


def _require_in_hull(lo: np.ndarray, hi: np.ndarray, **values) -> None:
    """InputError naming the field unless each value is finite and in [min lo, max hi]."""
    low, high = lo.min(), hi.max()
    for name, value in values.items():
        require_finite(name, value)
        if not low <= value <= high:
            raise InputError(f"{name} {value} outside comfort band [{low}, {high}]")


def _forward_reach(
    scn: Scenario, p_lo: np.ndarray, p_hi: np.ndarray
) -> tuple[list[float], list[float], int]:
    """Reachable temperature interval per sample, intersected with the band.

    Step k draws demand in [p_lo[k], p_hi[k]].  The next state is affine
    and monotone in both, so the reachable set stays an interval.  Returns
    (lo, hi, bad) over samples 0..N, sample 0 being theta0; bad is -1, or
    the sample where the interval empties, and the lists then stop before it.
    """
    a, gain, forcing = scn.dynamics()
    lo_t, hi_t = (b.tolist() for b in scn.theta_limits())
    drop_lo, drop_hi = (gain * p_lo).tolist(), (gain * p_hi).tolist()
    lo, hi = [scn.theta0], [scn.theta0]
    if not lo_t[0] <= scn.theta0 <= hi_t[0]:
        return [], [], 0
    for k, f in enumerate(forcing.tolist()):
        x_lo = max(a * lo[k] + f - drop_hi[k], lo_t[k + 1])
        x_hi = min(a * hi[k] + f - drop_lo[k], hi_t[k + 1])
        if x_lo > x_hi:
            return lo, hi, k + 1
        lo.append(x_lo)
        hi.append(x_hi)
    return lo, hi, -1


def _rated_box(scn: Scenario) -> tuple[np.ndarray, np.ndarray]:
    n = scn.n_steps
    return np.zeros(n), np.full(n, scn.params.p_rated)


def _viable(scn: Scenario, lo: list, hi: list, p_lo: np.ndarray, p_hi: np.ndarray):
    """Backward pass: cut the box's forward pass [lo[k], hi[k]], in place, to where
    the box's demand reaches k+1's cut; returns the box's band as arrays."""
    a, gain, forcing = scn.dynamics()
    f = forcing.tolist()
    rise_lo, rise_hi = (gain * p_lo).tolist(), (gain * p_hi).tolist()
    for k in range(scn.n_steps - 1, -1, -1):
        # preimage of the viable interval at k+1 (everything when a == 0);
        # it meets the reachable one in exact arithmetic, and the clamps
        # keep rounding from crossing the edges
        pre_lo = (lo[k + 1] - f[k] + rise_lo[k]) / a if a > 0.0 else -math.inf
        pre_hi = (hi[k + 1] - f[k] + rise_hi[k]) / a if a > 0.0 else math.inf
        lo[k] = min(max(lo[k], pre_lo), hi[k])
        hi[k] = max(min(hi[k], pre_hi), lo[k])
    return np.array(lo), np.array(hi)


def _reachable(scn: Scenario) -> tuple[Scenario, tuple[list, list]]:
    """The one answer to "can scn hold its comfort band?": scn and its rated forward
    pass (lo, hi), or, when that pass fails by rounding (theta0 within _SLACK
    of the viable start), scn from the nearest start 0, 1, 4, ... ulps clear of
    the viable edges that the pass holds, and that start's pass; InfeasibleError
    at the sample where scn's own pass empties when none holds."""
    lo, hi, bad = _forward_reach(scn, *(box := _rated_box(scn)))
    if bad < 0:
        return scn, (lo, hi)
    limits = (b.tolist() for b in scn.theta_limits())
    v_lo, v_hi = (float(v[0]) for v in _viable(scn, *limits, *box))
    for pad in [0.0] + [math.ulp(v_lo) * 4**i for i in range(8)]:
        start = min(max(scn.theta0, v_lo + pad), v_hi - pad)
        if abs(start - scn.theta0) > _SLACK:
            break
        lo, hi, miss = _forward_reach(moved := scn.window(0, scn.n_steps, start), *box)
        if miss < 0:
            return moved, (lo, hi)
    raise InfeasibleError(
        f"comfort band cannot be held at sample {bad} (t = {bad * scn.dt:.6g} h) "
        f"under any demand in [0, {scn.params.p_rated}] kW"
    )


def feasible_band(scn: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample band [lo_k, hi_k] of temperatures on feasible trajectories.

    theta_k is in the band when it is reachable from theta0 (forward pass)
    and some demand in [0, p_rated] continues from it inside the comfort
    band to the horizon (backward pass).  The edges are themselves the
    pointwise-lowest and pointwise-highest feasible trajectories.  Returns
    N+1 samples from the start _reachable holds, or raises its error.
    """
    run, reach = _reachable(scn)
    return _viable(run, *reach, *_rated_box(run))


@dataclass(frozen=True, eq=False)
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
        require_positive("dt", self.dt)
        if _freeze(self, "p_lo", self.p_lo).size != _freeze(self, "p_hi", self.p_hi).size:
            raise ShapeError("p_lo and p_hi must be 1-D arrays of equal length")

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


def audit(p: Trajectory, scn: Scenario) -> tuple[Trajectory, Verdict]:
    """Simulate p under the scenario and judge the comfort contract.

    Returns the re-simulated temperature (N+1 samples) and its verdict on
    scn.theta_limits(), closed intervals, widened like the power range
    [0, p_rated] by the one rounding slack _SLACK = 1e-9 (degC, kW) that
    judges every answer, plans included.  Demand outside that range is not
    a comfort question; it raises PowerRangeError.
    """
    _check_grid("demand", p, scn.n_steps, scn.dt)
    if wrong := _power_range(p.values, scn.params.p_rated):
        raise PowerRangeError(wrong)
    theta = simulate(scn.params, scn.dist, p, scn.theta0)
    th, (lo, hi) = theta.values, scn.theta_limits()
    bad = (th < lo - _SLACK) | (th > hi + _SLACK)
    if not bad.any():
        return theta, Verdict(ok=True)
    i = int(np.argmax(bad))
    lim = lo[i] if th[i] < lo[i] else hi[i]
    return theta, Verdict(False, first_violation_index=i, value=float(th[i]), limit=float(lim))


def _power_range(p: np.ndarray, p_max: float) -> str:
    """Empty when p is in [0, p_max] within _SLACK, else its first sample out and by how much."""
    if not (out := (p < -_SLACK) | (p > p_max + _SLACK)).any():
        return ""
    k = int(np.argmax(out))
    excess = -p[k] if p[k] < 0.0 else p[k] - p_max
    return f"p[{k}] = {p[k]:.17g} kW outside [0, {p_max}] kW by {excess:.3g} kW"


def is_member(p: Trajectory, scn: Scenario) -> Verdict:
    """The verdict half of audit: does p keep the comfort contract?"""
    return audit(p, scn)[1]


def require_member(p: Trajectory, scn: Scenario, what: str) -> Trajectory:
    """audit for optimizer output: theta, or SolverError naming the violation."""
    theta, verdict = audit(p, scn)
    if not verdict.ok:
        raise SolverError(
            f"{what} leaves the comfort band at sample "
            f"{verdict.first_violation_index}: {verdict.value:.9g} degC "
            f"against limit {verdict.limit:.9g}"
        )
    return theta


def require_path(path: np.ndarray, scn: Scenario, what: str) -> tuple[Trajectory, Trajectory]:
    """Demand along path's N+1 temperatures, clipped into [0, p_rated], and its audited theta."""
    p = Trajectory(scn.dt, np.clip(scn.step_demand(path[:-1], path[1:]), 0.0, scn.params.p_rated))
    return p, require_member(p, scn, what)


def envelope(scn: Scenario) -> FlexEnvelope:
    """Quasi-steady power envelope clamped to the rated range.

    p_hi(t) is the demand holding theta at the lower temperature bound, p_lo(t)
    the demand holding the upper bound (more cooling power pushes the zone
    colder).  Step k is held against bound sample k+1, the temperature sample
    that step lands on, the pairing the planners and feasible_band use, so
    the envelope has N samples for the scenario's N+1 bound samples.  Both
    edges are clamped to [0, p_rated]; where the raw band lies entirely
    outside the rated range the offending side is left unclamped, so the
    stored band inverts and empty_mask flags it.
    """
    lo_t, hi_t = scn.theta_limits()
    par, dist = scn.params, scn.dist
    raw_hi = equilibrium_power(par, dist.theta_a, lo_t[1:], dist.q_d)
    raw_lo = equilibrium_power(par, dist.theta_a, hi_t[1:], dist.q_d)
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

    Only defined for constant disturbances and comfort bounds, with the
    setpoint strictly inside the comfort band.  For each omega (rad/h) the
    largest comfort-feasible amplitude delta_theta/|G(j omega)| is reported
    next to the envelope half-width: ratio >= 1 everywhere and is
    non-decreasing in omega until the rated-range clamp binds.
    """
    lo_t, hi_t = scn.theta_limits()
    if max(map(np.ptp, (scn.dist.theta_a, scn.dist.q_d, lo_t, hi_t))) > 1e-12:
        raise InputError("conservativeness curve requires constant disturbances and bounds")
    par = scn.params
    p_eq = equilibrium_power(
        par, float(scn.dist.theta_a[0]), scn.theta_sp, float(scn.dist.q_d[0])
    )
    if not 0.0 < p_eq < par.p_rated:
        raise InputError(
            f"baseline demand {p_eq:.4g} kW must lie strictly inside "
            f"(0, {par.p_rated}) kW"
        )
    delta = min(scn.theta_sp - lo_t[0], hi_t[0] - scn.theta_sp)
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
    env: FlexEnvelope, n_draws: int, rng: np.random.Generator
) -> list[Trajectory]:
    """Random demand trajectories drawn uniformly inside the envelope.

    Every draw is a member of the true flexibility set whenever theta0 is
    inside the comfort band, which makes this the workhorse of the property
    tests.  An envelope that is empty somewhere has no interior to draw
    from; that is an InputError, not an infeasibility verdict.  So are more
    than MAX_GRID_STEPS samples over all draws, refused before any is drawn.
    """
    require_count("n_draws", n_draws)
    if n_draws * len(env) > MAX_GRID_STEPS:
        raise InputError(f"n_draws {n_draws} of {len(env)} samples each is more than "
                         f"{MAX_GRID_STEPS} samples")
    if env.empty_mask.any():
        raise InputError("envelope is empty at some samples; nothing to draw")
    out = []
    for _ in range(n_draws):
        u = rng.uniform(size=len(env))
        vals = env.p_lo + u * (env.p_hi - env.p_lo)
        out.append(Trajectory(env.dt, vals))
    return out
