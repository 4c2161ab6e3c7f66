"""Deferrable-load contracts and why they mis-describe HVAC.

A deferrable load is pinned down by four numbers: arrival time tau (h),
required energy E (kWh), completion window T (h) and power ceiling P (kW).
Any demand profile that stays in [0, P], consumes nothing outside
[tau, tau + T], and delivers exactly E by the deadline fulfils the
contract.  That abstraction fits batteries and water buckets; it fails for
HVAC because the energy a zone "needs" is not a fixed requirement but a
function of weather, and because comfort constrains the path, not just the
integral.  counterexample_check() builds the canonical demonstration: a
contract sized from a hot day's cooling energy, served greedily on a cold
day, is contract-perfect and comfort-breaking at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleError, InputError, require_count, require_nonnegative, require_positive,
)
from .flexset import Scenario, Verdict, is_member
from .thermal import (
    TIME_GRID_TOL_H, DisturbanceSeries, ThermalParams, Trajectory, baseline_trajectory,
    grid_steps,
)

ENERGY_ATOL_KWH = 1e-6


@dataclass(frozen=True)
class DeferrableSpec:
    """(tau, E, T, P) contract: the load may idle and resume freely inside the window."""

    arrival_h: float
    energy_kwh: float
    window_h: float
    p_max: float

    def __post_init__(self) -> None:
        require_nonnegative("arrival_h", self.arrival_h)
        require_nonnegative("energy_kwh", self.energy_kwh)
        require_positive("window_h", self.window_h)
        require_positive("p_max", self.p_max)

    @property
    def deadline_h(self) -> float:
        return self.arrival_h + self.window_h


def spec_feasible(spec: DeferrableSpec) -> bool:
    """Whether E can be delivered inside the window: E <= P * T."""
    return spec.energy_kwh <= spec.p_max * spec.window_h + ENERGY_ATOL_KWH


@dataclass(frozen=True)
class ContractVerdict:
    """Outcome of checking one profile against one contract."""

    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def _overlap_hours(k: np.ndarray, dt: float, lo: float, hi: float) -> np.ndarray:
    """Length of [k*dt, (k+1)*dt) intersected with [lo, hi), per sample."""
    left = np.maximum(k * dt, lo)
    right = np.minimum((k + 1) * dt, hi)
    return np.maximum(right - left, 0.0)


def trajectory_satisfies(spec: DeferrableSpec, p: Trajectory) -> ContractVerdict:
    """Check a piecewise-constant demand profile against the contract.

    Samples straddling the arrival or deadline are charged for exactly the
    energy they deliver inside/outside the window, so tau and tau + T need
    not sit on the sampling grid.  Power and energy are graded to within
    ENERGY_ATOL_KWH.
    """
    pv, tol = p.values, ENERGY_ATOL_KWH
    horizon = len(p) * p.dt
    if spec.deadline_h > horizon + TIME_GRID_TOL_H:
        raise InputError(
            f"profile covers {horizon:.6g} h but the window closes at "
            f"{spec.deadline_h:.6g} h"
        )
    if np.any(pv < -tol) or np.any(pv > spec.p_max + tol):
        bad = int(np.argmax((pv < -tol) | (pv > spec.p_max + tol)))
        return ContractVerdict(
            False, f"p[{bad}] = {pv[bad]:.6g} kW outside [0, {spec.p_max}] kW"
        )
    k = np.arange(len(p))
    e_before = float(pv @ _overlap_hours(k, p.dt, 0.0, spec.arrival_h))
    e_inside = float(pv @ _overlap_hours(k, p.dt, spec.arrival_h, spec.deadline_h))
    e_after = float(pv @ _overlap_hours(k, p.dt, spec.deadline_h, horizon))
    if e_before > tol:
        return ContractVerdict(
            False, f"{e_before:.6g} kWh consumed before arrival at {spec.arrival_h} h"
        )
    if e_after > tol:
        return ContractVerdict(
            False, f"{e_after:.6g} kWh consumed after deadline at {spec.deadline_h} h"
        )
    if abs(e_inside - spec.energy_kwh) > tol:
        return ContractVerdict(
            False,
            f"delivered {e_inside:.6g} kWh inside the window, "
            f"contract requires {spec.energy_kwh:.6g}",
        )
    return ContractVerdict(True, "contract fulfilled")


def front_loaded_profile(
    spec: DeferrableSpec, dt: float, n_steps: int
) -> Trajectory:
    """Greedy profile: run at the ceiling from arrival until E is delivered.

    The first sample fully inside the window starts the run; a partial-power
    final sample trims the total to exactly E.  Raises InfeasibleError when
    E exceeds P * T, and InputError when the grid cannot place the run.
    """
    require_positive("dt", dt)
    require_count("n_steps", n_steps, 1)
    if not spec_feasible(spec):
        raise InfeasibleError(
            f"contract needs {spec.energy_kwh:.6g} kWh but P*T allows only "
            f"{spec.p_max * spec.window_h:.6g} kWh"
        )
    # samples before the run, then at the ceiling: tested as floats, which may be inf
    wait, run = spec.arrival_h / dt - 1e-12, spec.energy_kwh / (spec.p_max * dt) + 1e-12
    if not wait + run <= n_steps + 1:
        raise InputError(f"arrival and run need more than the grid's {n_steps} samples")
    start, full = int(math.ceil(wait)), int(run)
    rem = spec.energy_kwh - full * spec.p_max * dt
    n_need = start + full + (1 if rem > ENERGY_ATOL_KWH else 0)
    if n_need > n_steps:
        raise InputError(
            f"need {n_need} samples to place the profile, grid has {n_steps}"
        )
    if n_need * dt > spec.deadline_h + 1e-12:
        raise InputError(
            "grid-aligned greedy run would finish past the deadline; "
            "refine dt or widen the window"
        )
    vals = np.zeros(n_steps)
    vals[start : start + full] = spec.p_max
    if rem > ENERGY_ATOL_KWH:
        vals[start + full] = rem / dt
    return Trajectory(dt, vals)


def baseline_energy(
    params: ThermalParams,
    theta_a: float,
    theta_sp: float,
    q_d: float,
    horizon_h: float,
    dt: float,
) -> float:
    """kWh the baseline controller consumes holding theta_sp, clamped to range.

    This is the number a deferrable abstraction would write into E when
    sizing the contract from one observed (or design) day.
    """
    dist = DisturbanceSeries.constant(dt, grid_steps(horizon_h, dt), theta_a=theta_a, q_d=q_d)
    base = baseline_trajectory(params, dist, theta_sp)
    return float(base.power.values.sum()) * dt


@dataclass(frozen=True)
class CounterexampleResult:
    """Contract-vs-comfort verdict pair for one profile on one scenario."""

    contract: ContractVerdict
    comfort: Verdict
    p: Trajectory

    @property
    def demonstrates_gap(self) -> bool:
        return bool(self.contract) and not bool(self.comfort)


def counterexample_check(spec: DeferrableSpec, scn: Scenario) -> CounterexampleResult:
    """Serve the contract greedily on the scenario and audit both contracts.

    The contract verdict never looks at temperature; the comfort verdict
    never looks at the deferrable terms.  When the spec was sized on a hot
    day and the scenario is a cold one, the result is contract ok, comfort
    violated: the deferrable abstraction has no way to say "this building
    no longer needs that energy".
    """
    p = front_loaded_profile(spec, scn.dt, scn.n_steps)
    contract = trajectory_satisfies(spec, p)
    comfort = is_member(p, scn)
    return CounterexampleResult(contract=contract, comfort=comfort, p=p)
