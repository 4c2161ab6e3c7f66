"""Virtual-battery characterization of a comfort-constrained HVAC load.

Demand deviation from baseline mimics a battery terminal: consuming above
baseline pre-cools the zone, storing "coolth" (charging); consuming below
lets the stored margin drain back out (discharging).  Four numbers
summarize the analogy:

* charge / discharge rate, kW: the largest instantaneous deviation either
  way that some comfort-feasible trajectory attains;
* charge / discharge energy, kWh: the largest time-integrated deviation
  either way over the horizon.

All four are exact optima over trajectories of the one-step dynamics, read
off flexset.feasible_band with no optimizer.  Since gain * p_k =
a * theta_k + forcing_k - theta_{k+1}, the deviation energy telescopes to a
constant minus a positively weighted sum of temperatures, so the charge
optimum rides the band's lower edge and the discharge optimum its upper
edge.  For constant weather and constant bounds the optimal charging
strategy is bang-bang (slam to the deviation ceiling, then ride the
temperature bound), which gives the closed-form oracle
bangbang_energy_oracle used to cross-check the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import require_nonnegative, require_positive
from .flexset import Scenario, feasible_band, require_member
from .thermal import ThermalParams, Trajectory


@dataclass(frozen=True)
class VirtualBatteryCaps:
    """Rate (kW) and energy (kWh) capacities of the demand-deviation battery."""

    charge_rate_kw: float
    discharge_rate_kw: float
    charge_energy_kwh: float
    discharge_energy_kwh: float


def _profiles(
    scn: Scenario, lo: np.ndarray, hi: np.ndarray
) -> tuple[Trajectory, Trajectory]:
    out = []
    for edge, name in ((lo, "charge"), (hi, "discharge")):
        p = scn.step_demand(edge[:-1], edge[1:])
        traj = Trajectory(scn.dt, np.clip(p, 0.0, scn.params.p_rated))
        require_member(traj, scn, f"{name} profile")
        out.append(traj)
    return out[0], out[1]


def characterize(scn: Scenario) -> VirtualBatteryCaps:
    """All four capacities in one report, from one band and one baseline.

    Rates price preconditioning in: sample k scores the largest (smallest)
    demand stepping from some theta_k to some theta_{k+1} of the feasible
    band, and any such step extends to a whole feasible trajectory.
    Energies integrate the deviation of extremal_profiles.
    """
    lo, hi = feasible_band(scn)
    base = scn.baseline().power.values
    p_max = np.minimum(scn.params.p_rated, scn.step_demand(hi[:-1], lo[1:]))
    p_min = np.maximum(0.0, scn.step_demand(lo[:-1], hi[1:]))
    p_ch, p_dis = _profiles(scn, lo, hi)
    return VirtualBatteryCaps(
        float((p_max - base).max()),
        float((base - p_min).max()),
        float((p_ch.values - base).sum()) * scn.dt,
        float((base - p_dis.values).sum()) * scn.dt,
    )


def extremal_profiles(scn: Scenario) -> tuple[Trajectory, Trajectory]:
    """The energy-optimal demand trajectories for charging and discharging.

    Charging rides the lower edge of the feasible band and discharging the
    upper one; each is the unique argmax, as the energy is strictly
    monotone in every theta_k.  Both are re-simulated and audited before
    they are returned (SolverError on failure); characterize integrates
    them.
    """
    return _profiles(scn, *feasible_band(scn))


def bangbang_energy_oracle(
    params: ThermalParams,
    delta_theta: float,
    p_tilde_max: float,
    horizon_h: float,
) -> float:
    """Closed-form charge energy cap for constant weather, kWh.

    Deviate at p_tilde_max until the temperature deviation reaches
    delta_theta (in continuous time that takes

        t1 = R*C * ln(K / (K - delta_theta)),  K = R*eta_cop*p_tilde_max

    ), then hold the bound, which sustains deviation delta_theta/(R*eta_cop).
    If the bound is unreachable (delta_theta >= K) or the horizon ends
    first, the whole horizon runs at the ceiling.  By symmetry the same
    formula gives the discharge cap with that direction's delta_theta and
    deviation ceiling.
    """
    require_nonnegative("horizon_h", horizon_h)
    require_positive("p_tilde_max", p_tilde_max)
    require_nonnegative("delta_theta", delta_theta)
    k_gain = params.dc_gain * p_tilde_max
    if delta_theta >= k_gain:
        return p_tilde_max * horizon_h
    t1 = params.time_constant_h * math.log(k_gain / (k_gain - delta_theta))
    if t1 >= horizon_h:
        return p_tilde_max * horizon_h
    return p_tilde_max * t1 + (delta_theta / params.dc_gain) * (horizon_h - t1)
