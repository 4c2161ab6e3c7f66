"""Moist-air enthalpy accounting for cooling-coil demand.

The zone thermal model tracks temperature only; this module quantifies what
that leaves out.  Chilled-water coils remove both sensible heat (dry-bulb
temperature drop) and latent heat (condensed moisture), and at typical
design states the two are comparable, so demand estimates built on dry-bulb
temperature alone undercount the coil load by roughly half.

Enthalpy of moist air per kg of dry air, kJ/kg:

    h(T, W) = cp_dry * T + W * (h_fg + cp_water * T)

with T in degC and W the humidity ratio in kg water per kg dry air.  The
constants are deliberately the round engineering values (1.0, 2256, 4.184)
rather than a high-order psychrometric fit.  An enthalpy, coil power or
electric demand that overflows is an InputError naming w, m_dot_kg_s or
eta_chiller, the input whose size made it overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, require_finite, require_nonnegative, require_positive

# dry-air and water specific heats, kJ/(kg K), and latent heat of
# vaporization, kJ/kg
CP_DRY, CP_WATER, H_FG = 1.0, 4.184, 2256.0


@dataclass(frozen=True)
class MoistAirState:
    """Dry-bulb temperature (degC) and humidity ratio (kg/kg dry air)."""

    t_c: float
    w: float

    def __post_init__(self) -> None:
        require_finite("t_c", self.t_c)
        if not -50.0 <= self.t_c <= 60.0:
            raise InputError(f"dry-bulb {self.t_c} degC outside [-50, 60]")
        require_nonnegative("w", self.w)


# design states, SI: 75 degF return/mixed air at W = 0.009 supplied as
# 55 degF conditioned air at W = 0.004
DESIGN_RETURN_AIR = MoistAirState(23.89, 0.009)
DESIGN_SUPPLY_AIR = MoistAirState(12.78, 0.004)


def _finite_result(value: float, name: str, held, what: str) -> float:
    if not math.isfinite(value):
        raise InputError(f"{name} {held:.6g} overflows the {what}")
    return value


def specific_enthalpy(state: MoistAirState) -> float:
    """kJ per kg dry air, zero reference at 0 degC dry air."""
    h = state.t_c * CP_DRY + state.w * (H_FG + CP_WATER * state.t_c)
    return _finite_result(h, "w", state.w, "specific enthalpy")


def mix_air(
    recirculated: MoistAirState, outdoor: MoistAirState, outdoor_fraction: float
) -> MoistAirState:
    """Adiabatic mixing of return and outdoor streams by dry-air mass.

    Mass and water balances make T and W mix linearly in the outdoor
    fraction (enthalpy is then linear too, up to the tiny W*T cross term
    the balance itself carries).
    """
    require_nonnegative("outdoor_fraction", outdoor_fraction)
    if outdoor_fraction > 1.0:
        raise InputError("outdoor_fraction must be within [0, 1]")
    f = outdoor_fraction
    return MoistAirState(
        t_c=(1.0 - f) * recirculated.t_c + f * outdoor.t_c,
        w=(1.0 - f) * recirculated.w + f * outdoor.w,
    )


def coil_thermal_power(
    m_dot_kg_s: float,
    state_in: MoistAirState,
    state_out: MoistAirState,
) -> float:
    """Heat removed by the coil, kW, for a dry-air mass flow in kg/s."""
    require_nonnegative("m_dot_kg_s", m_dot_kg_s)
    coil = m_dot_kg_s * (specific_enthalpy(state_in) - specific_enthalpy(state_out))
    return _finite_result(coil, "m_dot_kg_s", m_dot_kg_s, "coil thermal power")


def electric_demand(
    m_dot_kg_s: float,
    state_in: MoistAirState,
    state_out: MoistAirState,
    eta_chiller: float,
) -> float:
    """Chiller electric input, kW: coil thermal power over the chiller COP."""
    require_positive("eta_chiller", eta_chiller)
    demand = coil_thermal_power(m_dot_kg_s, state_in, state_out) / eta_chiller
    return _finite_result(demand, "eta_chiller", eta_chiller, "electric demand")


def latent_fraction(latent: float, sensible: float) -> float | None:
    """Latent share of a latent+sensible pair; None when the total is zero."""
    require_finite("latent", latent)
    require_finite("sensible", sensible)
    total = latent + sensible
    if total == 0.0:
        return None
    return latent / total


def latent_sensible_split(
    state_in: MoistAirState, state_out: MoistAirState
) -> tuple[float, float, float | None]:
    """(latent, sensible, latent fraction) of the coil duty, kJ/kg dry air.

    latent = h_fg * dW and sensible = cp_dry * dT; the small vapor-heat
    cross term W*cp_water*T belongs to neither bucket and is excluded from
    the fraction, which is why latent + sensible is slightly below the full
    enthalpy difference.
    """
    latent = H_FG * (state_in.w - state_out.w)
    sensible = CP_DRY * (state_in.t_c - state_out.t_c)
    return latent, sensible, latent_fraction(latent, sensible)


def dry_model_demand_error(state_in: MoistAirState, state_out: MoistAirState) -> float:
    """Signed relative error of a temperature-only demand estimate.

    A dry model prices the coil at cp_dry * dT per kg and misses both the
    latent duty and the vapor-heat term.  Returns (dry - full) / full, so a
    negative value is an underestimate; at the design states it is roughly
    -0.5, the headline reason humidity cannot be ignored when converting
    coil flexibility to kW.  Air flow and chiller COP scale dry and full
    alike, so the error depends on the two states alone.
    """
    full = specific_enthalpy(state_in) - specific_enthalpy(state_out)
    if full == 0.0:
        raise InputError("full coil power is zero; relative error undefined")
    dry = CP_DRY * (state_in.t_c - state_out.t_c)
    return (dry - full) / full
