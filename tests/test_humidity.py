"""Moist-air accounting: enthalpy, coil duty, latent/sensible split."""

import pytest

import vesflex as vf
from vesflex.humidity import DESIGN_RETURN_AIR, DESIGN_SUPPLY_AIR


def test_design_states():
    assert DESIGN_RETURN_AIR.t_c == pytest.approx(23.89)
    assert DESIGN_RETURN_AIR.w == pytest.approx(0.009)
    assert DESIGN_SUPPLY_AIR.t_c == pytest.approx(12.78)
    assert DESIGN_SUPPLY_AIR.w == pytest.approx(0.004)


def test_state_validation():
    with pytest.raises(vf.InputError):
        vf.MoistAirState(t_c=25.0, w=-0.001)
    with pytest.raises(vf.InputError):
        vf.MoistAirState(t_c=-60.0, w=0.005)


def test_specific_enthalpy_hand_values():
    # h = cp_dry*T + W*(h_fg + cp_water*T), kJ per kg dry air
    h_ra = vf.specific_enthalpy(DESIGN_RETURN_AIR)
    want = 23.89 + 0.009 * (2256.0 + 4.184 * 23.89)
    assert h_ra == pytest.approx(want, rel=1e-14)
    assert h_ra == pytest.approx(45.09360184, rel=1e-12)
    assert vf.specific_enthalpy(DESIGN_SUPPLY_AIR) == pytest.approx(22.01788608, rel=1e-12)


def test_specific_enthalpy_dry_air_is_sensible_only():
    assert vf.specific_enthalpy(vf.MoistAirState(t_c=20.0, w=0.0)) == pytest.approx(20.0)


def test_coil_thermal_power_design_point():
    q = vf.coil_thermal_power(1.0, DESIGN_RETURN_AIR, DESIGN_SUPPLY_AIR)
    assert q == pytest.approx(23.075715759999998, rel=1e-12)
    assert vf.coil_thermal_power(2.0, DESIGN_RETURN_AIR, DESIGN_SUPPLY_AIR) == pytest.approx(
        2.0 * q, rel=1e-14
    )


def test_electric_demand_design_point():
    e = vf.electric_demand(1.0, DESIGN_RETURN_AIR, DESIGN_SUPPLY_AIR, eta_chiller=3.5)
    assert e == pytest.approx(6.593061645714285, rel=1e-12)
    with pytest.raises(vf.InputError):
        vf.electric_demand(1.0, DESIGN_RETURN_AIR, DESIGN_SUPPLY_AIR, eta_chiller=0.0)


def test_latent_sensible_split_design_point():
    lat, sens, frac = vf.latent_sensible_split(DESIGN_RETURN_AIR, DESIGN_SUPPLY_AIR)
    assert lat == pytest.approx(2256.0 * 0.005, rel=1e-12)
    assert sens == pytest.approx(23.89 - 12.78, rel=1e-12)
    assert frac == pytest.approx(0.5037963376507368, rel=1e-12)
    # the vapor-sensible cross term is deliberately excluded from the split,
    # so the parts need not add up to the full enthalpy difference
    dh = vf.specific_enthalpy(DESIGN_RETURN_AIR) - vf.specific_enthalpy(DESIGN_SUPPLY_AIR)
    assert lat + sens < dh


def test_latent_fraction_edge_cases():
    assert vf.latent_fraction(11.0, 20.0) == pytest.approx(0.3548387096774194, rel=1e-12)
    assert vf.latent_fraction(0.0, 5.0) == 0.0
    assert vf.latent_fraction(0.0, 0.0) is None


def test_dry_model_demand_error_design_point():
    err = vf.dry_model_demand_error(DESIGN_RETURN_AIR, DESIGN_SUPPLY_AIR)
    # ignoring moisture halves the predicted demand at the design point
    assert err == pytest.approx(-0.5185414781690827, rel=1e-12)
    assert err < -0.5


def test_dry_model_demand_error_needs_nonzero_duty():
    # 22.56 kJ/kg both: dry air at 22.56 degC and moist air at 0 degC
    dry, moist = vf.MoistAirState(t_c=22.56, w=0.0), vf.MoistAirState(t_c=0.0, w=0.01)
    with pytest.raises(vf.InputError, match="full coil power is zero"):
        vf.dry_model_demand_error(dry, moist)


def test_mix_air_convex_combination():
    outdoor = vf.MoistAirState(t_c=32.0, w=0.02)
    mixed = vf.mix_air(DESIGN_RETURN_AIR, outdoor, outdoor_fraction=0.3)
    assert mixed.t_c == pytest.approx(26.323, rel=1e-12)
    assert mixed.w == pytest.approx(0.012299999999999998, rel=1e-12)

    assert vf.mix_air(DESIGN_RETURN_AIR, outdoor, 0.0) == DESIGN_RETURN_AIR
    assert vf.mix_air(DESIGN_RETURN_AIR, outdoor, 1.0) == outdoor
    with pytest.raises(vf.InputError):
        vf.mix_air(DESIGN_RETURN_AIR, outdoor, 1.2)



# the input at fault -> a call whose result it overflows
OVERFLOWS = {
    "w": lambda: vf.specific_enthalpy(vf.MoistAirState(24.0, 1e306)),
    "m_dot_kg_s": lambda: vf.coil_thermal_power(1e308, DESIGN_RETURN_AIR, DESIGN_SUPPLY_AIR),
    "eta_chiller": lambda: vf.electric_demand(1.0, DESIGN_RETURN_AIR, DESIGN_SUPPLY_AIR, 1e-308),
}


@pytest.mark.parametrize("name", OVERFLOWS)
def test_an_overflowing_result_is_refused_by_the_input_at_fault(name):
    # each once returned inf, which the CLI wrote to humidity.csv
    with pytest.raises(vf.InputError, match=f"^{name} \\S+ overflows the "):
        OVERFLOWS[name]()
