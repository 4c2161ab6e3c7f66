"""Virtual-battery characterization: rate and energy capacities via LP."""

import numpy as np
import pytest

import vesflex as vf
from conftest import DT, discrete_ride_energy, hot_day_scenario, make_params


def test_rate_capacities_reference_day(hot_day_2h):
    caps = vf.characterize(hot_day_2h)
    p_c, p_dc = caps.charge_rate_kw, caps.discharge_rate_kw
    p_eq = vf.equilibrium_power(hot_day_2h.params, 32.0, 24.0, 1.5)
    assert p_c == pytest.approx(hot_day_2h.params.p_rated - p_eq, abs=1e-9)
    assert p_c == pytest.approx(1.0, abs=1e-9)
    assert p_dc == pytest.approx(p_eq, abs=1e-9)


def test_rate_capacities_sweep_path_agrees(params, bounds):
    n = 30
    dist = vf.DisturbanceSeries.constant(DT, n, 32.0, 1.5)
    fast = vf.Scenario(params=params, bounds=bounds, dist=dist, theta_sp=24.0, theta0=24.0)
    pinned = vf.QoSBounds(
        theta_min=23.0, theta_max=25.0,
        theta_min_t=np.full(n + 1, 23.0), theta_max_t=np.full(n + 1, 25.0),
    )
    slow = vf.Scenario(params=params, bounds=pinned, dist=dist, theta_sp=24.0, theta0=24.0)
    fast_caps, slow_caps = vf.characterize(fast), vf.characterize(slow)
    assert fast_caps.charge_rate_kw == pytest.approx(slow_caps.charge_rate_kw, abs=1e-8)
    assert fast_caps.discharge_rate_kw == pytest.approx(slow_caps.discharge_rate_kw, abs=1e-8)


def test_rate_capacities_headroom_split():
    scn = hot_day_scenario(horizon_h=0.5, theta_a=27.38375, q_d=0.5, p_rated=1.5)
    caps = vf.characterize(scn)
    p_c, p_dc = caps.charge_rate_kw, caps.discharge_rate_kw
    assert p_c == pytest.approx(1.0, abs=1e-9)
    assert p_dc == pytest.approx(0.5, abs=1e-9)


def test_energy_capacities_match_ride_then_hold(hot_day_2h):
    caps = vf.characterize(hot_day_2h)
    e_c, e_dc = caps.charge_energy_kwh, caps.discharge_energy_kwh
    want = discrete_ride_energy(hot_day_2h.params, 1.0, 1.0, DT, hot_day_2h.n_steps)
    assert e_c == pytest.approx(want, abs=1e-8)
    assert e_c == pytest.approx(0.5575936422875042, abs=1e-8)
    assert e_dc == pytest.approx(0.56202715934910585, abs=1e-8)
    # discharge rides a larger deviation (down to zero power), so it banks
    # slightly more than charge over the same band
    assert e_dc > e_c


def test_characterize_bundle(hot_day_2h):
    caps = vf.characterize(hot_day_2h)
    assert caps.charge_rate_kw == pytest.approx(1.0, abs=1e-9)
    assert caps.discharge_rate_kw == pytest.approx(1.272943163227611, abs=1e-9)
    assert caps.charge_energy_kwh == pytest.approx(0.5575936422875042, abs=1e-8)
    assert caps.discharge_energy_kwh == pytest.approx(0.56202715934910585, abs=1e-8)


def test_characterize_computes_band_and_baseline_once(monkeypatch):
    import vesflex.battery as battery
    import vesflex.flexset as flexset
    from test_reachability import random_scenario

    calls = {"band": 0, "baseline": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(battery, "feasible_band", counted(battery.feasible_band, "band"))
    monkeypatch.setattr(
        flexset, "baseline_trajectory", counted(flexset.baseline_trajectory, "baseline")
    )
    vf.characterize(random_scenario(3, 50))
    assert calls == {"band": 1, "baseline": 1}


def test_extremal_profiles_are_members_and_attain_capacity(hot_day_2h):
    charge, discharge = vf.extremal_profiles(hot_day_2h)
    base = hot_day_2h.baseline().power
    caps = vf.characterize(hot_day_2h)
    assert vf.is_member(charge, hot_day_2h).ok
    assert vf.is_member(discharge, hot_day_2h).ok
    # left-Riemann integral of the deviation from baseline over the horizon
    e_c = float(np.sum(charge.values - base.values)) * charge.dt
    e_dc = float(np.sum(discharge.values - base.values)) * discharge.dt
    assert e_c == pytest.approx(caps.charge_energy_kwh, abs=1e-9)
    assert e_dc == pytest.approx(-caps.discharge_energy_kwh, abs=1e-9)


def test_symmetric_building_has_symmetric_capacities():
    scn = hot_day_scenario(horizon_h=1.0, theta_a=27.38375, q_d=0.5, p_rated=1.0)
    caps = vf.characterize(scn)
    assert caps.charge_rate_kw == pytest.approx(caps.discharge_rate_kw, abs=1e-9)
    assert caps.charge_energy_kwh == pytest.approx(caps.discharge_energy_kwh, rel=1e-8)


def test_saturated_baseline_leaves_no_charge_capacity():
    scn = hot_day_scenario(horizon_h=1.0, theta_a=36.0, p_rated=1.6)
    assert scn.baseline().saturated
    caps = vf.characterize(scn)
    assert caps.charge_rate_kw == pytest.approx(0.0, abs=1e-9)
    assert caps.charge_energy_kwh == pytest.approx(0.0, abs=1e-8)
    assert caps.discharge_rate_kw == pytest.approx(1.6, abs=1e-9)
    assert caps.discharge_energy_kwh > 0.1


def test_infeasible_band_raises():
    scn = hot_day_scenario(horizon_h=1.0, theta_a=50.0, p_rated=1.0)
    with pytest.raises(vf.InfeasibleError):
        vf.characterize(scn)


def test_bangbang_oracle_reference_point(params):
    e = vf.bangbang_energy_oracle(params, delta_theta=1.0, p_tilde_max=1.0, horizon_h=10.0)
    assert e == pytest.approx(1.4019719674696929, rel=1e-12)
    # independent reconstruction: ride time from the step response, then hold
    rc = params.time_constant_h
    lvl = params.dc_gain
    t1 = rc * np.log(lvl / (lvl - 1.0))
    want = 1.0 * t1 + (1.0 / lvl) * (10.0 - t1)
    assert e == pytest.approx(want, rel=1e-12)


def test_bangbang_oracle_limits(params):
    # monotone in horizon and in the allowed band
    assert vf.bangbang_energy_oracle(params, 1.0, 1.0, 4.0) < vf.bangbang_energy_oracle(
        params, 1.0, 1.0, 10.0
    )
    assert vf.bangbang_energy_oracle(params, 0.5, 1.0, 10.0) < vf.bangbang_energy_oracle(
        params, 1.0, 1.0, 10.0
    )
    # short horizon: the ride never ends, so energy is the full-rate integral
    e_short = vf.bangbang_energy_oracle(params, 1.0, 1.0, 0.1)
    assert e_short == pytest.approx(0.1, rel=1e-9)
    # wide band: pure ramp branch joins the ride-then-hold branch continuously
    lvl = params.dc_gain
    lo = vf.bangbang_energy_oracle(params, lvl - 1e-9, 1.0, 10.0)
    hi = vf.bangbang_energy_oracle(params, lvl + 1e-9, 1.0, 10.0)
    assert lo == pytest.approx(hi, abs=1e-6)
    # and capacity is always bounded by the rate-times-horizon budget
    assert hi <= 10.0


def test_lp_energy_tracks_oracle_as_grid_refines(params, bounds):
    # at dt = 1/60 the discrete optimum sits within 1e-4 kWh of the
    # continuous bang-bang value on a 2 h horizon
    n = 120
    dist = vf.DisturbanceSeries.constant(DT, n, 32.0, 1.5)
    scn = vf.Scenario(params=params, bounds=bounds, dist=dist, theta_sp=24.0, theta0=24.0)
    e_c = vf.characterize(scn).charge_energy_kwh
    cont = vf.bangbang_energy_oracle(params, 1.0, 1.0, 2.0)
    assert e_c == pytest.approx(cont, abs=1e-4)
