"""Reference tracking: projection onto the feasible set under three norms."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import vesflex as vf
from conftest import DT, discrete_ride_energy, hot_day_scenario, make_params


def _ref(scn, values):
    return vf.Trajectory(scn.dt, values, unit="kW")


def test_input_to_state_map_matches_simulation(hot_day_2h):
    from vesflex.planner import input_to_state_map

    la, free = input_to_state_map(hot_day_2h)
    rng = np.random.default_rng(0)
    p = rng.uniform(0.0, hot_day_2h.params.p_rated, size=hot_day_2h.n_steps)
    theta_map = free - la @ p
    sim = vf.simulate(
        hot_day_2h.params, hot_day_2h.dist, _ref(hot_day_2h, p), hot_day_2h.theta0
    )
    assert np.max(np.abs(theta_map - sim.values[1:])) < 1e-12


def test_feasible_window(hot_day_2h):
    ok, idx = vf.feasible_window(hot_day_2h)
    assert ok
    assert idx == -1

    cooked = hot_day_scenario(horizon_h=2.0, theta_a=50.0, p_rated=1.0)
    ok, idx = vf.feasible_window(cooked)
    assert not ok
    assert idx >= 0


def test_plan_projects_feasible_reference_exactly(hot_day):
    base = hot_day.baseline().power.values
    ref = base.copy()
    ref[:60] += 0.2
    res = vf.plan(hot_day, _ref(hot_day, ref), norm="two")
    assert res.report.status == "optimal"
    assert res.tracking_error == pytest.approx(0.0, abs=1e-6)
    # one hour of +0.2 kW pushes theta down the first-order step response
    rc = hot_day.params.time_constant_h
    want = 24.0 - hot_day.params.dc_gain * 0.2 * (1.0 - math.exp(-1.0 / rc))
    assert res.theta.values[60] == pytest.approx(want, abs=1e-9)
    assert res.theta.values[60] == pytest.approx(23.525924418488888, rel=1e-12)


def test_plan_two_norm_saturates_then_holds(hot_day):
    base = hot_day.baseline().power.values
    res = vf.plan(hot_day, _ref(hot_day, base + 0.3), norm="two")
    assert res.tracking_error > 0.5
    ptil = res.p.values - base
    # after the temperature pins at the cold bound, the plan rides the
    # envelope hold level
    assert ptil[300] == pytest.approx(0.10554646683202273, abs=1e-4)
    assert res.theta.values[300] == pytest.approx(23.0, abs=1e-6)
    assert res.theta.values.min() > 23.0 - 1e-6
    assert vf.is_member(res.p, hot_day, atol=1e-6).ok


def test_plan_one_norm_matches_ride_energy(hot_day_2h):
    base = hot_day_2h.baseline().power.values
    c = 0.8
    res = vf.plan(hot_day_2h, _ref(hot_day_2h, base + c), norm="one")
    e_cap = discrete_ride_energy(hot_day_2h.params, 1.0, c, DT, hot_day_2h.n_steps)
    # the integrated shortfall is the requested energy minus the most the
    # band lets the building absorb
    assert res.tracking_error == pytest.approx(c * 2.0 - e_cap, abs=1e-7)


def test_plan_inf_norm_closed_form(hot_day_2h):
    base = hot_day_2h.baseline().power.values
    c = 0.8
    res = vf.plan(hot_day_2h, _ref(hot_day_2h, base + c), norm="inf")
    a = vf.decay_factor(hot_day_2h.params, DT)
    n = hot_day_2h.n_steps
    # best constant deviation d leaves theta exactly on the bound at the end
    d_max = 1.0 / (hot_day_2h.params.dc_gain * (1.0 - a**n))
    assert res.tracking_error == pytest.approx(c - d_max, rel=1e-7)
    assert res.theta.values[-1] == pytest.approx(23.0, abs=1e-6)


def test_plan_norm_validation(hot_day_2h):
    ref = _ref(hot_day_2h, hot_day_2h.baseline().power.values)
    with pytest.raises(vf.InputError):
        vf.plan(hot_day_2h, ref, norm="three")
    with pytest.raises(vf.ShapeError):
        vf.plan(hot_day_2h, vf.Trajectory(DT, np.zeros(7), unit="kW"))


def test_plan_infeasible_window_raises():
    cooked = hot_day_scenario(horizon_h=1.0, theta_a=50.0, p_rated=1.0)
    ref = _ref(cooked, np.full(cooked.n_steps, 0.5))
    with pytest.raises(vf.InfeasibleError):
        vf.plan(cooked, ref)


def test_plan_small_instance_beats_lattice():
    # five steps, 0.01 kW lattice over [0, 0.1] kW: exhaustive search cannot
    # find a better feasible two-norm objective than the solver's
    params = make_params(p_rated=0.1)
    bounds = vf.QoSBounds(theta_min=23.85, theta_max=25.0)
    dist = vf.DisturbanceSeries.constant(0.5, 5, theta_a=24.0, q_d=0.175)
    scn = vf.Scenario(params=params, bounds=bounds, dist=dist, theta_sp=24.0, theta0=24.0)
    base = scn.baseline().power.values
    assert base == pytest.approx(np.full(5, 0.05), rel=1e-12)
    ref_v = base + 0.08
    res = vf.plan(scn, _ref(scn, ref_v), norm="two")

    from vesflex.planner import input_to_state_map

    la, free = input_to_state_map(scn)
    grid = np.array(list(itertools.product(np.linspace(0.0, 0.1, 11), repeat=5)))
    theta = free - grid @ la.T
    feas = np.all((theta >= 23.85 - 1e-12) & (theta <= 25.0 + 1e-12), axis=1)
    err = np.sqrt(((grid - ref_v) ** 2).sum(axis=1) * 0.5)
    best = err[feas].min()
    assert res.tracking_error <= best + 1e-7
    assert abs(res.tracking_error - best) < 0.01  # within lattice resolution


def test_tracking_error_hand_values():
    p = np.array([2.0, 0.0, 3.0])
    ref = np.array([1.0, 1.0, 1.0])
    assert vf.tracking_error(p, ref, 0.5, "two") == pytest.approx(math.sqrt(3.0))
    assert vf.tracking_error(p, ref, 0.5, "one") == pytest.approx(2.0)
    assert vf.tracking_error(p, ref, 0.5, "inf") == pytest.approx(2.0)
    with pytest.raises(vf.InputError):
        vf.tracking_error(p, ref, 0.5, "zero")


def test_receding_horizon_full_window_equals_one_shot(hot_day_2h):
    base = hot_day_2h.baseline().power.values
    ref = base.copy()
    ref[:30] += 0.2
    n = hot_day_2h.n_steps
    one_shot = vf.plan(hot_day_2h, _ref(hot_day_2h, ref), norm="two")
    rolled = vf.receding_horizon(
        hot_day_2h, _ref(hot_day_2h, ref), window_steps=n, norm="two", apply_steps=n
    )
    assert rolled.n_solves == 1
    assert np.array_equal(rolled.p.values, one_shot.p.values)


def test_receding_horizon_one_step_matches_one_shot_on_feasible_ref(hot_day_2h):
    base = hot_day_2h.baseline().power.values
    ref = base.copy()
    ref[:30] += 0.2
    one_shot = vf.plan(hot_day_2h, _ref(hot_day_2h, ref), norm="two")
    rolled = vf.receding_horizon(hot_day_2h, _ref(hot_day_2h, ref), window_steps=60)
    assert rolled.n_solves == hot_day_2h.n_steps
    assert np.max(np.abs(rolled.p.values - one_shot.p.values)) < 1e-6
    assert rolled.tracking_error == pytest.approx(0.0, abs=1e-6)
    assert vf.is_member(rolled.p, hot_day_2h, atol=1e-6).ok


def test_receding_horizon_validation(hot_day_2h):
    ref = _ref(hot_day_2h, hot_day_2h.baseline().power.values)
    with pytest.raises(vf.InputError):
        vf.receding_horizon(hot_day_2h, ref, window_steps=0)
    with pytest.raises(vf.InputError):
        vf.receding_horizon(hot_day_2h, ref, window_steps=10, apply_steps=11)


def _late_warm_floor(horizon_h=0.5):
    # the floor rises to 23.6 C two thirds in; a +0.6 kW reference alone
    # would cool the zone to about 23.5 C by then
    scn = hot_day_scenario(horizon_h=horizon_h)
    n = scn.n_steps
    lo_t = np.full(n + 1, 23.0)
    lo_t[2 * n // 3 :] = 23.6
    bounds = vf.QoSBounds(23.0, 25.0, theta_min_t=lo_t, theta_max_t=np.full(n + 1, 25.0))
    scn = dataclasses.replace(scn, bounds=bounds)
    return scn, _ref(scn, scn.baseline().power.values + 0.6)


def test_receding_horizon_per_sample_bounds():
    scn, ref = _late_warm_floor()
    free = vf.simulate(scn.params, scn.dist, ref, scn.theta0)
    assert not vf.satisfies(vf.QoSSignal(theta=free), scn.bounds).ok
    one_shot = vf.plan(scn, ref)
    rolled = vf.receding_horizon(scn, ref, window_steps=10)
    assert rolled.n_solves == scn.n_steps
    assert vf.is_member(rolled.p, scn, atol=1e-6).ok
    assert rolled.tracking_error >= one_shot.tracking_error - 1e-9


def test_receding_horizon_full_window_is_plan_bit_for_bit():
    scn, ref = _late_warm_floor()
    n = scn.n_steps
    for norm in vf.NORMS:
        one_shot = vf.plan(scn, ref, norm=norm)
        rolled = vf.receding_horizon(scn, ref, window_steps=n, norm=norm, apply_steps=n)
        assert np.array_equal(rolled.p.values, one_shot.p.values)
        assert np.array_equal(rolled.theta.values, one_shot.theta.values)
        assert rolled.tracking_error == one_shot.tracking_error


_GRAZE = vf.Verdict(ok=False, channel="theta", first_violation_index=3, value=22.9, limit=23.0)


def test_failed_plan_audit_raises(monkeypatch, hot_day_2h):
    import vesflex.planner as planner

    monkeypatch.setattr(planner, "satisfies", lambda sig, bounds, atol: _GRAZE)
    ref = _ref(hot_day_2h, hot_day_2h.baseline().power.values)
    for norm in vf.NORMS:
        with pytest.raises(vf.SolverError, match="sample 3"):
            vf.plan(hot_day_2h, ref, norm=norm)


def test_failed_rolling_audit_raises(monkeypatch, hot_day_2h):
    import vesflex.planner as planner

    n = hot_day_2h.n_steps
    real = planner.satisfies

    def full_horizon_fails(sig, bounds, atol):
        # every window's plan passes; only the stitched check fails
        return _GRAZE if len(sig.theta) == n + 1 else real(sig, bounds, atol)

    monkeypatch.setattr(planner, "satisfies", full_horizon_fails)
    ref = _ref(hot_day_2h, hot_day_2h.baseline().power.values)
    with pytest.raises(vf.SolverError, match="sample 3"):
        vf.receding_horizon(hot_day_2h, ref, window_steps=40, apply_steps=20)


def test_audit_tolerance_is_ten_solver_tolerances(monkeypatch, hot_day_2h):
    import vesflex.planner as planner

    seen = []
    real = planner.satisfies

    def spy(sig, bounds, atol):
        seen.append(atol)
        return real(sig, bounds, atol=atol)

    monkeypatch.setattr(planner, "satisfies", spy)
    ref = _ref(hot_day_2h, hot_day_2h.baseline().power.values)
    vf.plan(hot_day_2h, ref, tol=1e-8)
    assert seen == [1e-7]
