"""Deferrable-load contracts, and the gap between contract and comfort."""

import numpy as np
import pytest

import vesflex as vf
from conftest import DT, hot_day_scenario, make_params


def _traj(vals, dt=0.5):
    return vf.Trajectory(dt, np.asarray(vals, dtype=float))


def test_spec_validation():
    with pytest.raises(vf.InputError):
        vf.DeferrableSpec(arrival_h=-1.0, energy_kwh=1.0, window_h=1.0, p_max=1.0)
    with pytest.raises(vf.InputError):
        vf.DeferrableSpec(arrival_h=0.0, energy_kwh=-1.0, window_h=1.0, p_max=1.0)
    with pytest.raises(vf.InputError):
        vf.DeferrableSpec(arrival_h=0.0, energy_kwh=1.0, window_h=0.0, p_max=1.0)
    with pytest.raises(vf.InputError):
        vf.DeferrableSpec(arrival_h=0.0, energy_kwh=None, window_h=1.0, p_max=1.0)


def test_spec_feasible():
    assert vf.spec_feasible(vf.DeferrableSpec(0.0, 5.0, 10.0, 1.0))
    assert not vf.spec_feasible(vf.DeferrableSpec(0.0, 12.0, 10.0, 1.0))
    assert vf.spec_feasible(vf.DeferrableSpec(0.0, 10.0, 10.0, 1.0))  # exact fit


def test_idle_and_resume_inside_the_window_satisfies():
    spec = vf.DeferrableSpec(0.0, 2.0, 4.0, 1.0)
    assert vf.trajectory_satisfies(spec, _traj([0.5] * 8)).ok
    # 2 kWh in two separate runs: the load may pause inside the window
    assert vf.trajectory_satisfies(spec, _traj([1.0, 1.0, 0, 1.0, 1.0, 0, 0, 0])).ok


def test_front_loaded_profile_grid_aligned():
    spec = vf.DeferrableSpec(arrival_h=0.5, energy_kwh=0.9, window_h=1.0, p_max=1.2)
    p = vf.front_loaded_profile(spec, dt=0.25, n_steps=8)
    assert np.allclose(p.values, [0, 0, 1.2, 1.2, 1.2, 0, 0, 0])
    assert vf.trajectory_satisfies(spec, p).ok


def test_front_loaded_profile_partial_tail():
    spec = vf.DeferrableSpec(arrival_h=0.5, energy_kwh=0.8, window_h=1.0, p_max=1.2)
    p = vf.front_loaded_profile(spec, dt=0.25, n_steps=8)
    assert np.allclose(p.values, [0, 0, 1.2, 1.2, 0.8, 0, 0, 0])
    assert p.values.sum() * 0.25 == pytest.approx(0.8, abs=1e-12)
    assert vf.trajectory_satisfies(spec, p).ok


def test_front_loaded_profile_errors():
    bad = vf.DeferrableSpec(0.0, 12.0, 10.0, 1.0)
    with pytest.raises(vf.InfeasibleError, match=r"needs 12 kWh but P\*T allows only 10 kWh"):
        vf.front_loaded_profile(bad, dt=0.5, n_steps=40)
    tight = vf.DeferrableSpec(0.0, 2.0, 4.0, 1.0)
    with pytest.raises(vf.InputError):
        vf.front_loaded_profile(tight, dt=0.5, n_steps=2)
    # 5.5 kWh at 1 kW fits the floats' 5 + 1 samples but needs a sixth for its tail
    with pytest.raises(vf.InputError, match="need 6 samples to place the profile, grid has 5"):
        vf.front_loaded_profile(vf.DeferrableSpec(0.0, 5.5, 6.0, 1.0), dt=1.0, n_steps=5)
    # arriving mid-sample, the run starts at 1 h and ends at 2 h, past the 1.5 h deadline
    with pytest.raises(vf.InputError, match="would finish past the deadline"):
        vf.front_loaded_profile(vf.DeferrableSpec(0.5, 1.0, 1.0, 1.0), dt=1.0, n_steps=5)


def test_trajectory_rejections():
    spec = vf.DeferrableSpec(arrival_h=1.0, energy_kwh=1.0, window_h=2.0, p_max=1.0)
    over = vf.trajectory_satisfies(spec, _traj([0, 0, 1.5, 0.25, 0, 0, 0, 0]))
    assert not over.ok and "outside" in over.reason

    early = vf.trajectory_satisfies(spec, _traj([0.5, 0, 1.0, 1.0, 0, 0, 0, 0]))
    assert not early.ok and "before arrival" in early.reason

    late = vf.trajectory_satisfies(spec, _traj([0, 0, 0.5, 0.5, 0, 0, 1.0, 0]))
    assert not late.ok and "after deadline" in late.reason

    short = vf.trajectory_satisfies(spec, _traj([0, 0, 0.5, 0.5, 0, 0, 0, 0]))
    assert not short.ok and "contract requires" in short.reason


def test_the_power_range_is_judged_by_the_audits_slack():
    # the energy tolerance, 1e-6 kWh, once judged the power range as if in kW
    spec = vf.DeferrableSpec(0.0, 1.0, 1.0, 1.0)
    over = vf.trajectory_satisfies(spec, _traj([1 + 5e-7, 1 - 5e-7, 0, 0]))
    assert (over.ok, over.reason) == (
        False, "p[0] = 1.0000005000000001 kW outside [0, 1.0] kW by 5e-07 kW"
    )
    assert vf.trajectory_satisfies(spec, _traj([1 + 5e-10, 1 - 5e-10, 0, 0])).ok


def test_window_not_on_grid():
    # arrival 0.1 h, deadline 0.6 h, dt 0.2 h: straddling samples are charged
    # only for their in-window overlap
    spec = vf.DeferrableSpec(arrival_h=0.1, energy_kwh=0.4, window_h=0.5, p_max=1.0)
    ok = vf.trajectory_satisfies(spec, _traj([0, 1.0, 1.0, 0, 0], dt=0.2))
    assert ok.ok
    leaky = vf.trajectory_satisfies(spec, _traj([1.0, 1.0, 1.0, 0, 0], dt=0.2))
    assert not leaky.ok and "before arrival" in leaky.reason


def test_window_longer_than_profile_raises():
    spec = vf.DeferrableSpec(arrival_h=0.0, energy_kwh=1.0, window_h=10.0, p_max=1.0)
    with pytest.raises(vf.InputError):
        vf.trajectory_satisfies(spec, _traj([1.0, 1.0]))


def test_every_front_loaded_profile_fulfils_its_contract():
    # the path deferrable takes before it prints "contract: ok"
    rng = np.random.default_rng(24)
    placed = 0
    for _ in range(300):
        dt = float(rng.choice([1 / 60, 0.1, 0.25, 1.0]))
        arrival, window, p_max = rng.uniform(0, 3), rng.uniform(0.05, 6), rng.uniform(0.1, 5)
        energy = float(rng.choice([0.0, rng.uniform(0, 1) * p_max * window]))
        n = int(np.ceil((arrival + window) / dt)) + int(rng.integers(0, 5))
        spec = vf.DeferrableSpec(arrival, energy, window, p_max)
        try:
            p = vf.front_loaded_profile(spec, dt, n)
        except vf.InputError:
            continue
        verdict = vf.trajectory_satisfies(spec, p)
        assert verdict.ok, (spec, dt, n, verdict.reason)
        placed += 1
    assert placed >= 200


def test_baseline_energy_hot_day(params):
    e = vf.baseline_energy(params, 32.0, 24.0, 1.5, horizon_h=2.0, dt=DT)
    p_eq = vf.equilibrium_power(params, 32.0, 24.0, 1.5)
    assert e == pytest.approx(2.0 * p_eq, rel=1e-12)
    assert e == pytest.approx(2.5458863264552223, rel=1e-12)


def test_counterexample_hot_sizing_cold_day(params):
    e_hot = vf.baseline_energy(params, 32.0, 24.0, 1.5, horizon_h=2.0, dt=DT)
    spec = vf.DeferrableSpec(0.0, e_hot, 2.0, params.p_rated)
    cold = hot_day_scenario(horizon_h=2.0, theta_a=15.0, q_d=0.2)
    res = vf.counterexample_check(spec, cold)
    assert res.contract.ok
    assert not res.comfort.ok
    assert res.demonstrates_gap
    assert res.comfort.first_violation_index == 8
    assert res.comfort.value == pytest.approx(22.87035314616399, rel=1e-12)


def test_counterexample_correct_sizing_closes_gap(params):
    # contract sized on the same mild day it runs on, with the power cap at
    # the equilibrium level: greedy service reproduces the baseline
    p_eq = vf.equilibrium_power(params, 28.0, 24.0, 0.5)
    e = vf.baseline_energy(params, 28.0, 24.0, 0.5, horizon_h=2.0, dt=DT)
    spec = vf.DeferrableSpec(0.0, e, 2.0, p_eq)
    mild = hot_day_scenario(horizon_h=2.0, theta_a=28.0, q_d=0.5)
    res = vf.counterexample_check(spec, mild)
    assert res.contract.ok
    assert res.comfort.ok
    assert not res.demonstrates_gap


def test_counterexample_zero_energy(params):
    spec = vf.DeferrableSpec(0.0, 0.0, 2.0, 1.0)
    cold = hot_day_scenario(horizon_h=2.0, theta_a=15.0, q_d=0.2)
    res = vf.counterexample_check(spec, cold)
    assert res.contract.ok
    assert np.all(res.p.values == 0.0)
    # free-floating temperature on a cold day climbs or falls out of band
    # only as physics dictates; the verdict is reported either way
    assert isinstance(res.comfort.ok, bool)
