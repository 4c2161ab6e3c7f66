"""First-order thermal model: discretization, baselines, frequency response."""

import math

import numpy as np
import pytest

import vesflex as vf
from vesflex.csvio import write_csv
from conftest import DT, make_params


def test_derived_parameters(params):
    assert params.time_constant_h == pytest.approx(2.707 * 1.283, rel=1e-15)
    assert params.dc_gain == pytest.approx(2.707 * 3.5, rel=1e-15)


def test_params_validation():
    with pytest.raises(vf.InputError):
        vf.ThermalParams(r_thermal=-1.0, c_thermal=1.0, eta_cop=3.0, p_rated=1.0)
    with pytest.raises(vf.InputError):
        vf.ThermalParams(r_thermal=1.0, c_thermal=1.0, eta_cop=3.0, p_rated=0.0)


def test_decay_factor_matches_exponential(params):
    rc = params.time_constant_h
    assert vf.decay_factor(params, DT) == pytest.approx(math.exp(-DT / rc), rel=1e-15)
    assert vf.decay_factor(params, 0.5) < vf.decay_factor(params, 0.25)


def test_equilibrium_power_hand_value(params):
    # (q_d + (theta_a - theta_sp)/R) / eta with the reference numbers
    want = (1.5 + (32.0 - 24.0) / 2.707) / 3.5
    got = vf.equilibrium_power(params, theta_a=32.0, theta_sp=24.0, q_d=1.5)
    assert got == pytest.approx(want, rel=1e-15)
    assert got == pytest.approx(1.272943163227611, rel=1e-13)


def test_equilibrium_power_is_unclamped(params):
    # cold ambient, no internal gains: holding the setpoint would need
    # negative cooling, and the raw number must say so
    assert vf.equilibrium_power(params, theta_a=10.0, theta_sp=24.0, q_d=0.0) < 0


def test_simulate_fixed_point(params):
    n = 600
    dist = vf.DisturbanceSeries.constant(DT, n, theta_a=32.0, q_d=1.5)
    p_eq = vf.equilibrium_power(params, 32.0, 24.0, 1.5)
    p = vf.Trajectory(DT, np.full(n, p_eq))
    theta = vf.simulate(params, dist, p, theta0=24.0)
    assert len(theta) == n + 1
    assert theta.values[0] == 24.0
    assert np.max(np.abs(theta.values - 24.0)) < 1e-9


def test_simulate_step_response_closed_form(params):
    n = 300
    dist = vf.DisturbanceSeries.constant(DT, n, theta_a=32.0, q_d=1.5)
    p_eq = vf.equilibrium_power(params, 32.0, 24.0, 1.5)
    p = vf.Trajectory(DT, np.full(n, p_eq + 0.3))
    theta = vf.simulate(params, dist, p, theta0=24.0)
    rc = params.time_constant_h
    t = np.arange(n + 1) * DT
    want = 24.0 - params.dc_gain * 0.3 * (1.0 - np.exp(-t / rc))
    assert np.max(np.abs(theta.values - want)) < 1e-12


def test_simulate_zoh_exact_under_refinement(params):
    # exact discretization: halving dt reproduces the same states at the
    # shared grid points, bit-for-bit up to rounding
    n = 8
    coarse = vf.DisturbanceSeries.constant(0.5, n, theta_a=30.0, q_d=1.0)
    fine = vf.DisturbanceSeries.constant(0.25, 2 * n, theta_a=30.0, q_d=1.0)
    pc = vf.Trajectory(0.5, np.linspace(0.2, 1.1, n))
    pf = vf.Trajectory(0.25, np.repeat(pc.values, 2))
    tc = vf.simulate(params, coarse, pc, theta0=24.0)
    tf = vf.simulate(params, fine, pf, theta0=24.0)
    assert np.max(np.abs(tc.values - tf.values[::2])) < 1e-12


def test_simulate_shape_mismatch(params):
    dist = vf.DisturbanceSeries.constant(DT, 10, theta_a=30.0, q_d=1.0)
    p = vf.Trajectory(DT, np.zeros(9))
    with pytest.raises(vf.ShapeError):
        vf.simulate(params, dist, p, theta0=24.0)
    p_wrong_dt = vf.Trajectory(0.25, np.zeros(10))
    with pytest.raises(vf.ShapeError):
        vf.simulate(params, dist, p_wrong_dt, theta0=24.0)


def test_tf_magnitude_limits(params):
    assert vf.tf_magnitude(params, 0.0) == pytest.approx(params.dc_gain, rel=1e-15)
    # far above the corner the response rolls off as eta / (C * omega)
    w = 1e4
    assert vf.tf_magnitude(params, w) == pytest.approx(
        params.eta_cop / (params.c_thermal * w), rel=1e-6
    )
    mags = [vf.tf_magnitude(params, w) for w in (0.0, 0.5, 1.0, 5.0, 50.0)]
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_max_sine_amplitude_values(params):
    assert vf.max_sine_amplitude(params, 1.0, 0.0) == pytest.approx(
        1.0 / params.dc_gain, rel=1e-14
    )
    got = vf.max_sine_amplitude(params, 1.0, 2.0 * math.pi)
    assert got == pytest.approx(2.305653294467407, rel=1e-12)
    # scales linearly with the allowed temperature swing
    assert vf.max_sine_amplitude(params, 2.0, 2.0 * math.pi) == pytest.approx(
        2.0 * got, rel=1e-14
    )


def test_steady_sine_amplitude_tracks_transfer_function(params):
    w = 2.0 * math.pi
    meas = vf.steady_sine_amplitude(params, 0.3, w)
    pred = 0.3 * vf.tf_magnitude(params, w)
    assert meas == pytest.approx(pred, rel=5e-3)
    assert meas == pytest.approx(0.1301, abs=1e-3)


def test_baseline_two_level_weather(params):
    dist = vf.DisturbanceSeries(1.0, np.array([30.0, 34.0]), np.array([1.0, 1.0]))
    base = vf.baseline_trajectory(params, dist, theta_sp=24.0)
    want = np.array([(1.0 + 6.0 / 2.707) / 3.5, (1.0 + 10.0 / 2.707) / 3.5])
    assert np.allclose(base.power.values, want, rtol=1e-14)
    assert not base.saturated
    assert not base.clamped_low.any()
    assert not base.clamped_high.any()


def test_baseline_clamps_and_reports(params):
    hot = vf.DisturbanceSeries.constant(0.5, 4, theta_a=60.0, q_d=3.0)
    base = vf.baseline_trajectory(params, hot, theta_sp=24.0)
    assert np.all(base.power.values == params.p_rated)
    assert base.clamped_high.all()
    assert base.saturated

    cold = vf.DisturbanceSeries.constant(0.5, 4, theta_a=10.0, q_d=0.0)
    base = vf.baseline_trajectory(params, cold, theta_sp=24.0)
    assert np.all(base.power.values == 0.0)
    assert base.clamped_low.all()


def test_disturbance_series_helpers(tmp_path):
    d = vf.DisturbanceSeries.constant(0.25, 8, theta_a=31.0, q_d=0.7)
    assert d.horizon_h == pytest.approx(2.0)
    assert np.ptp(d.theta_a) == np.ptp(d.q_d) == 0.0
    assert len(d) == 8
    sl = d.slice(2, 3)
    assert len(sl.theta_a) == 3 and sl.dt == 0.25

    path = tmp_path / "weather.csv"
    write_csv(str(path), ["t_hours", "theta_a_C", "q_d_kW"],
              [np.arange(len(d)) * d.dt, d.theta_a, d.q_d])
    back = vf.DisturbanceSeries.from_csv(str(path))
    assert np.array_equal(back.theta_a, d.theta_a)
    assert np.array_equal(back.q_d, d.q_d)
    assert back.dt == pytest.approx(d.dt, rel=1e-12)


def test_trajectory_validation():
    with pytest.raises(vf.InputError):
        vf.Trajectory(0.0, np.zeros(3))
    with pytest.raises(vf.InputError):
        vf.Trajectory(0.5, np.zeros((2, 2)))
    tr = vf.Trajectory(0.5, np.arange(4, dtype=float))
    assert np.allclose(tr.times(), [0.0, 0.5, 1.0, 1.5])
    with pytest.raises(TypeError):  # the unit tag nothing read is gone
        vf.Trajectory(0.5, np.zeros(3), unit="kW")


def test_grid_steps_refuses_a_horizon_past_the_cap():
    # counts only: no grid near the cap is ever allocated
    from vesflex.thermal import MAX_GRID_STEPS, grid_steps

    assert grid_steps(float(MAX_GRID_STEPS), 1.0) == MAX_GRID_STEPS
    msg = r"horizon 1e\+07 h at 1 h steps is more than 10000000 steps"
    with pytest.raises(vf.InputError, match=msg):
        grid_steps(float(MAX_GRID_STEPS + 1), 1.0)
