"""Feasible-set membership, the conservative power envelope, and its cost."""

import dataclasses
import math

import numpy as np
import pytest

import vesflex as vf
from conftest import DT, hot_day_scenario, make_params


def test_scenario_validation(params, bounds):
    dist = vf.DisturbanceSeries.constant(DT, 10, 32.0, 1.5)
    with pytest.raises(vf.InputError):
        vf.Scenario(params=params, bounds=bounds, dist=dist, theta_sp=26.0, theta0=24.0)
    with pytest.raises(vf.InputError):
        vf.Scenario(params=params, bounds=bounds, dist=dist, theta_sp=24.0, theta0=22.0)


def test_scenario_window(hot_day_2h):
    rolled = hot_day_2h.window(10, 20, 23.5)
    assert rolled.theta0 == 23.5
    assert rolled.n_steps == 20
    assert rolled.theta_sp == hot_day_2h.theta_sp
    assert np.array_equal(rolled.dist.theta_a, hot_day_2h.dist.theta_a[10:30])
    assert rolled.bounds == hot_day_2h.bounds

    # per-sample bounds cover the N+1 temperature samples, so a window of
    # n steps keeps n+1 of them, the last window ending on the final one
    n = hot_day_2h.n_steps
    lo_t = np.linspace(23.0, 23.5, n + 1)
    hi_t = np.linspace(25.0, 24.6, n + 1)
    timed = dataclasses.replace(
        hot_day_2h, bounds=vf.QoSBounds(23.0, 25.0, theta_min_t=lo_t, theta_max_t=hi_t)
    )
    lo, hi = timed.window(10, 20, 23.5).bounds.theta_limits(21)
    assert np.array_equal(lo, lo_t[10:31])
    assert np.array_equal(hi, hi_t[10:31])
    lo, hi = timed.window(n - 5, 5, 24.0).bounds.theta_limits(6)
    assert np.array_equal(lo, lo_t[-6:])
    assert np.array_equal(hi, hi_t[-6:])
    with pytest.raises(vf.ShapeError):
        timed.window(n - 5, 6, 24.0)
    with pytest.raises(vf.InputError):
        timed.window(0, 5, 26.0)


def test_envelope_half_width_constant_weather(hot_day):
    env = vf.envelope(hot_day)
    hw = env.half_width
    assert hw.shape == (hot_day.n_steps,)
    assert np.allclose(hw, 0.10554646683202273, rtol=1e-12)
    # band edges are the quasi-steady holds of the two comfort bounds
    p_hold_hi = vf.equilibrium_power(hot_day.params, 32.0, 23.0, 1.5)
    p_hold_lo = vf.equilibrium_power(hot_day.params, 32.0, 25.0, 1.5)
    assert np.allclose(env.p_hi, p_hold_hi, rtol=1e-14)
    assert np.allclose(env.p_lo, p_hold_lo, rtol=1e-14)
    assert not env.empty_mask.any()


def test_envelope_contains_baseline(hot_day):
    env = vf.envelope(hot_day)
    base = hot_day.baseline().power
    assert env.contains(base)
    bumped = vf.Trajectory(base.dt, base.values + 0.2, unit="kW")
    assert not env.contains(bumped)


def test_envelope_empty_when_band_unholdable():
    scn = hot_day_scenario(horizon_h=1.0, theta_a=60.0, q_d=3.0)
    env = vf.envelope(scn)
    assert env.empty_mask.all()
    # raw requirements are reported even where the envelope is empty
    assert np.all(env.p_lo > scn.params.p_rated)


@pytest.mark.parametrize("seed", range(8))
def test_envelope_inverts_exactly_where_no_rated_demand_holds_the_band(seed):
    # weather swings from heating-needed to beyond-rated cooling, and the
    # per-sample band moves, so both clamp sides bind somewhere
    rng = np.random.default_rng(seed)
    n = 240
    t = np.arange(n) * DT
    theta_a = 28.0 + rng.uniform(10.0, 16.0) * np.sin(2 * np.pi * t / rng.uniform(1.0, 3.0))
    q_d = rng.uniform(0.5, 2.5, size=n)
    lo_t = 23.0 + rng.uniform(0.0, 0.8, size=n)
    hi_t = lo_t + rng.uniform(0.2, 2.0, size=n)
    par = make_params(p_rated=rng.uniform(1.0, 2.0))
    scn = vf.Scenario(
        params=par,
        bounds=vf.QoSBounds(23.0, 26.0, theta_min_t=lo_t, theta_max_t=hi_t),
        dist=vf.DisturbanceSeries(DT, theta_a, q_d),
        theta_sp=24.0,
        theta0=24.0,
    )
    env = vf.envelope(scn)

    def steady(p):  # quasi-steady temperature under a constant demand p
        return theta_a + par.r_thermal * (q_d - par.eta_cop * p)

    # empty exactly where even the rated range cannot hold the band:
    # full power still leaves the zone too warm, or zero power too cold
    hot, cold = steady(par.p_rated) > hi_t, steady(0.0) < lo_t
    assert hot.any() and cold.any() and not (hot | cold).all()
    assert np.array_equal(env.empty_mask, hot | cold)
    # where the band inverts, the violating side keeps its raw requirement
    assert np.all(env.p_lo[hot] > par.p_rated)
    assert np.all(env.p_hi[cold] < 0.0)
    # elsewhere both edges are physical demands that hold the band
    ok = ~env.empty_mask
    assert np.all((0.0 <= env.p_lo[ok]) & (env.p_lo[ok] <= env.p_hi[ok]))
    assert np.all(env.p_hi[ok] <= par.p_rated)
    for p in (env.p_lo, env.p_hi):
        assert np.all(steady(p)[ok] >= lo_t[ok] - 1e-9)
        assert np.all(steady(p)[ok] <= hi_t[ok] + 1e-9)
    with pytest.raises(vf.InputError):
        vf.sample_interior_trajectories(scn, 1, rng)


def test_is_member_accepts_baseline_and_edge_hold(hot_day):
    base = hot_day.baseline().power
    assert vf.is_member(base, hot_day).ok
    env = vf.envelope(hot_day)
    hold_hi = vf.Trajectory(hot_day.dt, env.p_hi.copy(), unit="kW")
    assert vf.is_member(hold_hi, hot_day).ok  # slides theta to the cold edge


def test_is_member_rejects_sustained_excess(hot_day):
    env = vf.envelope(hot_day)
    p = vf.Trajectory(hot_day.dt, env.p_hi + 0.05, unit="kW")
    v = vf.is_member(p, hot_day)
    assert not v.ok
    assert v.channel == "theta"
    assert v.value < 23.0


def test_is_member_power_range(hot_day):
    n = hot_day.n_steps
    with pytest.raises(vf.PowerRangeError):
        vf.is_member(vf.Trajectory(hot_day.dt, np.full(n, -0.1), unit="kW"), hot_day)
    with pytest.raises(vf.PowerRangeError):
        vf.is_member(
            vf.Trajectory(hot_day.dt, np.full(n, hot_day.params.p_rated + 0.1), unit="kW"),
            hot_day,
        )


def test_envelope_width_tracks_band(params):
    wide = vf.QoSBounds(theta_min=22.0, theta_max=26.0)
    dist = vf.DisturbanceSeries.constant(DT, 60, 32.0, 1.5)
    scn = vf.Scenario(params=params, bounds=wide, dist=dist, theta_sp=24.0, theta0=24.0)
    env = vf.envelope(scn)
    assert np.allclose(env.half_width, 2.0 / params.dc_gain, rtol=1e-12)


def test_conservativeness_curve(hot_day):
    pts = vf.conservativeness_curve(hot_day, [0.0, 2.0 * math.pi])
    dc, hourly = pts
    assert dc.omega == 0.0
    assert dc.a_max_unclamped == pytest.approx(0.10554646683202273, rel=1e-12)
    assert dc.ratio == pytest.approx(1.0, rel=1e-12)

    assert hourly.a_max_unclamped == pytest.approx(2.305653294467407, rel=1e-12)
    # headroom above the baseline is 1 kW, so the true admissible amplitude
    # saturates there while the static envelope stays at its half-width
    assert hourly.a_max == pytest.approx(1.0, rel=1e-12)
    assert hourly.ratio == pytest.approx(9.4745, abs=5e-4)


def test_conservativeness_curve_requires_constant_weather(params, bounds):
    theta_a = np.full(20, 32.0)
    theta_a[10:] = 34.0
    dist = vf.DisturbanceSeries(DT, theta_a, np.full(20, 1.5))
    scn = vf.Scenario(params=params, bounds=bounds, dist=dist, theta_sp=24.0, theta0=24.0)
    with pytest.raises(vf.InputError):
        vf.conservativeness_curve(scn, [0.0])


def test_sine_within_envelope_amplitude_is_member(hot_day):
    a0 = 0.10554646683202273
    t = np.arange(hot_day.n_steps) * hot_day.dt
    base = hot_day.baseline().power.values
    p = vf.Trajectory(hot_day.dt, base + a0 * np.sin(2 * math.pi * t), unit="kW")
    assert vf.is_member(p, hot_day).ok


def test_interior_samples_are_members(hot_day_2h):
    rng = np.random.default_rng(42)
    draws = vf.sample_interior_trajectories(hot_day_2h, 20, rng)
    assert len(draws) == 20
    for tr in draws:
        assert vf.is_member(tr, hot_day_2h).ok

    rng2 = np.random.default_rng(42)
    again = vf.sample_interior_trajectories(hot_day_2h, 20, rng2)
    assert np.array_equal(draws[0].values, again[0].values)


@pytest.mark.parametrize(
    "channels",
    [{"w_min": 0.008, "w_max": 0.012}, {"tau_lock": 0.25}],
    ids=["humidity", "lockout"],
)
def test_analyses_refuse_channels_they_cannot_enforce(hot_day_2h, channels):
    # every analysis takes a Scenario, so refusing the contract there keeps
    # each of them from silently dropping the humidity or lockout bounds
    bounds = vf.QoSBounds(theta_min=23.0, theta_max=25.0, **channels)
    with pytest.raises(vf.InputError, match="temperature band"):
        vf.Scenario(
            params=hot_day_2h.params,
            bounds=bounds,
            dist=hot_day_2h.dist,
            theta_sp=24.0,
            theta0=24.0,
        )
    with pytest.raises(vf.InputError, match="temperature band"):
        dataclasses.replace(hot_day_2h, bounds=bounds)
