"""The comfort contract, feasible-set membership, the conservative power
envelope, and its cost."""

import dataclasses
import math
import time

import numpy as np
import pytest

import vesflex as vf
from conftest import DT, hot_day_scenario, make_params


def test_per_sample_bounds_are_copied_then_frozen():
    lo, hi = np.array([23.0, 24.5, 23.0]), np.array([25.0, 25.0, 25.0])
    band = vf.QoSBounds(lo, hi)
    lo[1] = 23.5
    assert band.theta_min[1] == 24.5
    assert lo.flags.writeable and hi.flags.writeable
    assert not band.theta_min.flags.writeable
    assert not band.theta_max.flags.writeable


def test_bounds_validation():
    with pytest.raises(vf.InputError):
        vf.QoSBounds(25.0, 23.0)


def _judge(monkeypatch, params, theta, bounds=vf.QoSBounds(23.0, 25.0)):
    """audit's verdict on a two-step scenario whose re-simulation returns theta."""
    import vesflex.flexset as flexset

    dist = vf.DisturbanceSeries.constant(DT, 2, 32.0, 1.5)
    scn = vf.Scenario(params=params, bounds=bounds, dist=dist, theta_sp=24.0, theta0=24.0)
    monkeypatch.setattr(flexset, "simulate", lambda *args: vf.Trajectory(DT, theta))
    return flexset.audit(vf.Trajectory(DT, np.zeros(2)), scn)[1]


def test_audit_passes_theta_inside_or_on_the_band(monkeypatch, params):
    for theta in ([24.0, 23.5, 24.5], [24.0, 23.0, 25.0]):  # closed intervals
        v = _judge(monkeypatch, params, theta)
        assert v.ok
        assert bool(v)
        assert v.first_violation_index is None


def test_audit_reports_the_earliest_violation(monkeypatch, params):
    v = _judge(monkeypatch, params, [24.0, 22.5, 22.0])
    assert not v
    assert v.first_violation_index == 1
    assert v.value == 22.5
    assert v.limit == 23.0
    v = _judge(monkeypatch, params, [24.0, 24.0, 25.5])
    assert (v.first_violation_index, v.value, v.limit) == (2, 25.5, 25.0)


def test_audit_slack_is_the_one_slack(monkeypatch, params, hot_day):
    from vesflex.flexset import _SLACK

    assert _SLACK == 1e-9
    # the power range takes it in kW
    demand = lambda kw: vf.Trajectory(hot_day.dt, np.full(hot_day.n_steps, kw))
    for edge, out in ((0.0, -1.0), (hot_day.params.p_rated, 1.0)):
        vf.flexset.audit(demand(edge + out * _SLACK / 2), hot_day)
        with pytest.raises(vf.PowerRangeError):
            vf.flexset.audit(demand(edge + out * 2 * _SLACK), hot_day)
    for side, edge in ((-1, 23.0), (1, 25.0)):
        assert _judge(monkeypatch, params, [24.0, edge + side * _SLACK / 2, 24.0]).ok
        v = _judge(monkeypatch, params, [24.0, edge + side * 2 * _SLACK, 24.0])
        assert (v.first_violation_index, v.limit) == (1, edge)


@pytest.mark.parametrize("judge", ["audit", "is_member", "require_member"])
def test_the_retired_atol_is_a_type_error(hot_day, judge):
    # each judge once took its own slack; a caller's atol is now refused
    # rather than silently ignored
    p = hot_day.baseline().power
    args = (p, hot_day, "baseline") if judge == "require_member" else (p, hot_day)
    with pytest.raises(TypeError, match="atol"):
        getattr(vf.flexset, judge)(*args, atol=1e-6)
    getattr(vf.flexset, judge)(*args)


def test_audit_judges_per_sample_limits(monkeypatch, params):
    band = vf.QoSBounds(np.array([23.0, 24.5, 23.0]), np.array([25.0, 25.0, 25.0]))
    v = _judge(monkeypatch, params, [24.0, 24.0, 24.0], band)
    assert not v.ok
    assert v.first_violation_index == 1
    assert v.limit == 24.5


def test_audit_reports_a_per_sample_upper_limit(monkeypatch, params):
    band = vf.QoSBounds(np.array([23.0, 23.0, 23.0]), np.array([25.0, 25.0, 24.0]))
    v = _judge(monkeypatch, params, [24.0, 24.5, 24.5], band)
    assert (v.ok, v.first_violation_index, v.value, v.limit) == (False, 2, 24.5, 24.0)


def test_the_comfort_contract_is_defined_in_flexset_alone():
    import importlib

    import vesflex.flexset as flexset

    assert vf.QoSBounds is flexset.QoSBounds and vf.Verdict is flexset.Verdict
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("vesflex.qos")
    for gone in ("qos", "satisfies"):
        assert gone not in vf.__all__
        with pytest.raises(AttributeError):
            getattr(vf, gone)
    assert not hasattr(vf.QoSBounds, "theta_limits")
    fields = [f.name for f in dataclasses.fields(vf.Verdict)]
    assert fields == ["ok", "first_violation_index", "value", "limit"]
    # one band: each side a constant or a per-sample array, no second copy
    assert [f.name for f in dataclasses.fields(vf.QoSBounds)] == ["theta_min", "theta_max"]
    for gone in ("theta_min_t", "theta_max_t"):
        with pytest.raises(TypeError, match=gone):
            vf.QoSBounds(23.0, 25.0, **{gone: np.full(3, 24.0)})


def test_scenario_validation(params, bounds):
    dist = vf.DisturbanceSeries.constant(DT, 10, 32.0, 1.5)
    with pytest.raises(vf.InputError):
        vf.Scenario(params=params, bounds=bounds, dist=dist, theta_sp=26.0, theta0=24.0)
    with pytest.raises(vf.InputError):
        vf.Scenario(params=params, bounds=bounds, dist=dist, theta_sp=24.0, theta0=22.0)


def test_per_sample_bounds_are_checked_when_the_scenario_is_built(params):
    # bounds cover the N+1 temperature samples; a wrong length or a crossed
    # pair is refused here rather than deep inside some analysis
    n = 30
    dist = vf.DisturbanceSeries.constant(DT, n, 32.0, 1.5)

    def build(lo_t, hi_t):
        bounds = vf.QoSBounds(lo_t, hi_t)
        return vf.Scenario(params=params, bounds=bounds, dist=dist, theta_sp=24.0, theta0=24.0)

    for size in (n, n + 2):
        with pytest.raises(vf.ShapeError, match=f"do not match {n + 1} signal samples"):
            build(np.full(size, 23.0), np.full(size, 25.0))
    crossed = np.full(n + 1, 25.0)
    crossed[7] = 23.0
    with pytest.raises(vf.InputError, match="lower < upper"):
        build(np.full(n + 1, 23.0), crossed)
    assert build(np.full(n + 1, 23.0), np.full(n + 1, 25.0)).n_steps == n


@pytest.mark.parametrize("name", ["theta_min", "theta_max"])
def test_a_scenario_refuses_one_per_sample_side_of_the_wrong_length(params, name):
    # the constant side is filled at the N+1 samples
    n = 30
    dist = vf.DisturbanceSeries.constant(DT, n, 32.0, 1.5)
    side = np.full(n, 23.0 if name == "theta_min" else 25.0)
    sizes = f"{n}/{n + 1}" if name == "theta_min" else f"{n + 1}/{n}"
    bounds = vf.QoSBounds(**{"theta_min": 23.0, "theta_max": 25.0, name: side})
    with pytest.raises(vf.ShapeError, match=f"sized {sizes} do not match {n + 1} signal"):
        vf.Scenario(params=params, bounds=bounds, dist=dist, theta_sp=24.0, theta0=24.0)


def test_scenario_window(hot_day_2h):
    rolled = hot_day_2h.window(10, 20, 23.5)
    assert rolled.theta0 == 23.5
    assert rolled.n_steps == 20
    assert rolled.theta_sp == hot_day_2h.theta_sp
    assert np.array_equal(rolled.dist.theta_a, hot_day_2h.dist.theta_a[10:30])
    assert (rolled.bounds.theta_min, rolled.bounds.theta_max) == (
        hot_day_2h.bounds.theta_min, hot_day_2h.bounds.theta_max)

    # per-sample bounds cover the N+1 temperature samples, so a window of
    # n steps keeps n+1 of them, the last window ending on the final one
    n = hot_day_2h.n_steps
    lo_t = np.linspace(23.0, 23.5, n + 1)
    hi_t = np.linspace(25.0, 24.6, n + 1)
    timed = dataclasses.replace(hot_day_2h, bounds=vf.QoSBounds(lo_t, hi_t))
    lo, hi = timed.window(10, 20, 23.5).theta_limits()
    assert np.array_equal(lo, lo_t[10:31])
    assert np.array_equal(hi, hi_t[10:31])
    lo, hi = timed.window(n - 5, 5, 24.0).theta_limits()
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
    base = hot_day.baseline().power.values
    assert np.all((env.p_lo <= base) & (base <= env.p_hi))
    bumped = base + 0.2
    assert not np.all((env.p_lo <= bumped) & (bumped <= env.p_hi))


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
    # per-sample bounds cover the N+1 temperature samples; step k is held
    # against sample k+1, the one it lands on
    lo_all = 23.0 + rng.uniform(0.0, 0.8, size=n + 1)
    hi_all = lo_all + rng.uniform(0.2, 2.0, size=n + 1)
    par = make_params(p_rated=rng.uniform(1.0, 2.0))
    scn = vf.Scenario(
        params=par,
        bounds=vf.QoSBounds(lo_all, hi_all),
        dist=vf.DisturbanceSeries(DT, theta_a, q_d),
        theta_sp=24.0,
        theta0=24.0,
    )
    env = vf.envelope(scn)
    lo_t, hi_t = lo_all[1:], hi_all[1:]

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
        vf.sample_interior_trajectories(env, 1, rng)


def test_draws_past_the_grid_cap_are_refused_before_any_is_made(hot_day, monkeypatch):
    # envelope --verify-samples N once built all N draws before the first audit
    import vesflex.flexset as flexset

    class NoDraws:
        def uniform(self, size):
            raise AssertionError("a draw was made")

    env = vf.envelope(hot_day)
    says = f"^n_draws {10**15} of {len(env)} samples each is more than {vf.thermal.MAX_GRID_STEPS}"
    with pytest.raises(vf.InputError, match=says):
        vf.sample_interior_trajectories(env, 10**15, NoDraws())
    monkeypatch.setattr(flexset, "MAX_GRID_STEPS", 2 * len(env))
    assert len(vf.sample_interior_trajectories(env, 2, np.random.default_rng(0))) == 2
    with pytest.raises(vf.InputError, match="^n_draws 3 "):
        vf.sample_interior_trajectories(env, 3, NoDraws())


def test_is_member_accepts_baseline_and_edge_hold(hot_day):
    base = hot_day.baseline().power
    assert vf.is_member(base, hot_day).ok
    env = vf.envelope(hot_day)
    hold_hi = vf.Trajectory(hot_day.dt, env.p_hi.copy())
    assert vf.is_member(hold_hi, hot_day).ok  # slides theta to the cold edge


def test_is_member_rejects_sustained_excess(hot_day):
    env = vf.envelope(hot_day)
    p = vf.Trajectory(hot_day.dt, env.p_hi + 0.05)
    v = vf.is_member(p, hot_day)
    assert not v.ok
    assert v.value < 23.0


def test_is_member_power_range(hot_day):
    n = hot_day.n_steps
    with pytest.raises(vf.PowerRangeError):
        vf.is_member(vf.Trajectory(hot_day.dt, np.full(n, -0.1)), hot_day)
    with pytest.raises(vf.PowerRangeError):
        vf.is_member(
            vf.Trajectory(hot_day.dt, np.full(n, hot_day.params.p_rated + 0.1)),
            hot_day,
        )


def test_a_power_range_error_shows_every_digit_and_the_excess():
    # at .6g, p_rated + 2e-9 kW printed as p_rated itself
    scn = hot_day_scenario(horizon_h=0.5)
    p_rated = scn.params.p_rated
    with pytest.raises(vf.PowerRangeError) as err:
        vf.is_member(vf.Trajectory(scn.dt, np.full(scn.n_steps, p_rated + 2e-9)), scn)
    shown = float(str(err.value).split(" = ")[1].split(" kW")[0])
    assert shown == p_rated + 2e-9 != p_rated
    assert str(err.value).endswith(f"outside [0, {p_rated}] kW by 2e-09 kW")


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
    step = np.full(20, 1.0)
    step[10:] = 1.0 + 1e-9
    for theta_a, q_d in ((32.0 * step, np.full(20, 1.5)), (np.full(20, 32.0), 1.5 * step)):
        dist = vf.DisturbanceSeries(DT, theta_a, q_d)
        scn = vf.Scenario(params=params, bounds=bounds, dist=dist, theta_sp=24.0, theta0=24.0)
        with pytest.raises(vf.InputError, match="constant disturbances"):
            vf.conservativeness_curve(scn, [0.0])


def test_conservativeness_curve_reads_per_sample_bounds(hot_day):
    # a constant band given as per-sample arrays: the curve is the one of the
    # same band given as floats, and a_max(0) is the envelope's half width
    n = hot_day.n_steps + 1
    narrow = vf.QoSBounds(23.5, 24.5)
    per_sample = vf.QoSBounds(np.full(n, 23.5), np.full(n, 24.5))
    omegas = [0.0, 0.5, 2.0 * math.pi]
    got = vf.conservativeness_curve(dataclasses.replace(hot_day, bounds=per_sample), omegas)
    assert got == vf.conservativeness_curve(dataclasses.replace(hot_day, bounds=narrow), omegas)
    half = vf.envelope(dataclasses.replace(hot_day, bounds=per_sample)).half_width
    assert got[0].a_max == pytest.approx(half[0], rel=1e-12)
    assert got[0].a_max == pytest.approx(0.0527732334160114, rel=1e-9)


def test_conservativeness_curve_refuses_varying_bounds(hot_day):
    n = hot_day.n_steps + 1
    lo_t = np.full(n, 23.0)
    lo_t[n // 2 :] = 23.5
    scn = dataclasses.replace(hot_day, bounds=vf.QoSBounds(lo_t, 25.0))
    with pytest.raises(vf.InputError, match="constant"):
        vf.conservativeness_curve(scn, [0.0])


def test_sine_within_envelope_amplitude_is_member(hot_day):
    a0 = 0.10554646683202273
    t = np.arange(hot_day.n_steps) * hot_day.dt
    base = hot_day.baseline().power.values
    p = vf.Trajectory(hot_day.dt, base + a0 * np.sin(2 * math.pi * t))
    assert vf.is_member(p, hot_day).ok


def test_interior_samples_are_members(hot_day_2h):
    rng = np.random.default_rng(42)
    draws = vf.sample_interior_trajectories(vf.envelope(hot_day_2h), 20, rng)
    assert len(draws) == 20
    for tr in draws:
        assert vf.is_member(tr, hot_day_2h).ok

    rng2 = np.random.default_rng(42)
    again = vf.sample_interior_trajectories(vf.envelope(hot_day_2h), 20, rng2)
    assert np.array_equal(draws[0].values, again[0].values)


def _long_memory(one_minus_a, n):
    """The hot day on n steps whose decay a is 1 - one_minus_a."""
    dt = -make_params().time_constant_h * math.log1p(-one_minus_a)
    return hot_day_scenario(horizon_h=n * dt, dt=dt)


def test_a_recursion_remembering_more_than_the_cap_is_refused_naming_dt():
    # at dt = 5e-8 RC and 10**7 steps, capacity on the paper zone once crashed:
    # simulate and dynamics() rounded 3.2e-9 C apart, past the audit's slack
    cap = vf.flexset.MAX_MEMORY_STEPS
    assert cap == 100_000
    with pytest.raises(vf.InputError, match=r"^dt \S+ h over 100001 steps makes the recursion "
                                            r"remember 100001 steps, more than 100000$"):
        _long_memory(5e-8, cap + 1)
    # the memory is min(n_steps, 1 / (1 - a)), so both a short horizon at
    # that dt and a long one that forgets faster are accepted
    assert _long_memory(5e-8, 100).n_steps == 100
    assert _long_memory(1e-4, cap + 1).n_steps == cap + 1


@pytest.mark.parametrize("one_minus_a, extra, refused", [
    (5e-8, 0, False),     # n at the cap, decay far past it
    (1e-6, 1, True),      # n and decay both past the cap
    (0.9e-5, 1, True),    # decay 111,111 steps, n one past the cap
    (1.1e-5, 1, False),   # decay 90,909 steps, n one past the cap
])
def test_the_memory_is_the_shorter_of_the_horizon_and_the_decay(one_minus_a, extra, refused):
    n = vf.flexset.MAX_MEMORY_STEPS + extra
    if refused:
        with pytest.raises(vf.InputError, match=r"^dt .* more than 100000$"):
            _long_memory(one_minus_a, n)
    else:
        assert _long_memory(one_minus_a, n).n_steps == n


def test_a_recursion_just_inside_the_cap_is_judged_at_the_one_slack():
    scn = _long_memory(1e-5, vf.flexset.MAX_MEMORY_STEPS)
    started = time.perf_counter()
    caps = vf.characterize(scn)  # both capacity profiles pass the audit
    got = vf.plan(scn, vf.Trajectory(scn.dt, scn.baseline().power.values + 2.0), norm="one")
    assert time.perf_counter() - started < 1.0
    assert caps.charge_energy_kwh > 0.0
    assert got.theta.values.min() >= 23.0 - vf.flexset._SLACK
    # a window is never refused: its memory is no longer than its parent's
    assert scn.window(10, scn.n_steps - 10, 24.0).n_steps == scn.n_steps - 10
