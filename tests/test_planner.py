"""Reference tracking: projection onto the feasible set under three norms."""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

import vesflex as vf
from conftest import DT, box_qp_plan, discrete_ride_energy, hot_day_scenario, make_params


def _ref(scn, values):
    return vf.Trajectory(scn.dt, values)


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
    lo, hi = vf.feasible_band(hot_day_2h)
    assert lo.size == hi.size == hot_day_2h.n_steps + 1

    cooked = hot_day_scenario(horizon_h=2.0, theta_a=50.0, p_rated=1.0)
    with pytest.raises(vf.InfeasibleError, match=r"cannot be held at sample \d+ "):
        vf.feasible_band(cooked)


def test_plan_projects_feasible_reference_exactly(hot_day):
    base = hot_day.baseline().power.values
    ref = base.copy()
    ref[:60] += 0.2
    res = vf.plan(hot_day, _ref(hot_day, ref), norm="two")
    assert res.tracking_error == pytest.approx(0.0, abs=1e-6)
    assert res.solves == 1 and res.iterations > 0
    assert 0.0 <= res.bound <= res.tracking_error
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
    assert vf.is_member(res.p, hot_day).ok


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


@pytest.mark.parametrize("norm", ["one", "inf", "two"])
def test_week_long_band_plan_runtime(norm):
    scn = hot_day_scenario(horizon_h=168.0)
    t = np.arange(scn.n_steps) * scn.dt
    ref = _ref(scn, scn.baseline().power.values + 0.6 * np.sin(2 * math.pi * t / 5.0))
    t0 = time.perf_counter()
    res = vf.plan(scn, ref, norm=norm)
    assert time.perf_counter() - t0 < 2.0
    assert scn.n_steps == 10080
    assert res.tracking_error > 0.0


def test_plan_norm_validation(hot_day_2h):
    ref = _ref(hot_day_2h, hot_day_2h.baseline().power.values)
    with pytest.raises(vf.InputError):
        vf.plan(hot_day_2h, ref, norm="three")
    with pytest.raises(vf.ShapeError):
        vf.plan(hot_day_2h, vf.Trajectory(DT, np.zeros(7)))


def test_plan_infeasible_window_raises():
    cooked = hot_day_scenario(horizon_h=1.0, theta_a=50.0, p_rated=1.0)
    ref = _ref(cooked, np.full(cooked.n_steps, 0.5))
    with pytest.raises(vf.InfeasibleError):
        vf.plan(cooked, ref)


@pytest.mark.parametrize("norm", vf.NORMS)
def test_every_norm_refuses_an_infeasible_window_alike(norm):
    cooked = hot_day_scenario(horizon_h=1.0, theta_a=50.0, p_rated=1.0)
    with pytest.raises(vf.InfeasibleError) as band_err:
        vf.feasible_band(cooked)
    with pytest.raises(vf.InfeasibleError) as plan_err:
        vf.plan(cooked, _ref(cooked, np.full(cooked.n_steps, 0.5)), norm=norm)
    with pytest.raises(vf.InfeasibleError) as caps_err:
        vf.characterize(cooked)
    assert str(plan_err.value) == str(band_err.value) == str(caps_err.value)


def _far_reference(scn, scale):
    """The step plan --step-kw makes, with a spike below zero every 7th sample,
    both scale times REF_REACH p_rated outside [0, p_rated]."""
    p_rated = scn.params.p_rated
    reach = scale * vf.planner.REF_REACH * p_rated
    r = scn.baseline().power.values.copy()
    r[r.size // 2 :] = p_rated + reach
    r[::7] = -reach
    return _ref(scn, r)


@pytest.mark.parametrize("window", [None, 60])
@pytest.mark.parametrize("norm", vf.NORMS)
def test_every_norm_plans_a_reference_just_inside_the_reach(hot_day_2h, norm, window):
    _plan_just_inside_the_reach(hot_day_2h, norm, window)


@pytest.mark.parametrize("window", [None, 60])
@pytest.mark.parametrize("norm", vf.NORMS)
def test_every_norm_plans_a_paper_day_reference_just_inside_the_reach(norm, window):
    # the CLI's own preset, 600 one-minute steps, as plan --config paper runs it
    from vesflex import cli

    _plan_just_inside_the_reach(cli.scenario_from_config(cli.load_config("paper")), norm, window)


def _plan_just_inside_the_reach(scn, norm, window):
    # pyproject turns every warning into an error, so an overflow fails here
    ref = _far_reference(scn, 0.999)
    if window is None:
        res = vf.plan(scn, ref, norm=norm)
    else:
        res = vf.receding_horizon(scn, ref, window, norm=norm)
    assert math.isfinite(res.tracking_error)
    assert np.all((res.p.values >= 0.0) & (res.p.values <= scn.params.p_rated))


def test_only_the_one_norm_plan_computes_the_band(monkeypatch):
    # the forward pass alone decides feasibility; only the one-norm ride
    # reads the band, so only it pays for the backward pass
    from vesflex import flexset, planner

    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(planner, "_viable", counted(planner._viable))
    monkeypatch.setattr(flexset, "_viable", counted(flexset._viable))
    scn = hot_day_scenario(horizon_h=0.5)
    ref = _ref(scn, scn.baseline().power.values + 0.2)
    vf.plan(scn, ref, norm="two")
    assert vf.receding_horizon(scn, ref, 10, norm="two").solves >= 1
    assert calls == []
    vf.plan(scn, ref, norm="one")
    assert calls == ["_viable"]


def test_each_plan_runs_the_rated_forward_pass_once(monkeypatch):
    # the band reads the forward pass its caller ran: every plan runs the
    # rated pass once, and the inf-norm one more pass per bisection probe
    from vesflex import flexset, planner

    calls, real = [], flexset._forward_reach
    monkeypatch.setattr(flexset, "_forward_reach", lambda *a: calls.append(1) or real(*a))
    monkeypatch.setattr(planner, "_forward_reach", flexset._forward_reach)
    scn = hot_day_scenario()
    ref = _ref(scn, scn.baseline().power.values + 0.2)
    for norm in ("one", "two"):
        calls.clear()
        vf.plan(scn, ref, norm=norm)
        assert len(calls) == 1, norm
    calls.clear()
    halvings = vf.plan(scn, ref, norm="inf").iterations
    assert len(calls) == halvings + 2
    calls.clear()
    vf.receding_horizon(scn, ref, 60, norm="one")
    assert len(calls) == scn.n_steps == 600


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
    assert (rolled.solves, rolled.iterations, rolled.bound) == (1, one_shot.iterations, None)
    assert np.array_equal(rolled.p.values, one_shot.p.values)


def test_receding_horizon_one_step_matches_one_shot_on_feasible_ref(hot_day_2h):
    base = hot_day_2h.baseline().power.values
    ref = base.copy()
    ref[:30] += 0.2
    one_shot = vf.plan(hot_day_2h, _ref(hot_day_2h, ref), norm="two")
    rolled = vf.receding_horizon(hot_day_2h, _ref(hot_day_2h, ref), window_steps=60)
    # the first window's plan stays optimal in every later window
    assert rolled.solves == 1
    assert np.max(np.abs(rolled.p.values - one_shot.p.values)) < 1e-6
    assert rolled.tracking_error == pytest.approx(0.0, abs=1e-6)
    assert vf.is_member(rolled.p, hot_day_2h).ok


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
    bounds = vf.QoSBounds(lo_t, np.full(n + 1, 25.0))
    scn = dataclasses.replace(scn, bounds=bounds)
    return scn, _ref(scn, scn.baseline().power.values + 0.6)


def test_receding_horizon_per_sample_bounds():
    scn, ref = _late_warm_floor()
    assert not vf.is_member(ref, scn).ok
    one_shot = vf.plan(scn, ref)
    rolled = vf.receding_horizon(scn, ref, window_steps=10)
    assert rolled.solves == 1
    assert vf.is_member(rolled.p, scn).ok
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


_GRAZE = vf.Verdict(ok=False, first_violation_index=3, value=22.9, limit=23.0)


@pytest.mark.parametrize("rolling", [False, True])
@pytest.mark.parametrize("norm", vf.NORMS)
def test_every_norm_plans_inside_the_band_by_the_one_slack(hot_day_2h, norm, rolling):
    # a +2 kW step drives each plan onto the comfort floor; re-simulated, it
    # stays within the one slack of the band and of the power range
    from vesflex.flexset import _SLACK

    scn = hot_day_2h
    step = np.where(np.arange(scn.n_steps) >= scn.n_steps // 2, 2.0, 0.0)
    ref = _ref(scn, scn.baseline().power.values + step)
    if rolling:
        got = vf.receding_horizon(scn, ref, 40, norm=norm, apply_steps=20)
    else:
        got = vf.plan(scn, ref, norm=norm)
    theta = vf.simulate(scn.params, scn.dist, got.p, scn.theta0).values
    lo, hi = scn.theta_limits()
    assert np.all(theta >= lo - _SLACK) and np.all(theta <= hi + _SLACK)
    assert np.all(got.p.values >= -_SLACK)
    assert np.all(got.p.values <= scn.params.p_rated + _SLACK)
    assert np.min(theta - lo) < 1e-6  # the plan reaches the floor


def test_failed_plan_audit_raises(monkeypatch, hot_day_2h):
    import vesflex.flexset as flexset

    real = flexset.audit
    monkeypatch.setattr(flexset, "audit", lambda p, scn: (real(p, scn)[0], _GRAZE))
    ref = _ref(hot_day_2h, hot_day_2h.baseline().power.values)
    for norm in vf.NORMS:
        with pytest.raises(vf.SolverError, match="sample 3"):
            vf.plan(hot_day_2h, ref, norm=norm)


def test_failed_rolling_audit_raises(monkeypatch, hot_day_2h):
    import vesflex.flexset as flexset

    n = hot_day_2h.n_steps
    real = flexset.audit

    def full_horizon_fails(p, scn):
        # every window's plan passes; only the stitched check fails
        theta, verdict = real(p, scn)
        return theta, _GRAZE if len(p) == n else verdict

    monkeypatch.setattr(flexset, "audit", full_horizon_fails)
    ref = _ref(hot_day_2h, hot_day_2h.baseline().power.values)
    with pytest.raises(vf.SolverError, match="sample 3"):
        vf.receding_horizon(hot_day_2h, ref, window_steps=40, apply_steps=20)


@pytest.mark.parametrize("miss", [0.5, 2.0, 100.0])
def test_every_plan_audit_judges_at_the_one_slack(monkeypatch, hot_day_2h, miss):
    # plans were once audited at 1e-6 C, where everything else is judged at
    # 1e-9: a plan 1e-7 C past the band passed
    import vesflex.flexset as flexset

    real, audits = flexset.simulate, []

    def past_ceiling(params, dist, p, theta0):  # theta[3] re-simulates miss slacks high
        theta = real(params, dist, p, theta0).values.copy()
        theta[3] = 25.0 + miss * flexset._SLACK
        audits.append(len(p))
        return vf.Trajectory(dist.dt, theta)

    monkeypatch.setattr(flexset, "simulate", past_ceiling)
    ref = _ref(hot_day_2h, hot_day_2h.baseline().power.values)
    plans = [lambda norm=norm: vf.plan(hot_day_2h, ref, norm=norm) for norm in vf.NORMS]
    plans.append(lambda: vf.receding_horizon(hot_day_2h, ref, 40, norm="one", apply_steps=20))
    for make in plans:
        if miss < 1.0:
            make()
        else:
            with pytest.raises(vf.SolverError, match="planned temperature .* sample 3: "):
                make()
    # three plans, then six windows' plans and the stitched horizon
    assert len(audits) == (3 + 6 + 1 if miss < 1.0 else 4)


@pytest.mark.parametrize("miss", [1e-7, 1e-12, 5e-10, 2e-9])
def test_rolling_plan_snaps_a_window_start_only_by_rounding(monkeypatch, hot_day_2h, miss):
    # each window's start was once snapped into its band by any amount, so a
    # plan that left the band by 1e-7 C was silently moved back into it; the
    # start takes the audit's one slack, so half of it passes and twice fails
    from vesflex import flexset, planner

    assert 2 * 5e-10 == flexset._SLACK == 2e-9 / 2

    real = planner.plan

    def off_band(win, ref, norm):
        got = real(win, ref, norm=norm)
        theta = got.theta.values.copy()
        theta[20] = win.theta_limits()[1][20] + miss
        return dataclasses.replace(got, theta=vf.Trajectory(win.dt, theta))

    monkeypatch.setattr(planner, "plan", off_band)
    ref = _ref(hot_day_2h, hot_day_2h.baseline().power.values)
    rolled = lambda: vf.receding_horizon(hot_day_2h, ref, 40, norm="one", apply_steps=20)
    if miss > flexset._SLACK:
        with pytest.raises(vf.SolverError, match="at sample 20: "):
            rolled()
    else:
        assert vf.is_member(rolled().p, hot_day_2h).ok


def _replan_every_window(scn, ref, window_steps, norm, apply_steps):
    """Oracle: the receding-horizon loop that plans every window afresh."""
    n = scn.n_steps
    lo_t, hi_t = (b.tolist() for b in scn.theta_limits())
    executed = np.empty(n)
    th = scn.theta0
    for t in range(0, n, apply_steps):
        w = min(window_steps, n - t)
        k = min(apply_steps, w)
        th = min(max(th, lo_t[t]), hi_t[t])
        sub_ref = vf.Trajectory(scn.dt, ref.values[t : t + w])
        step_plan = vf.plan(scn.window(t, w, th), sub_ref, norm=norm)
        executed[t : t + k] = step_plan.p.values[:k]
        th = float(step_plan.theta.values[k])
    return executed


def _random_rolling_case(rng):
    # time-varying weather and gains; the reference steps between the
    # baseline and levels that saturate at 0 and at p_rated
    n = int(rng.integers(36, 72))
    t = np.arange(n) * DT
    theta_a = 31.0 + rng.uniform(-1.0, 1.0) + rng.uniform(0.5, 2.0) * np.sin(
        2.0 * math.pi * t / rng.uniform(0.5, 3.0) + rng.uniform(0.0, 2.0 * math.pi)
    )
    dist = vf.DisturbanceSeries(DT, theta_a, rng.uniform(1.0, 2.0, n))
    # a narrow band, so the reference drives the zone onto its edges
    lo_t, hi_t = np.full(n + 1, 23.5), np.full(n + 1, 24.5)
    if rng.uniform() < 0.5:
        lo_t[int(rng.integers(n // 3, n)) :] = 23.7
        hi_t[int(rng.integers(0, n // 2)) : int(rng.integers(n // 2, n + 1))] = 24.3
    bounds = vf.QoSBounds(lo_t, hi_t)
    scn = vf.Scenario(params=make_params(), bounds=bounds, dist=dist, theta_sp=24.0, theta0=24.0)
    ref = scn.baseline().power.values.copy()
    edges = np.sort(rng.choice(np.arange(1, n), size=4, replace=False))
    for seg in np.split(np.arange(n), edges):
        ref[seg] += rng.choice([-1.5, -0.4, 0.0, 0.0, 0.4, 1.5])
    return scn, _ref(scn, ref), int(rng.integers(10, 30))


def _edge_riding_case(rng):
    # per-sample bounds; a step that drives theta onto an edge and holds it
    # there, then a stretch that saturates at 0 or at p_rated
    scn, _, window = _random_rolling_case(rng)
    n = scn.n_steps
    k = np.arange(n + 1)

    def ramp():  # from 0 to 1 over at least a third of the horizon, slow
        # enough that every norm's myopic plan can follow the moving edge
        return np.clip((k - rng.integers(n // 2)) / rng.integers(n // 3, n // 2), 0.0, 1.0)

    lo_t, hi_t = 23.5 + 0.2 * ramp(), 24.5 - 0.2 * ramp()
    bounds = vf.QoSBounds(lo_t, hi_t)
    scn = dataclasses.replace(scn, bounds=bounds)
    ref = scn.baseline().power.values.copy()
    ref[int(rng.integers(1, n // 4)) :] += rng.choice([-0.8, 0.8])
    ref[int(rng.integers(n // 2, n)) :] = rng.choice([-0.5, scn.params.p_rated + 0.5])
    return scn, _ref(scn, ref), window


@pytest.mark.parametrize("case", range(36))
def test_receding_horizon_matches_replanning_every_window(case, monkeypatch):
    from vesflex import planner

    make = _random_rolling_case if case < 24 else _edge_riding_case
    scn, ref, window = make(np.random.default_rng([2024, case]))
    apply_steps = (1, 3, window)[case % 3]
    kept, real = [], planner._continue

    def spy(chain, t, end):
        # the window plan would solve: steps t..end-1 from the chain's start
        win = scn.window(t, end - t, chain.theta[t])
        found = real(chain, t, end)
        p = np.clip(chain.p[t:end], 0.0, scn.params.p_rated)
        kept.append((win, ref.values[t:end], found and (p, chain.theta[t : end + 1])))
        return found

    monkeypatch.setattr(planner, "_continue", spy)
    rolled = vf.receding_horizon(scn, ref, window, norm="two", apply_steps=apply_steps)
    # every kept candidate is its window's optimum by the dense box QP too, and
    # its temperature is the window's re-simulation bit for bit
    for win, r, found in kept:
        if found:
            p, theta = found
            assert np.max(np.abs(p - box_qp_plan(win, r, tol=1e-11))) <= 1e-7
            again = vf.simulate(win.params, win.dist, _ref(win, p), win.theta0)
            assert again.values.tolist() == theta
    windows = len(range(0, scn.n_steps, apply_steps))
    assert 1 <= rolled.solves <= windows
    oracle = _replan_every_window(scn, ref, window, "two", apply_steps)
    assert np.max(np.abs(rolled.p.values - oracle)) <= 1e-7
    err = vf.tracking_error(oracle, ref.values, scn.dt, "two")
    assert rolled.tracking_error == pytest.approx(err, rel=1e-8)
    for norm in ("one", "inf"):
        rolled = vf.receding_horizon(scn, ref, window, norm=norm, apply_steps=apply_steps)
        assert rolled.solves == windows
        oracle = _replan_every_window(scn, ref, window, norm, apply_steps)
        assert np.array_equal(rolled.p.values, oracle)
        assert rolled.tracking_error == vf.tracking_error(oracle, ref.values, scn.dt, norm)


def test_rolling_two_norm_keeps_plans_that_stay_optimal(monkeypatch, hot_day_2h):
    from vesflex import planner

    solves, real = [], planner._plan_two
    monkeypatch.setattr(planner, "_plan_two", lambda *a: solves.append(1) or real(*a))
    # the feasible reference: only the first window is solved
    ref = hot_day_2h.baseline().power.values.copy()
    ref[:30] += 0.2
    rolled = vf.receding_horizon(hot_day_2h, _ref(hot_day_2h, ref), window_steps=60)
    assert (len(solves), rolled.solves) == (1, 1)
    # the rising floor: each window holds it from the last plan's active set
    solves.clear()
    scn, ref = _late_warm_floor()
    rolled = vf.receding_horizon(scn, ref, window_steps=10)
    assert len(solves) == rolled.solves == 1


def test_refused_candidates_fall_back_to_the_interior_point(monkeypatch):
    from vesflex import planner

    refused, solves = [], []
    real_continue, real_two = planner._continue, planner._plan_two

    def spy(*args):
        found = real_continue(*args)
        refused.append(not found)
        return found

    monkeypatch.setattr(planner, "_continue", spy)
    monkeypatch.setattr(planner, "_plan_two", lambda *a: solves.append(1) or real_two(*a))
    scn, ref, window = _random_rolling_case(np.random.default_rng([2024, 18]))
    rolled = vf.receding_horizon(scn, ref, window)
    # the first window, then one interior point per refused candidate
    assert len(solves) == rolled.solves == 1 + sum(refused) > 2
    oracle = _replan_every_window(scn, ref, window, "two", 1)
    assert np.max(np.abs(rolled.p.values - oracle)) <= 1e-7


def _spy_on_windows(monkeypatch):
    """Record each continued window: (t, end, the chain before, its _hold calls'
    starts with the held thetas they saw, _riccati calls, found, the chain after)."""
    from vesflex import planner

    windows, holds, solves = [], [], []
    real_continue, real_hold, real_riccati = planner._continue, planner._hold, planner._riccati

    def state(chain):
        return (chain.certified, chain.end, *map(list, (chain.p, chain.theta, chain.t_side)))

    def hold(chain, j0, end, theta0):
        holds.append((j0, list(chain.t_side)))
        return real_hold(chain, j0, end, theta0)

    def riccati(*args):
        solves.append(1)
        return real_riccati(*args)

    def cont(chain, t, end):
        before, holds[:], solves[:] = state(chain), [], []
        found = real_continue(chain, t, end)
        windows.append((t, end, before, list(holds), len(solves), found, state(chain)))
        return found

    monkeypatch.setattr(planner, "_hold", hold)
    monkeypatch.setattr(planner, "_riccati", riccati)
    monkeypatch.setattr(planner, "_continue", cont)
    return windows


def test_a_window_that_appends_nothing_keeps_its_tail_bit_for_bit(monkeypatch):
    windows, last = _spy_on_windows(monkeypatch), 0
    for case in range(6):
        scn, ref, window = _random_rolling_case(np.random.default_rng([2024, case]))
        vf.receding_horizon(scn, ref, window, norm="two")
        last += window - 1
    # the last window - 1 windows of each horizon append nothing; a few start
    # moved into the band by rounding, and are solved whole
    idle = [w for w in windows if w[2][:2] == (True, w[1])]
    assert len(idle) >= 0.8 * last
    for t, end, before, holds, n_riccati, found, after in idle:
        assert found and holds == [] and n_riccati == 0
        assert after == before


@pytest.mark.parametrize("apply_steps", [1, 3, None])
def test_a_continued_window_solves_only_after_the_tails_last_held_theta(apply_steps, monkeypatch):
    windows = _spy_on_windows(monkeypatch)
    for case in range(36):
        make = _random_rolling_case if case < 24 else _edge_riding_case
        scn, ref, window = make(np.random.default_rng([2024, case]))
        vf.receding_horizon(scn, ref, window, norm="two", apply_steps=apply_steps or window)
    anchored = bellman = 0
    for t, end, before, holds, n_riccati, found, after in windows:
        certified, last, p, theta, t_side = before
        if not certified or last == end:
            continue
        # the last held theta the window starts with, or the window start
        anchor = max((j for j in range(t + 1, last + 1) if t_side[j]), default=t)
        anchored += anchor > t
        bellman += found and not holds
        assert n_riccati == len(holds)
        start = anchor
        for j0, sides in holds:
            if j0 != start:  # an exchange freed the start: back to the held theta before it
                assert j0 < start and not sides[start] and not any(sides[j0 + 1 : start])
                assert j0 == t or sides[j0]
                start = j0
        # nothing before the first sample any solve started from moved
        first = min([j0 for j0, _ in holds] + [anchor])
        assert after[2][:first] == p[:first] and after[3][: first + 1] == theta[: first + 1]
    if apply_steps:  # a window of fresh steps has no tail to keep
        assert anchored > 0 and bellman > 0


def test_two_norm_converges_where_one_shared_step_length_cycled():
    # with one step length for primal and dual the iterates cycled among
    # three points, every step cut to about 0.56, for 100 iterations
    dist = vf.DisturbanceSeries.constant(DT, 2, 28.906198505381113, 1.221253895127179)
    scn = vf.Scenario(
        params=make_params(), bounds=vf.QoSBounds(23.7, 24.5), dist=dist,
        theta_sp=24.0, theta0=23.81947622508936,
    )
    ref = np.full(2, scn.params.p_rated + 0.5)
    got = vf.plan(scn, _ref(scn, ref), norm="two")
    assert np.max(np.abs(got.p.values - box_qp_plan(scn, ref, tol=1e-12))) <= 1e-7
    assert got.p.values == pytest.approx([2.20739, 2.20467], abs=1e-5)
    # only theta_2 sits on the floor, and neither step on p_rated
    assert got.theta.values[1] > 23.7 + 1e-3
    assert got.theta.values[2] == pytest.approx(23.7, abs=1e-9)
    assert got.iterations < 20


@pytest.mark.parametrize("eps", [1e-16, 1e-18, 0.0])
def test_two_norm_returns_its_best_iterate_once_the_gap_is_rounding(monkeypatch, eps):
    # a stop float64 cannot meet: the interior point used to keep stepping until
    # a step length overflowed, and then gave up after 100 iterations
    from vesflex import cli, planner

    scn = cli.scenario_from_config(cli.load_config("paper"))
    ref = _ref(scn, scn.baseline().power.values + 0.2)
    want = vf.plan(scn, ref, norm="two")
    monkeypatch.setattr(planner, "_IPM_EPS", eps)
    got = vf.plan(scn, ref, norm="two")  # pyproject makes a numpy overflow fail here
    assert np.max(np.abs(got.p.values - want.p.values)) <= 1e-9
    assert got.bound <= got.tracking_error <= got.bound + 1e-9
    assert got.iterations < planner._IPM_MAX_ITER


def test_two_norm_returns_its_best_iterate_where_rounding_lifts_the_gap(monkeypatch):
    # spikes 1000 p_rated out: in one window the gap fell to 1.8 times its stop,
    # then rounding lifted it while s.z fell on, and the window ended in SolverError
    from vesflex import cli, planner

    monkeypatch.setattr(planner, "REF_REACH", 1e4)
    scn = cli.scenario_from_config(cli.load_config("paper"))
    p_rated = scn.params.p_rated
    r = scn.baseline().power.values.copy()
    r[300:] = 1001.0 * p_rated
    r[::7] = -1000.0 * p_rated
    rolled = vf.receding_horizon(scn, _ref(scn, r), 60, norm="two")
    assert vf.is_member(rolled.p, scn).ok


@pytest.mark.parametrize("reach", [1e6, 1e12, 1e24])
def test_two_norm_converges_on_a_reference_far_outside_the_rated_range(monkeypatch, reach):
    # from multipliers of 1 this took 28 and 56 iterations, and stalled at 1e24;
    # the power rows now start at the clip(r) plan's multipliers
    from vesflex import cli, planner

    monkeypatch.setattr(planner, "REF_REACH", 1e308)
    scn = cli.scenario_from_config(cli.load_config("paper"))
    p_rated = scn.params.p_rated
    r = scn.baseline().power.values.copy()
    r[300:] = (1.0 + reach) * p_rated
    r[::7] = -reach * p_rated
    res = vf.plan(scn, _ref(scn, r), norm="two")
    assert res.iterations < 20
    assert vf.is_member(res.p, scn).ok
    assert res.bound <= res.tracking_error <= res.bound * (1.0 + 1e-12)


def _floor_step_case():
    # the floor steps from 23.5 to 23.7 C at sample 41; the one-norm ride
    # left a window's theta0 3.6e-15 C short of what that window can hold
    scn, ref, _ = _random_rolling_case(np.random.default_rng([2024, 1]))
    n = scn.n_steps
    lo_t = np.where(np.arange(n + 1) <= 40, 23.5, 23.7)
    bounds = vf.QoSBounds(lo_t, np.full(n + 1, 24.5))
    return dataclasses.replace(scn, bounds=bounds), ref


@pytest.mark.parametrize("norm", vf.NORMS)
def test_rolling_plan_starts_a_window_missed_by_rounding(norm):
    scn, ref = _floor_step_case()
    rolled = vf.receding_horizon(scn, ref, 11, norm=norm, apply_steps=1)
    assert vf.is_member(rolled.p, scn).ok
    oracle = _replan_every_window(scn, ref, 11, norm, 1)
    assert np.max(np.abs(rolled.p.values - oracle)) <= (1e-7 if norm == "two" else 0.0)


@pytest.mark.parametrize("norm", vf.NORMS)
def test_plan_moves_only_a_rounding_miss_into_the_viable_start(norm, hot_day_2h):
    # one step whose floor is exactly where zero demand lands from 24 C
    scn = dataclasses.replace(hot_day_2h, dist=hot_day_2h.dist.slice(0, 1))
    a, _, forcing = scn.dynamics()
    floor = np.array([23.0, a * 24.0 + forcing[0]])
    scn = dataclasses.replace(scn, bounds=vf.QoSBounds(floor, 25.0))
    ref = _ref(scn, [0.5])
    for miss in (0.0, 1e-15, 1e-14, 1e-12, 9e-10):
        start = dataclasses.replace(scn, theta0=24.0 - miss)
        got = vf.plan(start, ref, norm=norm)
        assert got.p.values[0] == pytest.approx(0.0, abs=1e-9)
        assert got.theta.values[0] == 24.0 - miss
        # every other reader of the rated band gives the same answer
        assert vf.feasible_band(start)[0][1] == floor[1]
        caps = vf.characterize(start)  # zero demand alone holds the floor
        assert caps.discharge_rate_kw == pytest.approx(scn.baseline().power.values[0], abs=1e-9)
    far = dataclasses.replace(scn, theta0=24.0 - 1e-6)
    readers = (vf.feasible_band, vf.characterize, lambda s: vf.plan(s, ref, norm=norm))
    errors = []
    for fn in readers:
        with pytest.raises(vf.InfeasibleError) as err:
            fn(far)
        errors.append(str(err.value))
    assert len(set(errors)) == 1 and "sample 1" in errors[0]


@pytest.mark.parametrize("norm", vf.NORMS)
def test_rolling_plan_starts_every_window_its_one_shot_plan_passes(norm):
    # a per-sample floor of 22 C was once accepted under a scalar band of
    # [23, 25] C, then the rolling plan's first window start below 23 C was refused
    n = 120
    lo_t, hi_t = np.full(n + 1, 22.0), np.full(n + 1, 25.0)
    scn = vf.Scenario(
        params=make_params(),
        bounds=vf.QoSBounds(lo_t, hi_t),
        dist=vf.DisturbanceSeries.constant(DT, n, 32.0, 1.5),
        theta_sp=24.0, theta0=24.0,
    )
    ref = _ref(scn, scn.baseline().power.values + 1.0)
    assert vf.plan(scn, ref, norm=norm).theta.values.min() < 23.0
    rolled = vf.receding_horizon(scn, ref, 30, norm=norm)
    assert vf.is_member(rolled.p, scn).ok
    assert rolled.theta.values.min() < 23.0


@pytest.mark.parametrize("norm", vf.NORMS)
def test_a_window_inside_a_pre_cool_band_keeps_its_parents_setpoint(norm):
    # the band narrows to [22.5, 23.5] C on samples 90-199 around a 24 C
    # setpoint; a window there holds its parent's checked theta_sp, which a
    # window rebuilt as a new Scenario would judge against its narrower hull
    scn = hot_day_scenario(horizon_h=4.0)
    n = scn.n_steps
    lo_t, hi_t = np.full(n + 1, 23.0), np.full(n + 1, 25.0)
    lo_t[90:200], hi_t[90:200] = 22.5, 23.5
    scn = dataclasses.replace(scn, bounds=vf.QoSBounds(lo_t, hi_t))
    assert scn.theta_sp == 24.0
    rolled = vf.receding_horizon(scn, scn.baseline().power, 60, norm=norm)
    assert vf.is_member(rolled.p, scn).ok
    assert rolled.theta.values[90:200].max() <= 23.5 + 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_riccati_per_step_decays_match_dense_solve(seed):
    from vesflex.planner import _riccati

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    a = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.7)  # zeros split the chain
    rho, w = rng.uniform(0.1, 2.0, n), rng.uniform(0.0, 1.0, n)
    b = rng.normal(size=n)
    dense = np.diag(w)
    for k in range(n):
        v = np.zeros(n)
        v[k] = -1.0
        if k:
            v[k - 1] = a[k]
        dense += rho[k] * np.outer(v, v)
    want = np.linalg.solve(dense, b)
    assert np.max(np.abs(_riccati(a, rho, w)(b) - want)) <= 1e-10 * (1 + np.abs(want).max())
