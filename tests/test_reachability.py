"""The O(n) feasible-band kernel against the dense simplex on the (p, theta) LP.

The oracle is the exact dynamics written as equality rows over stacked
(p, theta_1..theta_N) and solved by solve_lp; it shares no code with the
kernel beyond the thermal constants.  Capacities and the one- and inf-norm
plans, which ride the band, are both checked against it; the two-norm
interior point, on the temperature path, is checked against the dense box
QP over p.  Scenarios are time-varying: a sinusoidal ambient, varying gains
and per-sample comfort bounds.
"""

import numpy as np
import pytest

import vesflex as vf
from conftest import DT, box_qp_plan, hot_day_scenario, make_params

TOL = 1e-9


def dynamics_lp(scn: vf.Scenario, c_p: np.ndarray) -> vf.LinearProgram:
    """min c_p . p over (p, theta_1..theta_N) with one equality row per step."""
    n = scn.n_steps
    par = scn.params
    a = vf.decay_factor(par, scn.dt)
    gain = (1.0 - a) * par.r_thermal * par.eta_cop
    forcing = (1.0 - a) * (scn.dist.theta_a + par.r_thermal * scn.dist.q_d)
    lo_t, hi_t = scn.theta_limits()
    a_eq = np.zeros((n, 2 * n))
    b_eq = forcing.copy()
    b_eq[0] += a * scn.theta0
    for k in range(n):
        a_eq[k, k] = gain
        a_eq[k, n + k] = 1.0
        if k > 0:
            a_eq[k, n + k - 1] = -a
    return vf.LinearProgram(
        c=np.concatenate([c_p, np.zeros(n)]),
        lo=np.concatenate([np.zeros(n), lo_t[1:]]),
        hi=np.concatenate([np.full(n, par.p_rated), hi_t[1:]]),
        a_eq=a_eq,
        b_eq=b_eq,
    )


def tracking_lp(scn: vf.Scenario, ref: np.ndarray, norm: str) -> vf.SolveReport:
    """One- or inf-norm tracking as the epigraph LP over (p, theta, e).

    dynamics_lp's rows plus -p_k - e <= -r_k and p_k - e <= r_k, with one
    e per step (one-norm, cost dt * e_k) or one shared e (inf-norm).
    """
    n = scn.n_steps
    dyn = dynamics_lp(scn, np.zeros(n))
    n_e = n if norm == "one" else 1
    c = np.zeros(2 * n + n_e)
    c[2 * n :] = scn.dt if norm == "one" else 1.0
    rows = np.arange(2 * n)
    a_ub = np.zeros((2 * n, 2 * n + n_e))
    a_ub[rows, rows % n] = np.repeat([-1.0, 1.0], n)
    a_ub[rows, 2 * n + (rows % n if norm == "one" else 0)] = -1.0
    return vf.solve_lp(vf.LinearProgram(
        c=c,
        lo=np.concatenate([dyn.lo, np.zeros(n_e)]),
        hi=np.concatenate([dyn.hi, np.full(n_e, np.inf)]),
        a_ub=a_ub,
        b_ub=np.concatenate([-ref, ref]),
        a_eq=np.hstack([dyn.a_eq, np.zeros((n, n_e))]),
        b_eq=dyn.b_eq,
    ))


def lp_demand(scn: vf.Scenario, c_p: np.ndarray) -> np.ndarray:
    report = vf.solve_lp(dynamics_lp(scn, c_p))
    if report.status == "infeasible":
        raise vf.InfeasibleError("LP oracle: no feasible demand")
    assert report.status == "optimal", report
    return np.asarray(report.x[: scn.n_steps])


def lp_profiles(scn: vf.Scenario) -> tuple[np.ndarray, np.ndarray]:
    n = scn.n_steps
    return lp_demand(scn, np.full(n, -scn.dt)), lp_demand(scn, np.full(n, scn.dt))


def lp_rate_sweep(scn: vf.Scenario) -> tuple[float, float]:
    """Peak deviation either way, one LP per sample and direction."""
    n = scn.n_steps
    base = scn.baseline().power.values
    up = dn = -np.inf
    for k in range(n):
        c_p = np.zeros(n)
        c_p[k] = -1.0
        up = max(up, lp_demand(scn, c_p)[k] - base[k])
        c_p[k] = 1.0
        dn = max(dn, base[k] - lp_demand(scn, c_p)[k])
    return up, dn


def random_scenario(seed: int, n: int) -> vf.Scenario:
    """A day-scale building with a tightening and a raised comfort window.

    The bound steps land late in the horizon, so the edges of the feasible
    band must pre-cool or pre-warm ahead of them: the backward pass moves
    the band on most minute- and 3-minute-step draws.
    """
    rng = np.random.default_rng(seed)
    r, c, eta = rng.uniform(1.8, 3.5), rng.uniform(0.9, 2.0), rng.uniform(2.8, 4.2)
    dt = float(rng.choice([DT, 0.05, 0.25]))
    t = np.arange(n) * dt
    phase = rng.uniform(0.0, 2 * np.pi)
    theta_a = 31.0 + rng.uniform(1.0, 4.0) * np.sin(2 * np.pi * t / 24.0 + phase)
    q_d = rng.uniform(0.3, 1.5) + 0.2 * np.sin(2 * np.pi * t / rng.uniform(2.0, 8.0))
    p_eq = (q_d.mean() + (theta_a.mean() - 24.0) / r) / eta
    par = vf.ThermalParams(
        r_thermal=r, c_thermal=c, eta_cop=eta, p_rated=p_eq + rng.uniform(0.3, 1.5)
    )
    ts = np.arange(n + 1) * dt
    lo_t = 23.0 + rng.uniform(0.0, 0.5) * (1 + np.sin(2 * np.pi * ts / 3.0)) / 2
    hi_t = 25.0 - rng.uniform(0.0, 0.5) * (1 + np.cos(2 * np.pi * ts / 5.0)) / 2
    for edge, sign in ((hi_t, -1.0), (lo_t, 1.0)):
        k1 = rng.integers(n // 3, n + 1)
        edge[k1 : k1 + rng.integers(1, n // 2 + 2)] += sign * rng.uniform(0.2, 0.45)
    return vf.Scenario(
        params=par,
        bounds=vf.QoSBounds(23.0, 25.0, theta_min_t=lo_t, theta_max_t=hi_t),
        dist=vf.DisturbanceSeries(dt, theta_a, q_d),
        theta_sp=24.0,
        theta0=24.0,
    )


def assert_profiles_match(scn: vf.Scenario) -> None:
    p_ch, p_dis = vf.extremal_profiles(scn)
    lp_ch, lp_dis = lp_profiles(scn)
    assert np.max(np.abs(p_ch.values - lp_ch)) <= TOL
    assert np.max(np.abs(p_dis.values - lp_dis)) <= TOL
    base = scn.baseline().power.values
    caps = vf.characterize(scn)
    e_ch, e_dis = caps.charge_energy_kwh, caps.discharge_energy_kwh
    assert e_ch == pytest.approx(float((lp_ch - base).sum()) * scn.dt, abs=TOL)
    assert e_dis == pytest.approx(float((base - lp_dis).sum()) * scn.dt, abs=TOL)


def assert_rates_match(scn: vf.Scenario) -> None:
    caps = vf.characterize(scn)
    up, dn = caps.charge_rate_kw, caps.discharge_rate_kw
    lp_up, lp_dn = lp_rate_sweep(scn)
    assert up == pytest.approx(lp_up, abs=TOL)
    assert dn == pytest.approx(lp_dn, abs=TOL)


@pytest.mark.parametrize("seed", range(20))
def test_energy_caps_and_profiles_match_dense_lp(seed):
    n = int(np.random.default_rng(1000 + seed).integers(40, 121))
    assert_profiles_match(random_scenario(seed, n))


@pytest.mark.parametrize("seed", range(20))
def test_rate_caps_match_per_sample_lp_sweep(seed):
    n = int(np.random.default_rng(2000 + seed).integers(2, 31))
    scn = random_scenario(100 + seed, n)
    assert_rates_match(scn)
    assert_profiles_match(scn)


def _hard_reference(scn: vf.Scenario, kind: str, rng: np.random.Generator) -> np.ndarray:
    n, p_rated = scn.n_steps, scn.params.p_rated
    if kind == "noise":
        # a good share of the samples falls outside [0, p_rated]
        return scn.baseline().power.values + rng.normal(0.0, 0.6 * p_rated, n)
    if kind == "bang-bang":
        half = int(rng.integers(3, 15))
        return np.where(np.arange(n) // half % 2 == 0, -1.0, p_rated + 1.0)
    return np.linspace(-0.5, p_rated + 0.5, n)[:: int(rng.choice([-1, 1]))]


@pytest.mark.parametrize("seed", range(6))
def test_one_and_inf_norm_plans_match_epigraph_lp(seed):
    rng = np.random.default_rng(3000 + seed)
    scn = random_scenario(300 + seed, int(rng.integers(20, 61)))
    kind = ("noise", "bang-bang", "ramp")[seed % 3]
    ref = vf.Trajectory(scn.dt, _hard_reference(scn, kind, rng))
    for norm in ("one", "inf"):
        want = tracking_lp(scn, ref.values, norm)
        assert want.status == "optimal"
        got = vf.plan(scn, ref, norm=norm)
        assert got.tracking_error == pytest.approx(want.objective, rel=1e-9)
        again = vf.plan(scn, ref, norm=norm)
        assert np.array_equal(again.p.values, got.p.values)
        assert (again.tracking_error, again.iterations, again.bound) == (
            got.tracking_error, got.iterations, got.bound
        )
        if norm == "one":
            assert (got.iterations, got.bound) == (0, None)
        else:
            # the bisection's bracket holds the simplex optimum
            assert got.bound <= got.tracking_error
            assert got.bound <= want.objective * (1 + 1e-9)


def box_qp_objective(scn: vf.Scenario, ref: np.ndarray) -> float:
    """dt * |r - p|^2 at the dense box QP's optimum over p alone."""
    res = ref - box_qp_plan(scn, ref)
    return float(res @ res) * scn.dt


def assert_two_norm_matches_box_qp(scn: vf.Scenario, ref: np.ndarray) -> None:
    traj = vf.Trajectory(scn.dt, ref)
    got = vf.plan(scn, traj, norm="two")
    want = box_qp_objective(scn, ref)
    assert got.tracking_error**2 == pytest.approx(want, rel=1e-7, abs=1e-12)
    # the Lagrangian bound also holds the dense QP's optimum
    assert got.bound <= got.tracking_error
    assert got.bound <= want**0.5 * (1 + 1e-7) + 1e-12
    again = vf.plan(scn, traj, norm="two")
    assert np.array_equal(again.p.values, got.p.values)
    assert (again.tracking_error, again.iterations, again.bound) == (
        got.tracking_error, got.iterations, got.bound
    )


@pytest.mark.parametrize("seed", range(6))
def test_two_norm_interior_point_matches_box_qp(seed):
    rng = np.random.default_rng(4000 + seed)
    scn = random_scenario(400 + seed, int(rng.integers(20, 61)))
    kind = ("noise", "bang-bang", "ramp")[seed % 3]
    assert_two_norm_matches_box_qp(scn, _hard_reference(scn, kind, rng))


def _edge_scenarios():
    par = make_params()
    one = vf.Scenario(
        params=par, bounds=vf.QoSBounds(23.0, 25.0),
        dist=vf.DisturbanceSeries.constant(DT, 1, 32.0, 1.5), theta_sp=24.0, theta0=24.0,
    )
    on_bound = vf.Scenario(
        params=par, bounds=vf.QoSBounds(23.0, 25.0),
        dist=vf.DisturbanceSeries.constant(DT, 30, 32.0, 1.5), theta_sp=24.0, theta0=23.0,
    )
    n = 30
    lo_t, hi_t = np.full(n + 1, 23.0), np.full(n + 1, 25.0)
    lo_t[12], hi_t[12] = 23.8, 23.8 + 1e-6
    pinched = vf.Scenario(
        params=par,
        bounds=vf.QoSBounds(23.0, 25.0, theta_min_t=lo_t, theta_max_t=hi_t),
        dist=vf.DisturbanceSeries.constant(DT, n, 32.0, 1.5), theta_sp=24.0, theta0=24.0,
    )
    # dt / RC = 1000: the decay underflows to exactly zero
    memoryless = vf.Scenario(
        params=vf.ThermalParams(r_thermal=0.01, c_thermal=0.1, eta_cop=3.5, p_rated=300.0),
        bounds=vf.QoSBounds(23.0, 25.0),
        dist=vf.DisturbanceSeries(1.0, 32.0 + np.arange(6.0) / 10, np.full(6, 1.5)),
        theta_sp=24.0, theta0=24.0,
    )
    assert vf.decay_factor(memoryless.params, memoryless.dt) == 0.0
    return {"n=1": one, "theta0 on bound": on_bound, "1e-6 gap": pinched, "a=0": memoryless}


@pytest.mark.parametrize("name", ["n=1", "theta0 on bound", "1e-6 gap", "a=0"])
def test_edge_cases_match_dense_lp(name):
    scn = _edge_scenarios()[name]
    assert_rates_match(scn)
    assert_profiles_match(scn)


def _pinched_to_one_float() -> vf.Scenario:
    # QoSBounds refuses theta_min_t == theta_max_t; adjacent doubles are
    # the narrowest window it admits
    n = 30
    lo_t, hi_t = np.full(n + 1, 23.0), np.full(n + 1, 25.0)
    lo_t[12], hi_t[12] = 23.8, np.nextafter(23.8, 25.0)
    return vf.Scenario(
        params=make_params(),
        bounds=vf.QoSBounds(23.0, 25.0, theta_min_t=lo_t, theta_max_t=hi_t),
        dist=vf.DisturbanceSeries.constant(DT, n, 32.0, 1.5), theta_sp=24.0, theta0=24.0,
    )


@pytest.mark.parametrize(
    "name", ["n=1", "theta0 on bound", "1e-6 gap", "a=0", "one float", "1-s steps"]
)
@pytest.mark.parametrize("ref", ["baseline + 0.5", "above p_rated"])
def test_two_norm_interior_point_edge_cases(name, ref):
    if name == "one float":
        scn = _pinched_to_one_float()
    elif name == "1-s steps":
        # gain 7.5e-4: each demand is a difference of temperatures divided
        # by it, so a row's slack is known only to about 1e-12 kW
        scn = hot_day_scenario(horizon_h=60 / 3600, dt=1 / 3600)
    else:
        scn = _edge_scenarios()[name]
    if ref == "above p_rated":
        values = np.full(scn.n_steps, scn.params.p_rated + 1.0)
    else:
        values = scn.baseline().power.values + 0.5
    assert_two_norm_matches_box_qp(scn, values)


def test_saturated_baseline_rides_rated_power():
    scn = hot_day_scenario(horizon_h=0.5, theta_a=36.0, p_rated=1.6)
    assert scn.baseline().clamped_high.all()
    assert_rates_match(scn)
    assert_profiles_match(scn)
    p_ch, _ = vf.extremal_profiles(scn)
    assert np.all(p_ch.values == scn.params.p_rated)
    assert vf.characterize(scn).charge_rate_kw == 0.0


@pytest.mark.parametrize("how", ["hot weather", "unreachable pinch"])
def test_infeasible_window_raises_in_kernel_and_lp(how):
    if how == "hot weather":
        scn = hot_day_scenario(horizon_h=0.5, theta_a=50.0, p_rated=1.0)
    else:
        n = 20
        lo_t, hi_t = np.full(n + 1, 23.0), np.full(n + 1, 25.0)
        lo_t[3], hi_t[3] = 23.0, 23.0 + 1e-6
        scn = vf.Scenario(
            params=make_params(),
            bounds=vf.QoSBounds(23.0, 25.0, theta_min_t=lo_t, theta_max_t=hi_t),
            dist=vf.DisturbanceSeries.constant(DT, n, 32.0, 1.5),
            theta_sp=24.0, theta0=24.0,
        )
    for fn in (vf.feasible_band, vf.characterize):
        with pytest.raises(vf.InfeasibleError):
            fn(scn)
    with pytest.raises(vf.InfeasibleError):
        lp_profiles(scn)


def test_theta0_outside_its_own_sample_band_is_infeasible():
    n = 30
    lo_t = np.full(n + 1, 23.0)
    lo_t[0] = 24.5
    scn = vf.Scenario(
        params=make_params(),
        bounds=vf.QoSBounds(23.0, 25.0, theta_min_t=lo_t, theta_max_t=np.full(n + 1, 25.0)),
        dist=vf.DisturbanceSeries.constant(DT, n, 32.0, 1.5),
        theta_sp=24.0, theta0=24.0,
    )
    for fn in (vf.feasible_band, vf.characterize, lambda s: vf.plan(s, s.baseline().power)):
        with pytest.raises(vf.InfeasibleError, match="sample 0"):
            fn(scn)


def test_band_edges_are_the_extremal_temperature_paths():
    scn = random_scenario(7, 90)
    lo, hi = vf.feasible_band(scn)
    p_ch, p_dis = vf.extremal_profiles(scn)
    th_ch = vf.simulate(scn.params, scn.dist, p_ch, scn.theta0).values
    th_dis = vf.simulate(scn.params, scn.dist, p_dis, scn.theta0).values
    assert np.max(np.abs(th_ch - lo)) < 1e-9
    assert np.max(np.abs(th_dis - hi)) < 1e-9
    assert np.all(lo <= hi)
    assert lo[0] == hi[0] == scn.theta0


def test_failed_profile_audit_raises(monkeypatch, hot_day_2h):
    import vesflex.flexset as flexset

    bad = vf.Verdict(ok=False, first_violation_index=3, value=26.0, limit=25.0)
    real = flexset.audit
    monkeypatch.setattr(flexset, "audit", lambda p, scn: (real(p, scn)[0], bad))
    with pytest.raises(vf.SolverError):
        vf.extremal_profiles(hot_day_2h)


def test_scenario_dynamics_step_matches_simulate():
    scn = random_scenario(3, 50)
    a, gain, forcing = scn.dynamics()
    p = np.linspace(0.0, scn.params.p_rated, scn.n_steps)
    theta = vf.simulate(scn.params, scn.dist, vf.Trajectory(scn.dt, p), scn.theta0).values
    assert np.max(np.abs(theta[1:] - (a * theta[:-1] - gain * p + forcing))) < 1e-12


def test_step_demand_inverts_the_dynamics():
    scn = random_scenario(3, 50)
    p = np.linspace(0.0, scn.params.p_rated, scn.n_steps)
    theta = vf.simulate(scn.params, scn.dist, vf.Trajectory(scn.dt, p), scn.theta0).values
    assert np.max(np.abs(scn.step_demand(theta[:-1], theta[1:]) - p)) < 1e-9


def test_one_per_sample_scenario_serves_every_analysis():
    # the envelope used to read N bound samples where every other analysis
    # read N+1, so no scenario with per-sample bounds worked in both
    scn = random_scenario(3, 50)
    lo_t, hi_t = scn.theta_limits()
    assert lo_t.size == hi_t.size == scn.n_steps + 1
    env = vf.envelope(scn)
    assert len(env) == scn.n_steps
    # step k is held against the bound sample it lands on, k+1
    par, dist = scn.params, scn.dist
    raw_hi = vf.equilibrium_power(par, dist.theta_a, lo_t[1:], dist.q_d)
    assert np.array_equal(env.p_hi, np.clip(raw_hi, 0.0, par.p_rated))
    lo, hi = vf.feasible_band(scn)
    assert lo.size == hi.size == scn.n_steps + 1
    caps = vf.characterize(scn)
    assert caps.charge_energy_kwh > 0.0 and caps.discharge_energy_kwh > 0.0
    ref = scn.baseline().power
    for norm in vf.NORMS:
        assert vf.is_member(vf.plan(scn, ref, norm=norm).p, scn).ok
    rolled = vf.receding_horizon(scn, ref, window_steps=20, apply_steps=5)
    assert vf.is_member(rolled.p, scn).ok
