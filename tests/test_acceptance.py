"""Acceptance gate: one verdict line per criterion, printed before asserting.

Run with -s (or rely on the repository pytest defaults) to see the
scoreboard.  Criterion 6a asserts that the peak-5 staircase triangle is
tracked exactly by 2*peak^2 = 50 pulse-pair loads and by no fewer.  The
signed pair count on boundary t is forced to be the prefix sum S_t, and
S_9 = S_10 = 25, so 25 pairs end and 25 pairs start at slot 10 and need 50
distinct loads; the formula is checked against brute force in criterion
8c.  A bound of 24 (the count S_8 on a single boundary) is unattainable:
even with unlimited payback delay the fleet would need max |S_t| = 25.
"""

import itertools
import math
import time

import numpy as np
import pytest

import vesflex as vf
from conftest import (
    DT,
    brute_min_loads,
    discrete_ride_energy,
    hot_day_scenario,
    make_params,
    multiset_sum_tables,
)


def _verdict(tag: str, label: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"\n[{mark}] criterion {tag}: {label}{extra}", flush=True)


def test_criterion_1_envelope_half_width():
    t0 = time.perf_counter()
    scn = hot_day_scenario()
    env = vf.envelope(scn)
    elapsed = time.perf_counter() - t0
    hw = float(env.half_width[0])
    ok = abs(hw - 0.1055) <= 1e-3 and elapsed < 1.0
    _verdict(
        "1", "envelope half-width 0.1055 kW within 1e-3",
        ok, f"half-width {hw:.10f} kW, {elapsed:.2f} s",
    )
    assert abs(hw - 0.1055) <= 1e-3
    assert hw == pytest.approx(0.10554646683202273, rel=1e-12)
    assert np.allclose(env.half_width, hw, rtol=1e-12)
    assert elapsed < 1.0


def test_criterion_2_sine_passes_hold_fails():
    t0 = time.perf_counter()
    scn = hot_day_scenario()
    base = scn.baseline().power.values
    t = np.arange(scn.n_steps) * scn.dt

    sine = vf.Trajectory(scn.dt, base + 0.3 * np.sin(2 * math.pi * t), unit="kW")
    sine_ok = vf.is_member(sine, scn).ok

    hold = vf.Trajectory(scn.dt, base + 0.3, unit="kW")
    hold_v = vf.is_member(hold, scn)
    t_viol = None if hold_v.ok else hold_v.first_violation_index * scn.dt
    elapsed = time.perf_counter() - t0

    ok = sine_ok and not hold_v.ok and abs(t_viol - 1.51) <= 0.02 and elapsed < 1.0
    _verdict(
        "2", "0.3 kW sine at 1 cycle/h feasible, 0.3 kW hold breaks at 1.51 h +/- 0.02",
        ok, f"hold violation at {t_viol:.4f} h, {elapsed:.2f} s",
    )
    assert sine_ok
    assert not hold_v.ok
    assert abs(t_viol - 1.51) <= 0.02
    assert hold_v.first_violation_index == 91
    assert elapsed < 1.0


def test_criterion_3_frequency_response_fidelity():
    t0 = time.perf_counter()
    params = make_params()
    omegas = [0.5 * 2 * math.pi, 2 * math.pi, 2 * 2 * math.pi, 4 * 2 * math.pi]
    ratios = []
    for w in omegas:
        meas = vf.steady_sine_amplitude(params, 0.1, w)
        pred = 0.1 * vf.tf_magnitude(params, w)
        ratios.append(meas / pred)
    elapsed = time.perf_counter() - t0
    worst = max(abs(r - 1.0) for r in ratios)
    ok = worst <= 0.02 and elapsed < 5.0
    _verdict(
        "3", "steady oscillation amplitude within 2% of A*|G(jw)|",
        ok, f"worst deviation {worst * 100:.3f}%, {elapsed:.2f} s",
    )
    assert worst <= 0.02
    assert ratios == pytest.approx(
        [1.0028633401139566, 1.0028626686718927, 1.002862159746175, 1.0028617218997091],
        rel=1e-9,
    )
    assert elapsed < 5.0


def test_criterion_4_latent_load_and_fraction():
    t0 = time.perf_counter()
    wet = vf.MoistAirState(t_c=23.89, w=0.009)
    dried = vf.MoistAirState(t_c=23.89, w=0.009 - 0.005)
    latent, sensible, _ = vf.latent_sensible_split(wet, dried)
    frac = vf.latent_fraction(11.0, 20.0)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(latent - 11.28) <= 0.01
        and sensible == 0.0
        and abs(frac - 0.355) <= 0.005
        and elapsed < 1.0
    )
    _verdict(
        "4", "latent load 11.28 kJ/kg +/- 0.01 at dW=0.005; fraction 35.5% +/- 0.5%",
        ok, f"latent {latent:.6f} kJ/kg, fraction {frac * 100:.3f}%, {elapsed:.2f} s",
    )
    assert abs(latent - 11.28) <= 0.01
    assert sensible == 0.0
    assert abs(frac - 0.355) <= 0.005
    assert elapsed < 1.0


def test_criterion_5_deferrable_counterexample():
    t0 = time.perf_counter()
    params = make_params()
    e_hot = vf.baseline_energy(params, 32.0, 24.0, 1.5, horizon_h=2.0, dt=DT)
    spec = vf.DeferrableSpec(
        arrival_h=0.0, energy_kwh=e_hot, window_h=2.0, p_max=params.p_rated
    )
    cold = hot_day_scenario(horizon_h=2.0, theta_a=15.0, q_d=0.2)
    res = vf.counterexample_check(spec, cold)
    elapsed = time.perf_counter() - t0
    ok = res.contract.ok and not res.comfort.ok and elapsed < 1.0
    _verdict(
        "5", "hot-sized contract on a cold day: contract ok, comfort violated",
        ok,
        f"contract={'ok' if res.contract.ok else 'violated'}, "
        f"comfort={'ok' if res.comfort.ok else 'violated'}, {elapsed:.2f} s",
    )
    assert res.contract.ok
    assert not res.comfort.ok
    assert res.demonstrates_gap
    assert res.comfort.value < 23.0  # overcooling, not overheating
    assert elapsed < 1.0


def test_criterion_6a_triangle_fleet_bound():
    t0 = time.perf_counter()
    peak = 5
    # S_{2p-1} = S_{2p} = p^2: the p^2 pairs ending at slot 2p and the p^2
    # pairs starting there need distinct loads, so no fleet below 2 p^2 works
    bound = 2 * peak**2
    tri = vf.staircase_triangle(peak)
    need = vf.min_loads(tri)
    sched = vf.schedule_tracking(tri)
    exact = np.array_equal(sched.aggregate_units(), tri)
    try:
        vf.validate_schedule(sched)
        legal = True
    except vf.InputError:
        legal = False
    busy_at_peak = int(np.count_nonzero(sched.actions[:, 2 * peak]))
    try:
        vf.schedule_tracking(tri, n_loads=bound - 1)
        smaller_refused = False
    except vf.InfeasibleError:
        smaller_refused = True
    elapsed = time.perf_counter() - t0
    ok = (
        exact and legal and sched.loads_used == bound == need
        and busy_at_peak == bound and smaller_refused and elapsed < 30.0
    )
    _verdict(
        "6a", "staircase triangle (peak 5) tracked exactly by 2*peak^2 = 50 loads, "
        "no fewer",
        ok,
        f"exact tracking with {sched.loads_used} loads, provable minimum {need}, "
        f"{busy_at_peak} active at slot {2 * peak}, "
        f"{bound - 1} loads {'refused' if smaller_refused else 'accepted'}, "
        f"{elapsed:.2f} s",
    )
    assert exact
    assert legal
    assert sched.loads_used == bound
    assert sched.loads_used == need  # the schedule really is minimal
    assert busy_at_peak == bound == sched.n_loads  # every load works slot 2p
    assert smaller_refused
    assert elapsed < 30.0


def test_criterion_6b_square_wave_amplitude():
    t0 = time.perf_counter()
    tight = True
    for n in range(1, 6):
        ref = vf.square_reference(n, 1)
        sched = vf.schedule_tracking(ref, n_loads=n)
        tight &= np.array_equal(sched.aggregate_units(), ref)
        tight &= vf.amplitude_at_timescale(n, 1) == n
        try:
            vf.schedule_tracking(vf.square_reference(n + 1, 1), n_loads=n)
            tight = False  # n loads must not reach amplitude n + 1
        except vf.InfeasibleError:
            pass
    elapsed = time.perf_counter() - t0
    ok = tight and elapsed < 30.0
    _verdict(
        "6b", "1-slot square wave reaches amplitude n*u with n loads, n = 1..5",
        ok, f"{elapsed:.2f} s",
    )
    assert tight
    assert elapsed < 30.0


def test_criterion_7_battery_energy_vs_oracle():
    t0 = time.perf_counter()
    params = make_params()

    scn = hot_day_scenario()
    e_c = vf.characterize(scn).charge_energy_kwh
    oracle = vf.bangbang_energy_oracle(params, 1.0, 1.0, 10.0)
    point_gap = abs(e_c - oracle)

    rng = np.random.default_rng(20260814)
    worst = 0.0
    n_sweep = 50
    for _ in range(n_sweep):
        r = rng.uniform(1.8, 3.5)
        c = rng.uniform(0.9, 2.0)
        eta = rng.uniform(2.8, 4.2)
        dth = rng.uniform(0.6, 1.4)
        ptm = rng.uniform(0.6, 1.4)
        theta_a = rng.uniform(28.0, 35.0)
        q_d = rng.uniform(0.3, 1.5)
        p_eq = (q_d + (theta_a - 24.0) / r) / eta
        par = vf.ThermalParams(r_thermal=r, c_thermal=c, eta_cop=eta, p_rated=p_eq + ptm)
        bnd = vf.QoSBounds(theta_min=24.0 - dth, theta_max=24.0 + dth)
        dist = vf.DisturbanceSeries.constant(DT, 240, theta_a=theta_a, q_d=q_d)
        sub = vf.Scenario(params=par, bounds=bnd, dist=dist, theta_sp=24.0, theta0=24.0)
        e_sub = vf.characterize(sub).charge_energy_kwh
        worst = max(worst, abs(e_sub - vf.bangbang_energy_oracle(par, dth, ptm, 4.0)))
    elapsed = time.perf_counter() - t0

    ok = point_gap <= 1e-4 and worst <= 1e-4 and elapsed < 60.0
    _verdict(
        "7", "LP charge energy within 1e-4 kWh of the bang-bang oracle (point + sweep)",
        ok,
        f"point gap {point_gap:.2e} kWh, sweep worst {worst:.2e} kWh over "
        f"{n_sweep} draws, {elapsed:.1f} s",
    )
    assert point_gap <= 1e-4
    assert e_c == pytest.approx(1.4019653769436866, abs=1e-8)
    assert oracle == pytest.approx(1.4019719674696929, rel=1e-12)
    assert worst <= 1e-4
    assert elapsed < 60.0


def test_criterion_8a_envelope_soundness():
    scn = hot_day_scenario(horizon_h=2.0)
    rng = np.random.default_rng(7)
    draws = vf.sample_interior_trajectories(vf.envelope(scn), 200, rng)
    bad = sum(1 for tr in draws if not vf.is_member(tr, scn).ok)
    ok = bad == 0
    _verdict(
        "8a", "200 random interior trajectories all comfort-feasible",
        ok, f"{bad} violations",
    )
    assert bad == 0


def test_criterion_8b_planner_idempotence_and_lattice():
    scn = hot_day_scenario(horizon_h=2.0)
    base = scn.baseline().power.values
    ref_vals = base.copy()
    ref_vals[:30] += 0.2
    ref = vf.Trajectory(scn.dt, ref_vals, unit="kW")

    first = vf.plan(scn, ref, norm="two")
    second = vf.plan(scn, ref, norm="two")
    rerun_same = np.array_equal(first.p.values, second.p.values)

    n = scn.n_steps
    rolled = vf.receding_horizon(scn, ref, window_steps=n, norm="two", apply_steps=n)
    collapse_same = np.array_equal(rolled.p.values, first.p.values)

    small = vf.Scenario(
        params=make_params(p_rated=0.1),
        bounds=vf.QoSBounds(theta_min=23.85, theta_max=25.0),
        dist=vf.DisturbanceSeries.constant(0.5, 5, theta_a=24.0, q_d=0.175),
        theta_sp=24.0,
        theta0=24.0,
    )
    small_ref = small.baseline().power.values + 0.08
    res = vf.plan(small, vf.Trajectory(0.5, small_ref, unit="kW"), norm="two")

    from vesflex.planner import input_to_state_map

    la, free = input_to_state_map(small)
    grid = np.array(list(itertools.product(np.linspace(0.0, 0.1, 11), repeat=5)))
    theta = free - grid @ la.T
    feas = np.all((theta >= 23.85 - 1e-12) & (theta <= 25.0 + 1e-12), axis=1)
    lattice_best = float(
        np.sqrt(((grid[feas] - small_ref) ** 2).sum(axis=1) * 0.5).min()
    )
    not_beaten = res.tracking_error <= lattice_best + 1e-7
    within_res = abs(res.tracking_error - lattice_best) < 0.01

    ok = rerun_same and collapse_same and not_beaten and within_res
    _verdict(
        "8b", "planner idempotence and 5-step lattice optimality at 0.01 kW",
        ok,
        f"solver error {res.tracking_error:.8f}, lattice best {lattice_best:.8f}",
    )
    assert rerun_same
    assert collapse_same
    assert not_beaten
    assert within_res


def test_criterion_8c_ensemble_oracle_equivalence():
    k_max = 4
    checked = 0
    mismatches = []
    for n_slots in range(2, 7):
        tables = multiset_sum_tables(n_slots, k_max)
        for ref in itertools.product(range(-2, 3), repeat=n_slots):
            if sum(ref) != 0 or not any(ref):
                continue
            claimed = vf.min_loads(list(ref))
            target = tuple(ref)
            brute = next(
                (k for k, tbl in enumerate(tables, start=1) if target in tbl), None
            )
            if claimed <= k_max:
                if brute != claimed:
                    mismatches.append((ref, claimed, brute))
            elif brute is not None:
                mismatches.append((ref, claimed, brute))
            sched = vf.schedule_tracking(list(ref))
            if sched.loads_used != claimed or not np.array_equal(
                sched.aggregate_units(), ref
            ):
                mismatches.append((ref, claimed, "greedy"))
            checked += 1
    ok = not mismatches
    _verdict(
        "8c", "fleet-size formula equals exhaustive search (slots <= 6, fleets <= 4)",
        ok, f"{checked} references checked, {len(mismatches)} mismatches",
    )
    assert checked > 2000
    assert mismatches == []


def test_criterion_8d_solver_determinism():
    lp = vf.LinearProgram(
        c=np.array([-0.75, 150.0, -0.02, 6.0]),
        lo=np.zeros(4),
        hi=np.array([np.inf, np.inf, 1.0, np.inf]),
        a_ub=np.array([[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0]]),
        b_ub=np.zeros(2),
    )
    lp_a = vf.solve_lp(lp)
    lp_b = vf.solve_lp(lp)
    lp_same = (
        lp_a.status == lp_b.status == "optimal"
        and lp_a.objective == lp_b.objective
        and np.array_equal(lp_a.x, lp_b.x)
        and lp_a.iterations == lp_b.iterations
    )

    rng = np.random.default_rng(12)
    qp = vf.BoxQP(
        h=rng.uniform(1.0, 2.0, size=8),
        g=rng.normal(size=8),
        lo=np.full(8, -1.0),
        hi=np.full(8, 1.0),
        a_ub=rng.normal(size=(4, 8)),
        b_ub=rng.normal(size=4) + 2.0,
    )
    qp_a = vf.solve_box_qp(qp)
    qp_b = vf.solve_box_qp(qp)
    qp_same = (
        qp_a.status == qp_b.status == "optimal"
        and np.array_equal(qp_a.x, qp_b.x)
        and qp_a.iterations == qp_b.iterations
    )

    ok = lp_same and qp_same
    _verdict("8d", "LP and QP reruns are bit-identical", ok)
    assert lp_same
    assert qp_same
