"""The input contract: one check each for numbers, counts, held arrays and sampling grids.

Every scalar field is a finite number of the right sign, every count an
integer of at least its least value, every array a frozen value holds is
its own read-only copy, and every signal that must share a grid is held to
the one tolerance thermal.TIME_GRID_TOL_H.
"""

import dataclasses
import math

import numpy as np
import pytest

import vesflex as vf
from conftest import DT, hot_day_scenario, make_params

_PAR = make_params()
_SCN = hot_day_scenario(horizon_h=0.5)
_STATE = vf.MoistAirState(24.0, 0.009)
_SUPPLY = vf.MoistAirState(13.0, 0.004)
_WIDE = dataclasses.replace(_SCN, bounds=vf.QoSBounds(-25.0, 25.0), theta_sp=0.0, theta0=0.0)
_ONE_SAMPLE_JOB = vf.DeferrableSpec(0.0, 0.01, 1.0, 1.0)
# min x0 + x1 with x0 + x1 >= 1, and min (x0 - 1)^2 + x1^2 with x0 + x1 <= 1
_LP = vf.LinearProgram(np.ones(2), np.zeros(2), np.ones(2), a_ub=-np.ones((1, 2)), b_ub=[-1.0])
_QP = vf.BoxQP(np.full(2, 2.0), np.array([-2.0, 0.0]), np.zeros(2), np.ones(2),
               np.ones((1, 2)), np.ones(1))

# check -> (field the error names, its sign: True above zero, False zero or
# above, None either sign; the call it guards)
NUMBER_CHECKS = {
    "ThermalParams.r_thermal": ("r_thermal", True, lambda v: vf.ThermalParams(v, 1.0, 3.0, 2.0)),
    "ThermalParams.c_thermal": ("c_thermal", True, lambda v: vf.ThermalParams(1.0, v, 3.0, 2.0)),
    "ThermalParams.eta_cop": ("eta_cop", True, lambda v: vf.ThermalParams(1.0, 1.0, v, 2.0)),
    "ThermalParams.p_rated": ("p_rated", True, lambda v: vf.ThermalParams(1.0, 1.0, 3.0, v)),
    "Trajectory.dt": ("dt", True, lambda v: vf.Trajectory(v, [1.0])),
    "FlexEnvelope.dt": ("dt", True, lambda v: vf.FlexEnvelope(v, [0.5], [1.5])),
    "DisturbanceSeries.dt": ("dt", True, lambda v: vf.DisturbanceSeries(v, [30.0], [1.0])),
    "tf_magnitude": ("omega", False, lambda v: vf.tf_magnitude(_PAR, v)),
    "max_sine_amplitude": ("delta_theta", True, lambda v: vf.max_sine_amplitude(_PAR, v, 1.0)),
    "max_sine_amplitude.omega": ("omega", False, lambda v: vf.max_sine_amplitude(_PAR, 1.0, v)),
    "steady_sine_amplitude": ("omega", True, lambda v: vf.steady_sine_amplitude(_PAR, 0.1, v)),
    "DisturbanceSeries.constant": (
        "dt", True, lambda v: vf.DisturbanceSeries.constant(v, 3, 30.0, 1.0)
    ),
    "QoSBounds.theta_min": ("theta_min", None, lambda v: vf.QoSBounds(v, 25.0)),
    "QoSBounds.theta_max": ("theta_max", None, lambda v: vf.QoSBounds(-25.0, v)),
    "Scenario.theta_sp": (
        "theta_sp", None, lambda v: dataclasses.replace(_WIDE, theta_sp=v, theta0=0.0)
    ),
    "Scenario.theta0": (
        "theta0", None, lambda v: dataclasses.replace(_WIDE, theta_sp=0.0, theta0=v)
    ),
    "Scenario.window": ("theta0", None, lambda v: _WIDE.window(0, 2, v)),
    "bangbang_energy_oracle.delta_theta": (
        "delta_theta", False, lambda v: vf.bangbang_energy_oracle(_PAR, v, 1.0, 1.0)
    ),
    "bangbang_energy_oracle.p_tilde_max": (
        "p_tilde_max", True, lambda v: vf.bangbang_energy_oracle(_PAR, 1.0, v, 1.0)
    ),
    "bangbang_energy_oracle.horizon_h": (
        "horizon_h", False, lambda v: vf.bangbang_energy_oracle(_PAR, 1.0, 1.0, v)
    ),
    "DeferrableSpec.arrival_h": ("arrival_h", False, lambda v: vf.DeferrableSpec(v, 1.0, 2.0, 1.0)),
    "DeferrableSpec.energy_kwh": (
        "energy_kwh", False, lambda v: vf.DeferrableSpec(0.0, v, 2.0, 1.0)
    ),
    "DeferrableSpec.window_h": ("window_h", True, lambda v: vf.DeferrableSpec(0.0, 1.0, v, 1.0)),
    "DeferrableSpec.p_max": ("p_max", True, lambda v: vf.DeferrableSpec(0.0, 1.0, 2.0, v)),
    "front_loaded_profile": ("dt", True, lambda v: vf.front_loaded_profile(_ONE_SAMPLE_JOB, v, 5)),
    "MoistAirState.t_c": ("t_c", None, lambda v: vf.MoistAirState(v, 0.009)),
    "MoistAirState.w": ("w", False, lambda v: vf.MoistAirState(24.0, v)),
    "mix_air": ("outdoor_fraction", False, lambda v: vf.mix_air(_STATE, _SUPPLY, v)),
    "coil_thermal_power": (
        "m_dot_kg_s", False, lambda v: vf.coil_thermal_power(v, _STATE, _SUPPLY)
    ),
    "electric_demand": (
        "eta_chiller", True, lambda v: vf.electric_demand(1.0, _STATE, _SUPPLY, v)
    ),
    "electric_demand.m_dot_kg_s": (
        "m_dot_kg_s", False, lambda v: vf.electric_demand(v, _STATE, _SUPPLY, 3.0)
    ),
    "latent_fraction": ("latent", None, lambda v: vf.latent_fraction(v, 20.0)),
    "latent_fraction.sensible": ("sensible", None, lambda v: vf.latent_fraction(11.0, v)),
    "decay_factor": ("dt", True, lambda v: vf.decay_factor(_PAR, v)),
    "solve_lp": ("tol", True, lambda v: vf.solve_lp(_LP, v)),
    "solve_box_qp": ("tol", True, lambda v: vf.solve_box_qp(_QP, v)),
    "tracking_error": ("dt", True, lambda v: vf.tracking_error(np.ones(2), np.zeros(2), v, "one")),
    "baseline_trajectory": ("theta_sp", None, lambda v: vf.baseline_trajectory(_PAR, _SCN.dist, v)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, False, "1.0", -1.0])
@pytest.mark.parametrize("check", NUMBER_CHECKS)
def test_every_number_check_refuses_what_is_not_a_finite_number_of_its_sign(check, bad):
    field, positive, call = NUMBER_CHECKS[check]
    if positive is None and bad == -1.0:  # a number of either sign
        call(bad)
        return
    with pytest.raises(vf.InputError, match=f"^{field} must be finite"):
        call(bad)


@pytest.mark.parametrize("check", NUMBER_CHECKS)
def test_every_number_check_takes_a_finite_number_and_zero_only_when_non_negative(check):
    field, positive, call = NUMBER_CHECKS[check]
    call(1.0)
    call(np.float64(1.0))
    if positive:
        with pytest.raises(vf.InputError, match=f"^{field} must be finite and positive"):
            call(0.0)
    else:
        call(0)


_SHORT = vf.Trajectory(DT, [1.0, 1.0, 1.0])
_BANDED = dataclasses.replace(_SCN, bounds=vf.QoSBounds(
    np.full(_SCN.n_steps + 1, 23.0), np.full(_SCN.n_steps + 1, 25.0),
))
_REF = _SCN.baseline().power
_ENV = vf.envelope(_SCN)

# "function(parameter)" -> (its least value, the call it guards); every
# int-annotated public parameter is a row (test_tooling checks that)
COUNT_CHECKS = {
    "DisturbanceSeries.constant(n_steps)": (
        1, lambda v: vf.DisturbanceSeries.constant(DT, v, 30.0, 1.0)
    ),
    "DisturbanceSeries.slice(start)": (0, lambda v: _SCN.dist.slice(v, 1)),
    "DisturbanceSeries.slice(n_steps)": (1, lambda v: _SCN.dist.slice(0, v)),
    "Scenario.window(start)": (0, lambda v: _BANDED.window(v, 1, 24.0)),
    "Scenario.window(n_steps)": (1, lambda v: _BANDED.window(0, v, 24.0)),
    "receding_horizon(window_steps)": (1, lambda v: vf.receding_horizon(_SCN, _REF, v, "one")),
    "receding_horizon(apply_steps)": (
        1, lambda v: vf.receding_horizon(_SCN, _REF, 1, "one", apply_steps=v)
    ),
    "sample_interior_trajectories(n_draws)": (
        0, lambda v: vf.sample_interior_trajectories(_ENV, v, np.random.default_rng(0))
    ),
    "front_loaded_profile(n_steps)": (
        1, lambda v: vf.front_loaded_profile(_ONE_SAMPLE_JOB, DT, v)
    ),
    "schedule_tracking(n_loads)": (0, lambda v: vf.schedule_tracking([0, 0, 0], v)),
    "amplitude_at_timescale(n_loads)": (0, lambda v: vf.amplitude_at_timescale(v, 1)),
    "amplitude_at_timescale(tau_slots)": (1, lambda v: vf.amplitude_at_timescale(7, v)),
    "square_reference(amplitude_units)": (0, lambda v: vf.square_reference(v, 2)),
    "square_reference(tau_slots)": (1, lambda v: vf.square_reference(2, v)),
    "staircase_triangle(peak_units)": (1, lambda v: vf.staircase_triangle(v)),
}


@pytest.mark.parametrize("bad", [2.5, True, "3", None], ids=["2.5", "True", "'3'", "least-1"])
@pytest.mark.parametrize("check", COUNT_CHECKS)
def test_every_count_check_refuses_what_is_not_an_integer_of_its_least(check, bad):
    least, call = COUNT_CHECKS[check]
    field = check[check.index("(") + 1 : -1]
    bad = least - 1 if bad is None else bad
    with pytest.raises(vf.InputError, match=rf"^{field} must be an integer of at least {least}, "):
        call(bad)


@pytest.mark.parametrize("check", COUNT_CHECKS)
def test_every_count_check_takes_an_integer_at_its_least(check):
    least, call = COUNT_CHECKS[check]
    call(least)
    call(np.int64(least))


def test_a_fractional_time_scale_is_refused_not_truncated():
    # 1.5 slots once ran as 1: a square wave of tau 1 and an amplitude of 7 // 1
    with pytest.raises(vf.InputError, match="tau_slots must be an integer of at least 1, got 1.5"):
        vf.amplitude_at_timescale(7, 1.5)


# what every number field refuses: a bool array and a numeric-string one
_NOT_NUMBERS = ([True, False], ["1e3", "2"])

# kind -> (the caller's two arrays, the value built from them, the fields
# holding them, and what each of those fields refuses, repeated to its shape)
HOLDERS = {
    "Trajectory": (
        [0.0, 1.0, 0.0], None, lambda x, y: vf.Trajectory(DT, x), ["values"], _NOT_NUMBERS,
    ),
    "DisturbanceSeries": (
        [30.0, 31.0, 32.0], [1.0, 1.5, 2.0],
        lambda x, y: vf.DisturbanceSeries(DT, x, y), ["theta_a", "q_d"], _NOT_NUMBERS,
    ),
    "QoSBounds": (
        [23.0, 23.5, 23.0], [25.0, 24.5, 25.0],
        lambda x, y: vf.QoSBounds(x, y),
        ["theta_min", "theta_max"], _NOT_NUMBERS,
    ),
    "FlexEnvelope": (
        [0.5, 0.6, 0.7], [1.5, 1.6, 1.7],
        lambda x, y: vf.FlexEnvelope(DT, x, y), ["p_lo", "p_hi"], _NOT_NUMBERS,
    ),
    "BaselineResult": (
        [True, False, False], [False, False, True],
        lambda x, y: vf.BaselineResult(_SHORT, x, y), ["clamped_low", "clamped_high"],
        ([0.3, 0.0], ["True", "False"]),
    ),
    "SolveReport": (
        [0.0, 1.0, 2.0], None, lambda x, y: vf.SolveReport("optimal", 0.0, x, 1), ["x"],
        _NOT_NUMBERS,
    ),
    "EnsembleSchedule": (
        [[1, -1, 0]], None, lambda x, y: vf.EnsembleSchedule(x), ["actions"],
        (*_NOT_NUMBERS, [256, 0], [0.7, -0.7], [math.nan, 0]),
    ),
    "LinearProgram": (
        [1.0, 2.0, 3.0], [0.0, 1.0, 0.0],
        lambda x, y: vf.LinearProgram(x, y, np.full(3, 9.0)), ["c", "lo"], _NOT_NUMBERS,
    ),
    "BoxQP": (
        [0.0, 1.0, 2.0], [[1.0, 0.0, -1.0]],
        lambda x, y: vf.BoxQP(np.ones(3), x, np.zeros(3), np.ones(3), y, np.ones(1)),
        ["g", "a_ub"], _NOT_NUMBERS,
    ),
}


@pytest.mark.parametrize("kind", HOLDERS)
def test_a_frozen_value_holds_a_read_only_copy_and_leaves_the_callers_array_writable(kind):
    first, second, build, fields, _ = HOLDERS[kind]
    dtype = np.int8 if kind == "EnsembleSchedule" else None
    mine = [np.array(a, dtype=dtype) for a in (first, second) if a is not None]
    value = build(*mine, *[None] * (2 - len(mine)))
    held = [getattr(value, name) for name in fields]
    before = [h.copy() for h in held]
    for h in held:
        assert not h.flags.writeable
        assert not any(np.shares_memory(h, m) for m in mine)
        with pytest.raises(ValueError, match="read-only"):
            h[0] = h[-1]
    for m in mine:  # the caller's arrays stay writable, and theirs alone
        assert m.flags.writeable
        m[0] = m[-1] if m.dtype == bool else m[0] + 1
    assert all(np.array_equal(h, b) for h, b in zip(held, before))


@pytest.mark.parametrize("kind", HOLDERS)
def test_a_held_array_refuses_what_its_field_cannot_hold_exactly(kind):
    # ["1e3", "2"] was once held as [1000, 2], and the schedule [[256, 0]]
    # as [[0, 0]], which validate_schedule then passed
    first, second, build, fields, refused = HOLDERS[kind]
    for i, name in enumerate(fields):
        for bad in refused:
            args = [first, second]
            args[i] = np.resize(np.array(bad), np.shape(args[i]))
            with pytest.raises(vf.InputError, match=f"^{name} must "):
                build(*args)


# every value holding an array, directly or through a field -> a call that builds one afresh
_ARRAY_VALUES = {
    **{kind: lambda kind=kind: HOLDERS[kind][2](*HOLDERS[kind][:2]) for kind in HOLDERS},
    "Scenario": lambda: hot_day_scenario(horizon_h=0.5),
    "PlanResult": lambda: vf.plan(_SCN, _SCN.baseline().power, "one"),
    "CounterexampleResult": lambda: vf.counterexample_check(
        vf.DeferrableSpec(0.0, 0.01, 0.5, 1.0), _SCN
    ),
}


@pytest.mark.parametrize("kind", _ARRAY_VALUES)
def test_a_value_holding_an_array_compares_and_hashes_by_identity(kind):
    # == once raised "truth value of an array is ambiguous" and hash raised
    # TypeError on every Scenario and every value of two samples or more
    value, twin = _ARRAY_VALUES[kind](), _ARRAY_VALUES[kind]()
    assert value == value and not value != value
    assert value != twin and not value == twin
    assert {value: kind}[value] == kind and hash(value) == hash(value)


@pytest.mark.parametrize("name", ["theta_min", "theta_max"])
def test_per_sample_bounds_refuse_nan(name):
    # a NaN floor from sample 5 of a 60-step paper day once read as no floor:
    # characterize gave 1.000 kWh of charge energy and an hour at p_rated passed
    bounds = {"theta_min": np.full(61, 23.0), "theta_max": np.full(61, 25.0)}
    bounds[name][5:] = math.nan
    with pytest.raises(vf.InputError, match=name):
        vf.QoSBounds(**bounds)


@pytest.mark.parametrize("field", ["theta0", "theta_sp"])
def test_a_scenario_takes_its_start_and_setpoint_anywhere_in_the_bands_hull(field):
    # a per-sample floor may dip below its other samples: the start and the
    # setpoint are judged against the hull [min theta_min, max theta_max]
    lo = np.full(_SCN.n_steps + 1, 23.0)
    lo[7] = 22.0
    band = vf.QoSBounds(lo, 25.0)
    assert getattr(dataclasses.replace(_SCN, bounds=band, **{field: 22.0}), field) == 22.0
    with pytest.raises(vf.InputError, match=rf"{field} 21.9 outside comfort band \[22.0, 25.0\]"):
        dataclasses.replace(_SCN, bounds=band, **{field: 21.9})


@pytest.mark.parametrize("lo, hi, error, says", [
    (np.full(61, 23.0), np.full(60, 25.0), vf.ShapeError, "theta_min has 61 samples"),
    (np.full(61, 24.0), np.full(61, 24.0), vf.InputError, "lower < upper"),
    (np.full(61, 25.0), 25.0, vf.InputError, "lower < upper"),
    (23.0, np.full(61, 23.0), vf.InputError, "lower < upper"),
])
def test_per_sample_bounds_are_ordered_and_of_one_length_when_built(lo, hi, error, says):
    # once checked on every theta_limits call, 31,643 times in one rolling plan
    with pytest.raises(error, match=says):
        vf.QoSBounds(lo, hi)


def test_a_scenario_holds_its_limits_and_dynamics_read_only():
    for scn in (_SCN, _BANDED):
        first, again = scn.theta_limits(), scn.theta_limits()
        assert all(f is g for f, g in zip(first, again))
        forcing = scn.dynamics()[2]
        assert forcing is scn.dynamics()[2]
        for held in (*first, forcing):
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 0.0


@pytest.mark.parametrize("theta_a, q_d", [(1e308, 1e308), (-1e308, -1e308), (0.0, 1e308)])
def test_a_forcing_that_overflows_is_refused_by_its_inputs(theta_a, q_d):
    # theta_a + R q_d once overflowed into numpy's RuntimeWarning, then an
    # error that named the private field _forcing
    ta, qd = np.zeros(5), np.zeros(5)
    ta[3], qd[3] = theta_a, q_d
    dist = vf.DisturbanceSeries(DT, ta, qd)
    says = r"^theta_a\[3\] = \S+ C and q_d\[3\] = \S+ kW overflow"
    with pytest.raises(vf.InputError, match=says):
        vf.Scenario(_PAR, vf.QoSBounds(-1e308, 1e308), dist, 0.0, 0.0)


@pytest.mark.parametrize("eta_cop", [1e308, 1e160])
def test_a_gain_whose_square_overflows_is_refused_by_eta_cop(eta_cop):
    # the two-norm plan once ended in an OverflowError traceback at gain**2
    par = dataclasses.replace(_PAR, eta_cop=eta_cop)
    with pytest.raises(vf.InputError, match=r"^eta_cop \S+ makes one step's gain \S+ C/kW"):
        dataclasses.replace(_SCN, params=par)
    dataclasses.replace(_SCN, params=dataclasses.replace(_PAR, eta_cop=1e150))


@pytest.mark.parametrize("eta_cop, p_rated, says", [
    (1e-8, _PAR.p_rated, r"let rated demand move theta \S+ C per step, below 1e-6 C"),
    (1e-200, 1e300, r"make one step's gain \S+ C/kW, whose square underflows"),
])
def test_a_gain_that_vanishes_is_refused_by_eta_cop_and_dt(eta_cop, p_rated, says):
    # demand read back as (a theta + forcing - theta') / gain multiplies
    # theta's rounding by 1 / gain: at eta_cop 1e-8 the two-norm plan found
    # no convergence and the one-norm plan tracked with error 1.1e-4 where 0
    # was feasible, and both passed the audit
    par = dataclasses.replace(_PAR, eta_cop=eta_cop, p_rated=p_rated)
    with pytest.raises(vf.InputError, match=rf"^eta_cop {eta_cop} and dt {DT} h {says}"):
        dataclasses.replace(_SCN, params=par)
    # the floor: rated demand moves theta 1e-6 C in one step
    gain = _SCN.dynamics()[1] / _PAR.eta_cop
    floor = 1e-6 / (gain * _PAR.p_rated)
    dataclasses.replace(_SCN, params=dataclasses.replace(_PAR, eta_cop=1.01 * floor))
    with pytest.raises(vf.InputError, match="below 1e-6 C"):
        dataclasses.replace(_SCN, params=dataclasses.replace(_PAR, eta_cop=0.99 * floor))


# value or call -> (the call, fed arrays that cannot line up, and what its ShapeError says)
SHAPE_CHECKS = {
    "DisturbanceSeries": (
        lambda: vf.DisturbanceSeries(DT, [30.0, 31.0], [1.5]), "theta_a has 2 samples but q_d",
    ),
    "FlexEnvelope": (lambda: vf.FlexEnvelope(DT, [0.5, 0.6], [1.5]), "p_lo and p_hi must be"),
    "tracking_error": (
        lambda: vf.tracking_error(np.zeros(3), np.zeros(4), DT, "two"), "shape mismatch",
    ),
    "min_loads(2-D)": (lambda: vf.min_loads([[1, -1]]), "non-empty 1-D"),
    "min_loads(empty)": (lambda: vf.min_loads([]), "non-empty 1-D"),
    "Trajectory(2-D)": (lambda: vf.Trajectory(DT, [[1.0, 2.0]]), "values must be a non-empty 1-D"),
    "Trajectory(empty)": (lambda: vf.Trajectory(DT, []), "values must be a non-empty 1-D"),
    "EnsembleSchedule(1-D)": (
        lambda: vf.EnsembleSchedule(np.array([1, -1], dtype=np.int8)), "actions must be a 2-D",
    ),
    "DisturbanceSeries.slice": (
        lambda: _SCN.dist.slice(_SCN.n_steps - 1, 2), rf"exceeds {_SCN.n_steps} samples",
    ),
}


@pytest.mark.parametrize("check", SHAPE_CHECKS)
def test_every_shape_check_refuses_arrays_that_do_not_line_up(check):
    call, says = SHAPE_CHECKS[check]
    with pytest.raises(vf.ShapeError, match=says):
        call()


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("site", ["plan", "receding_horizon"])
def test_a_reference_sample_far_outside_the_rated_range_is_refused_by_name(site, side):
    # a two-norm plan stalled on a 1e24 kW step, and the one- and inf-norm
    # plans overflowed near 1e306 kW, each its own way
    reach = vf.planner.REF_REACH * _PAR.p_rated
    r = _REF.values.copy()
    r[5] = -1.001 * reach if side == "below" else _PAR.p_rated + 1.001 * reach
    ref = vf.Trajectory(DT, r)
    with pytest.raises(vf.InputError, match=r"^ref\[5\] = .* p_rated outside \[0, "):
        if site == "plan":
            vf.plan(_SCN, ref)
        else:
            vf.receding_horizon(_SCN, ref, 10)


def _grid_sites(n, dt):
    """Each check that a signal sits on another's grid, fed n samples dt apart."""
    scn = _SCN
    p = vf.Trajectory(dt, np.full(n, 1.0))
    return {
        "simulate": lambda: vf.simulate(scn.params, scn.dist, p, scn.theta0),
        "plan": lambda: vf.plan(scn, p, norm="one"),
        "receding_horizon": lambda: vf.receding_horizon(scn, p, 10, norm="one"),
        "audit": lambda: vf.flexset.audit(p, scn),
        "is_member": lambda: vf.is_member(p, scn),
        "require_member": lambda: vf.flexset.require_member(p, scn, "demand"),
    }


@pytest.mark.parametrize("site", list(_grid_sites(1, DT)))
def test_every_grid_check_uses_one_tolerance(site):
    n, tol = _SCN.n_steps, vf.thermal.TIME_GRID_TOL_H
    _grid_sites(n, DT + 0.1 * tol)[site]()
    for n_bad, dt_bad in ((n, DT + 10 * tol), (n - 1, DT), (n + 1, DT)):
        with pytest.raises(vf.ShapeError, match="samples"):
            _grid_sites(n_bad, dt_bad)[site]()
