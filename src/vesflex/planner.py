"""Reference-tracking demand planners over the zone thermal model.

Given a reference demand trajectory (for example a grid-services dispatch
request on top of the baseline), the planner picks the feasible demand
closest to it.  "Closest" is one of three norms on the residual r - p:

* two : sum of squared residuals, weighted by dt.  Solved as a box QP in p
        alone; the temperature recursion is eliminated into a triangular
        input-to-state map, leaving dense inequality rows.
* one : dt-weighted absolute residual sum.  Epigraph LP.
* inf : worst residual.  Epigraph LP with a single bound variable.

An infeasible planning window is a hard error, not a best-effort answer:
the caller must know the comfort contract cannot be met.  Feasibility is
decided exactly (and cheaply) beforehand by interval forward reachability
(flexset.feasible_window), which a scalar monotone system admits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InputError, ShapeError, SolverError
from .flexset import Scenario, feasible_window, require_temperature_only
from .solver import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    BoxQP,
    LinearProgram,
    SolveReport,
    solve_box_qp,
    solve_lp,
)
from .thermal import Trajectory, simulate

NORMS = ("two", "one", "inf")


def _check_norm(norm: str) -> None:
    if norm not in NORMS:
        raise InputError(f"norm must be one of {NORMS}, got {norm!r}")


def _check_ref(scn: Scenario, ref: Trajectory) -> None:
    if len(ref) != scn.n_steps:
        raise ShapeError(
            f"reference has {len(ref)} samples but scenario has {scn.n_steps}"
        )
    if abs(ref.dt - scn.dt) > 1e-9:
        raise ShapeError(f"reference dt {ref.dt} does not match scenario {scn.dt}")


def input_to_state_map(scn: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Triangular demand-to-temperature map and the demand-free response.

    Returns (L, free) with theta_{k+1} = free[k] - (L @ p)[k] for
    k = 0..N-1.  L[i, j] = (1-a) R eta_cop a^(i-j) for j <= i, else 0.
    """
    n = scn.n_steps
    a, gain, forcing = scn.dynamics()
    idx = np.arange(n)
    expo = idx[:, None] - idx[None, :]
    mask = expo >= 0
    lmat = np.where(mask, gain * a ** np.where(mask, expo, 0), 0.0)
    apow = np.where(mask, a ** np.where(mask, expo, 0), 0.0)
    free = (a ** (idx + 1)) * scn.theta0 + apow @ forcing
    return lmat, free


@dataclass(frozen=True)
class PlanResult:
    """Feasible demand plan plus the temperature it produces.

    tracking_error follows the norm convention: sqrt(sum((r-p)^2) dt) for
    "two", sum(|r-p|) dt for "one", max|r-p| for "inf".
    """

    norm: str
    p: Trajectory
    theta: Trajectory
    tracking_error: float
    report: SolveReport


def tracking_error(
    p: np.ndarray, ref: np.ndarray, dt: float, norm: str
) -> float:
    _check_norm(norm)
    p = np.asarray(p, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if p.shape != ref.shape:
        raise ShapeError(f"shape mismatch {p.shape} vs {ref.shape}")
    res = ref - p
    if norm == "two":
        return math.sqrt(float(res @ res) * dt)
    if norm == "one":
        return float(np.abs(res).sum()) * dt
    return float(np.abs(res).max(initial=0.0))


def _plan_two(scn: Scenario, ref: Trajectory, tol: float) -> SolveReport:
    n = scn.n_steps
    lmat, free = input_to_state_map(scn)
    lo_t, hi_t = scn.bounds.theta_limits(n + 1)
    a_ub = np.vstack([lmat, -lmat])
    b_ub = np.concatenate([free - lo_t[1:], hi_t[1:] - free])
    qp = BoxQP(
        h=np.full(n, 2.0),
        g=-2.0 * ref.values,
        lo=np.zeros(n),
        hi=np.full(n, scn.params.p_rated),
        a_ub=a_ub,
        b_ub=b_ub,
    )
    return solve_box_qp(qp, tol=tol)


def _plan_lp(scn: Scenario, ref: Trajectory, norm: str) -> SolveReport:
    """Epigraph LP over stacked (p, theta, e) variables.

    theta_1..theta_N are kept as explicitly bounded variables tied to p by
    one equality row per step; that keeps every matrix entry O(1) instead
    of the a^k fill of the eliminated form, which the simplex prefers.
    """
    n = scn.n_steps
    par = scn.params
    a, gain, forcing = scn.dynamics()
    lo_t, hi_t = scn.bounds.theta_limits(n + 1)
    n_e = n if norm == "one" else 1
    n_var = 2 * n + n_e

    c = np.zeros(n_var)
    c[2 * n :] = scn.dt if norm == "one" else 1.0
    lo = np.concatenate([np.zeros(n), lo_t[1:], np.zeros(n_e)])
    hi = np.concatenate(
        [np.full(n, par.p_rated), hi_t[1:], np.full(n_e, np.inf)]
    )

    a_eq = np.zeros((n, n_var))
    b_eq = forcing.copy()
    for k in range(n):
        a_eq[k, k] = gain
        a_eq[k, n + k] = 1.0
        if k == 0:
            b_eq[0] += a * scn.theta0
        else:
            a_eq[k, n + k - 1] = -a

    a_ub = np.zeros((2 * n, n_var))
    b_ub = np.concatenate([-ref.values, ref.values])
    for k in range(n):
        e_col = 2 * n + (k if norm == "one" else 0)
        a_ub[k, k] = -1.0
        a_ub[k, e_col] = -1.0
        a_ub[n + k, k] = 1.0
        a_ub[n + k, e_col] = -1.0

    lp = LinearProgram(c=c, lo=lo, hi=hi, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    return solve_lp(lp)


def plan(
    scn: Scenario, ref: Trajectory, norm: str = "two", tol: float = 1e-7
) -> PlanResult:
    """Feasible demand closest to the reference in the chosen norm.

    Raises InfeasibleError when no demand trajectory can keep the comfort
    contract over the window, SolverError if the optimizer gives up on a
    window that reachability analysis proved feasible, and InputError when
    the contract bounds humidity or lockout, which the plan cannot enforce.
    """
    _check_norm(norm)
    _check_ref(scn, ref)
    require_temperature_only(scn)
    ok, bad = feasible_window(scn)
    if not ok:
        raise InfeasibleError(
            f"comfort band cannot be held at sample {bad} "
            f"(t = {bad * scn.dt:.6g} h) under any demand in [0, "
            f"{scn.params.p_rated}] kW"
        )
    if norm == "two":
        report = _plan_two(scn, ref, tol)
    else:
        report = _plan_lp(scn, ref, norm)
    if report.status == STATUS_INFEASIBLE:
        # reachability said feasible, so this is numerical, not physical
        raise SolverError(
            f"optimizer reported infeasible on a reachable window: {report}"
        )
    if report.status != STATUS_OPTIMAL:
        raise SolverError(f"planner solve failed: status {report.status}")
    p = Trajectory(scn.dt, np.clip(report.x[: scn.n_steps], 0.0, scn.params.p_rated), unit="kW")
    theta = simulate(scn.params, scn.dist, p, scn.theta0)
    err = tracking_error(p.values, ref.values, scn.dt, norm)
    return PlanResult(norm=norm, p=p, theta=theta, tracking_error=err, report=report)


@dataclass(frozen=True)
class RollingResult:
    """Closed-loop result of receding-horizon planning.

    Unlike PlanResult there is no single solver report; n_solves windows
    were solved and the executed first samples were stitched together, with
    the temperature re-simulated on the full horizon.
    """

    norm: str
    window_steps: int
    p: Trajectory
    theta: Trajectory
    tracking_error: float
    n_solves: int


def receding_horizon(
    scn: Scenario,
    ref: Trajectory,
    window_steps: int,
    norm: str = "two",
    tol: float = 1e-7,
    apply_steps: int = 1,
) -> RollingResult:
    """Re-plan over a sliding window, executing apply_steps samples per solve.

    Each window sees the true current temperature, so model and plan cannot
    drift apart.  The window shrinks near the end of the horizon rather
    than padding the disturbance record.  With apply_steps == window_steps
    == scn.n_steps this collapses to a single one-shot plan.
    """
    _check_norm(norm)
    _check_ref(scn, ref)
    if window_steps < 1:
        raise InputError("window_steps must be at least 1")
    if apply_steps < 1 or apply_steps > window_steps:
        raise InputError("apply_steps must be in [1, window_steps]")
    n = scn.n_steps
    executed = np.empty(n)
    th = scn.theta0
    n_solves = 0
    t = 0
    while t < n:
        w = min(window_steps, n - t)
        k = min(apply_steps, w)
        # snap solver-tolerance grazes back inside the band so the window
        # scenario validates; genuine violations cannot occur because each
        # executed sample came from a feasible plan
        th_clip = min(max(th, scn.bounds.theta_min), scn.bounds.theta_max)
        sub = scn.with_state(th_clip, scn.dist.slice(t, w))
        sub_ref = Trajectory(scn.dt, ref.values[t : t + w], unit=ref.unit)
        step_plan = plan(sub, sub_ref, norm=norm, tol=tol)
        n_solves += 1
        executed[t : t + k] = step_plan.p.values[:k]
        chunk = simulate(
            scn.params, scn.dist.slice(t, k),
            Trajectory(scn.dt, executed[t : t + k], unit="kW"), th_clip,
        )
        th = float(chunk.values[-1])
        t += k
    p = Trajectory(scn.dt, executed, unit="kW")
    theta = simulate(scn.params, scn.dist, p, scn.theta0)
    err = tracking_error(p.values, ref.values, scn.dt, norm)
    return RollingResult(
        norm=norm,
        window_steps=window_steps,
        p=p,
        theta=theta,
        tracking_error=err,
        n_solves=n_solves,
    )
