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

from .errors import InputError, ShapeError, SolverError
from .flexset import Scenario, _unreachable, feasible_window
from .qos import QoSSignal, satisfies
from .solver import (
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
    apow = np.where(mask, a ** np.where(mask, expo, 0), 0.0)
    free = (a ** (idx + 1)) * scn.theta0 + apow @ forcing
    return gain * apow, free


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


def _audited(
    scn: Scenario, ref: Trajectory, p: Trajectory, norm: str, tol: float
) -> tuple[Trajectory, float]:
    """Re-simulated theta and tracking error of p; SolverError past 10*tol."""
    theta = simulate(scn.params, scn.dist, p, scn.theta0)
    verdict = satisfies(QoSSignal(theta=theta), scn.bounds, atol=10.0 * tol)
    if not verdict.ok:
        raise SolverError(
            f"planned temperature leaves the comfort band at sample "
            f"{verdict.first_violation_index}: {verdict.value:.9g} degC "
            f"against limit {verdict.limit:.9g}"
        )
    return theta, tracking_error(p.values, ref.values, scn.dt, norm)


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
    a, gain, forcing = scn.dynamics()
    lo_t, hi_t = scn.bounds.theta_limits(n + 1)
    n_e = n if norm == "one" else 1
    n_var = 2 * n + n_e

    c = np.zeros(n_var)
    c[2 * n :] = scn.dt if norm == "one" else 1.0
    lo = np.concatenate([np.zeros(n), lo_t[1:], np.zeros(n_e)])
    hi = np.concatenate([np.full(n, scn.params.p_rated), hi_t[1:], np.full(n_e, np.inf)])

    # row k: gain*p_k + theta_{k+1} - a*theta_k = forcing[k], theta_0 known
    k = np.arange(n)
    a_eq = np.zeros((n, n_var))
    a_eq[k, k] = gain
    a_eq[k, n + k] = 1.0
    a_eq[k[1:], n + k[:-1]] = -a
    b_eq = forcing.copy()
    b_eq[0] += a * scn.theta0

    # rows k and n+k: -p_k - e <= -r_k and p_k - e <= r_k
    rows = np.arange(2 * n)
    a_ub = np.zeros((2 * n, n_var))
    a_ub[rows, rows % n] = np.repeat([-1.0, 1.0], n)
    a_ub[rows, 2 * n + (rows % n if norm == "one" else 0)] = -1.0
    b_ub = np.concatenate([-ref.values, ref.values])

    lp = LinearProgram(c=c, lo=lo, hi=hi, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    return solve_lp(lp)


def plan(
    scn: Scenario, ref: Trajectory, norm: str = "two", tol: float = 1e-7
) -> PlanResult:
    """Feasible demand closest to the reference in the chosen norm.

    Raises InfeasibleError when no demand trajectory can keep the comfort
    contract over the window, and SolverError if the optimizer gives up on a
    window that reachability analysis proved feasible or its re-simulated
    temperature leaves the band by more than 10*tol.
    """
    _check_norm(norm)
    _check_ref(scn, ref)
    ok, bad = feasible_window(scn)
    if not ok:
        raise _unreachable(scn, bad)
    if norm == "two":
        report = _plan_two(scn, ref, tol)
    else:
        report = _plan_lp(scn, ref, norm)
    if report.status != STATUS_OPTIMAL:
        # reachability said feasible, so this is numerical, not physical
        raise SolverError(
            f"planner solve failed on a reachable window: status {report.status}"
        )
    p = Trajectory(scn.dt, np.clip(report.x[: scn.n_steps], 0.0, scn.params.p_rated), unit="kW")
    theta, err = _audited(scn, ref, p, norm, tol)
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

    Each window is scn.window(t, w, theta_t) at the current temperature,
    so model and plan cannot drift apart.  The window shrinks near the end
    of the horizon rather than padding the disturbance record.  With
    apply_steps == window_steps == scn.n_steps this is exactly one plan.
    The stitched temperature is re-simulated on the full horizon and
    audited like a plan's.
    """
    _check_ref(scn, ref)
    if window_steps < 1:
        raise InputError("window_steps must be at least 1")
    if apply_steps < 1 or apply_steps > window_steps:
        raise InputError("apply_steps must be in [1, window_steps]")
    n = scn.n_steps
    lo_t, hi_t = (b.tolist() for b in scn.bounds.theta_limits(n + 1))
    executed = np.empty(n)
    th = scn.theta0
    starts = range(0, n, apply_steps)
    for t in starts:
        w = min(window_steps, n - t)
        k = min(apply_steps, w)
        # snap solver-tolerance grazes back inside sample t's band, where the
        # window starts; genuine violations cannot occur because each
        # executed sample came from a feasible plan
        th = min(max(th, lo_t[t]), hi_t[t])
        sub_ref = Trajectory(scn.dt, ref.values[t : t + w], unit=ref.unit)
        step_plan = plan(scn.window(t, w, th), sub_ref, norm=norm, tol=tol)
        executed[t : t + k] = step_plan.p.values[:k]
        th = float(step_plan.theta.values[k])
    p = Trajectory(scn.dt, executed, unit="kW")
    theta, err = _audited(scn, ref, p, norm, tol)
    return RollingResult(
        norm=norm,
        window_steps=window_steps,
        p=p,
        theta=theta,
        tracking_error=err,
        n_solves=len(starts),
    )
