"""Reference-tracking demand planners over the zone thermal model.

Given a reference demand trajectory (for example a grid-services dispatch
request on top of the baseline), the planner picks the feasible demand
closest to it.  "Closest" is one of three norms on the residual r - p:

* two : sum of squared residuals, weighted by dt.  A primal-dual interior
        point (Mehrotra) on the temperature path: every row touches one or
        two adjacent samples, so each Newton step is one O(n) tridiagonal
        sweep, and a Lagrangian bound certifies the duality gap.
* one : dt-weighted absolute residual sum.  A forward ride through
        flexset.feasible_band: step k applies the rated demand nearest r_k
        and clips the state it lands on into the band at k+1.
* inf : worst residual.  Bisection on e, each probe one forward pass of
        reachability under the demand box [r_k - e, r_k + e] in
        [0, p_rated]; then the ride through the smallest feasible e's band.

The ride is exact in the one-norm.  Clipping x into an interval J gives
|x - proj x| + |u - proj x| = |u - x| for every u in J; the band and
[0, p_rated] are such intervals, and the decay a <= 1 shrinks state gaps.
So for any feasible plan (u, q), input gain g and every k, by induction,

    sum_{j<k} |r_j - p_j| + |theta_k - u_k| / g  <=  sum_{j<k} |r_j - q_j|.

On e*'s band the ride is the inf-norm argmin chosen: among the plans with
worst residual e*, the one closest to the reference in the one-norm.

A plan reports a lower bound on the optimal error (the interior point's
Lagrangian bound, or the bisection's largest infeasible e) and its
solves, the windows that ran plan, which a rolling two-norm plan keeps
below its window count by continuing each window from the last plan's
active set.

That set holds the samples the last plan left on a temperature bound and
the steps it left at 0 or p_rated.  The window's candidate set shifts it
by the executed steps; over the samples the window appends it rides
clip(r, 0, p_rated) forward and holds the band edge wherever that ride
would leave the band.  Held as equalities, a held theta cuts the path and
a held p ties theta_{k+1} affinely to theta_k, so the free states form a
chain and one _riccati sweep solves the equality-constrained QP in O(w).
One backward costate pass, mu = gain * lambda in kW, gives the multipliers:

    free p_k:      mu_{k+1} = 2 (r_k - p_k)
    held p_k:      mu_{k+1} = a mu_{k+2},  pi_k = 2 (r_k - p_k) - mu_{k+1}
    held theta_j:  eta_j = a mu_{j+1} - mu_j

with pi_k >= 0 at p_rated and <= 0 at 0, eta_j >= 0 on the upper bound
and <= 0 on the lower.  The objective is strictly convex in p, so a
candidate whose re-simulation (thermal.simulate, the one the audits use)
keeps every bound and whose multipliers all have their signs meets the
KKT conditions: it is the window's unique optimum, whatever set produced
it.  Otherwise one constraint is exchanged, holding the worst violation or
freeing the worst wrong-signed multiplier, and the QP is solved again.  No
step holds both p_k and theta_{k+1}, which would over-determine theta_k:
holding one frees the other.  A degenerate window whose optimum needs both
therefore cycles, and after _TRIES sets falls back to plan, the interior
point, as does any window the exchanges do not settle.  A still-optimal
tail whose appended samples land strictly inside the band, Bellman's
case, needs no exchange.  One- and inf-norm windows are planned afresh:
their argmin is not unique, so a continued plan could differ from a fresh
one.

An infeasible planning window is a hard error, not a best-effort answer:
the caller must know the comfort contract cannot be met.  Every norm first
runs the rated forward pass, exact and cheap for a scalar monotone system;
only the rides run the backward pass, each on a forward pass already run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ShapeError, SolverError, require_count, require_positive
from .flexset import (
    _SNAP_TOL, Scenario, _forward_reach, _rated_box, _reachable, _viable, require_member,
)
from .thermal import Trajectory, _check_grid, simulate

NORMS = ("two", "one", "inf")

# Farthest a reference sample may lie outside [0, p_rated], in p_rated.  The
# two-norm interior point stops on a gap relative to its objective, which grows
# with the square of the reach, so its plan drifts from the optimum as the reach
# grows: on 60-step paper windows, by up to 5e-13 kW at 10 p_rated out and 5e-8 kW
# at 1000.  At 1e24 p_rated it does not converge, and near 1e306 kW the one- and
# inf-norm plans overflow.
REF_REACH = 10.0

# slack, in degrees C, of the audit on every plan's re-simulated temperature
_AUDIT_ATOL = 1e-6

# a solve's demand, its iterations and its certified lower bound on the error
_Solved = tuple[np.ndarray, int, float]


def _check_norm(norm: str) -> None:
    if norm not in NORMS:
        raise InputError(f"norm must be one of {NORMS}, got {norm!r}")


def _check_reference(scn: Scenario, ref: Trajectory) -> None:
    _check_grid("reference", ref, scn.n_steps, scn.dt)
    r, p_rated = ref.values, float(scn.params.p_rated)
    # limits are Python floats, so one that overflows is inf, not a numpy warning
    far = np.flatnonzero((r < -REF_REACH * p_rated) | (r > (1 + REF_REACH) * p_rated))
    if far.size:
        raise InputError(f"ref[{far[0]}] = {r[far[0]]:.6g} kW lies more than "
                         f"{REF_REACH:g} p_rated outside [0, {p_rated}] kW")


def input_to_state_map(scn: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Triangular demand-to-temperature map and the demand-free response.

    Returns (L, free) with theta_{k+1} = free[k] - (L @ p)[k] for
    k = 0..N-1.  L[i, j] = (1-a) R eta_cop a^(i-j) for j <= i, else 0.
    Oracle only: criterion 8b's lattice and the tests' dense box QP read
    it; every plan works on the band or the temperature path instead.
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
    """Feasible demand plan, the temperature it produces, and its certificate.

    tracking_error follows the norm convention: sqrt(sum((r-p)^2) dt) for
    "two", sum(|r-p|) dt for "one", max|r-p| for "inf".  bound is a
    certified lower bound on the optimal tracking_error, in its units: the
    square root of the interior point's Lagrangian bound in the two-norm,
    the bisection's largest infeasible e in the inf-norm.  It is None for
    the one-norm ride, exact by proof, and for a stitched rolling plan.
    iterations sums interior-point steps or bisection halvings over every
    solve (0 in the one-norm).  solves counts the windows planned by plan:
    1 for a one-shot plan, every window of a rolling one- or inf-norm plan,
    and in a rolling two-norm plan the interior-point solves, the first
    window's and those of the windows the continuation could not certify.
    """

    norm: str
    p: Trajectory
    theta: Trajectory
    tracking_error: float
    bound: float | None
    iterations: int
    solves: int


def tracking_error(
    p: np.ndarray, ref: np.ndarray, dt: float, norm: str
) -> float:
    _check_norm(norm)
    require_positive("dt", dt)
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


# interior-point stop: primal residual and duality gap relative to the data.
# Below _IPM_FLOOR of them, residual and complementarity s.z are rounding.  An
# iterate whose residual is rounding and whose gap f - dual is within _IPM_NEAR of
# f is a candidate.  Once s.z is rounding, no step can shrink the gap: the first
# that leaves it no smaller than the best candidate's returns that candidate
_IPM_EPS, _IPM_FLOOR, _IPM_NEAR, _IPM_MAX_ITER = 1e-13, 1e-15, 1e-12, 100


def _riccati(a: np.ndarray, rho: np.ndarray, w: np.ndarray):
    """Solver for diag(w) + sum_k rho_k v_k v_k^T, v_k = a_k e_{k-1} - e_k.

    The matrix is tridiagonal; a_k is step k's decay, and a_0 is unused.
    The two-norm Newton matrix diag(w) + D^T diag(rho gain^2) D has a_k = a
    throughout; a chain of free states (_hold) has varying decays, 0 where
    a fixed temperature cuts it.  A Thomas sweep run backward in scalar
    Riccati form: each pivot is a sum of positive terms, so none cancels to
    zero as barrier weights grow.
    """
    decay, inv, tail = [], [], 0.0
    for ak, rk, wk in zip(reversed(a.tolist()), reversed(rho.tolist()), reversed(w.tolist())):
        inv.append(1.0 / (rk + wk + tail))
        decay.append(ak * rk * inv[-1])
        tail = ak * decay[-1] * (wk + tail)

    def solve(b: np.ndarray) -> np.ndarray:
        q, acc = [], 0.0
        for dk, bk in zip([0.0] + decay, reversed(b.tolist())):  # costs-to-go
            acc = bk + dk * acc
            q.append(acc)
        y, acc = [], 0.0
        for dk, ik, qk in zip(reversed(decay), reversed(inv), reversed(q)):  # states
            acc = dk * acc + ik * qk
            y.append(acc)
        return np.array(y)

    return solve


def _plan_two(scn: Scenario, r: np.ndarray) -> _Solved:
    """Mehrotra predictor-corrector on x = theta_1..N; objective dt*sum((r-p)^2)."""
    a, gain, forcing = scn.dynamics()
    lo_t, hi_t = scn.theta_limits()
    c = forcing / gain  # p = c + D x, with (D x)_k = (a x_{k-1} - x_k) / gain
    c[0] += a * scn.theta0 / gain

    def dtmul(y):  # D^T y
        return (a * np.append(y[1:], 0.0) - y) / gain

    def gmul(x):
        y = (a * np.append(0.0, x[:-1]) - x) / gain  # D x
        return np.stack([x, -x, y, -y])

    # G x <= h: theta <= hi, theta >= lo, p <= p_rated, p >= 0
    h = np.stack([hi_t[1:], -lo_t[1:], scn.params.p_rated - c, c])
    scale = 1.0 + float(np.abs(h).max())
    best = ()  # the best candidate's gap, x and dual
    x = 0.5 * (lo_t[1:] + hi_t[1:])
    decays = np.full(x.size, a)
    s = np.maximum(h - gmul(x), 1.0)
    z = np.ones_like(s)
    for it in range(_IPM_MAX_ITER + 1):
        slack = gmul(x) - h
        rp = slack + s
        res = slack[2] + scn.params.p_rated - r  # p - r
        f = float(res @ res)
        rd = dtmul(2.0 * res + z[2] - z[3]) + z[0] - z[1]
        # Lagrangian bound: the least f + z.(G x' - h) over all x' is its value
        # at x less |D^-T rd|^2 / 4; dropping rows x overshoots keeps it <= f
        acc = wsq = 0.0
        for rj in reversed(rd.tolist()):
            acc = a * acc - gain * rj
            wsq += acc * acc
        dual = f + float(np.sum(z * np.minimum(slack, 0.0))) - 0.25 * wsq
        # the residual rp leaves z.(G x - h), so the gap, open by up to z.|rp|
        slop = _IPM_EPS * (1.0 + f) + float(np.sum(z * np.abs(rp)))
        rp_max, gap = float(np.abs(rp).max()), float(np.sum(s * z))
        if rp_max <= _IPM_EPS * scale and f - dual <= slop:
            break
        if best and f - dual >= best[0] and gap <= _IPM_FLOOR * (1.0 + f):
            _, x, dual = best
            break
        if (rp_max <= _IPM_FLOOR * scale and f - dual <= _IPM_NEAR * (1.0 + f)
                and (not best or f - dual < best[0])):
            best = f - dual, x, dual
        if it == _IPM_MAX_ITER:
            raise SolverError(f"two-norm plan: no convergence in {it} iterations")
        w = z / s
        solve = _riccati(decays, (2.0 + w[2] + w[3]) / gain**2, w[0] + w[1])

        def newton(rc, frac):  # the step, and frac of how far s and z each stay >= 0
            v = w * rp - rc / s
            dx = solve(v[1] - v[0] - dtmul(v[2] - v[3]) - rd)
            ds = -rp - gmul(dx)
            dz = -(rc + z * ds) / s
            ls, lz = (min(1.0, frac * float(np.min(-u[du < 0] / du[du < 0], initial=np.inf)))
                      for u, du in ((s, ds), (z, dz)))
            return dx, ds, dz, ls, lz

        dx, ds, dz, ls, lz = newton(s * z, 1.0)
        sigma = (float(np.sum((s + ls * ds) * (z + lz * dz))) / gap) ** 3
        # primal and dual lengths apart: one shared length can cycle
        dx, ds, dz, ls, lz = newton(s * z + ds * dz - sigma * gap / s.size, 0.99)
        x, s, z = x + ls * dx, s + ls * ds, z + lz * dz
    p = scn.step_demand(np.append(scn.theta0, x[:-1]), x)
    return p, it, math.sqrt(max(dual * scn.dt, 0.0))


def _ride(scn: Scenario, target: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Demand of the ride through the band [lo, hi] steering at target."""
    a, gain, forcing = scn.dynamics()
    push = (forcing - gain * target).tolist()
    theta = [scn.theta0]
    for k, (d, l, h) in enumerate(zip(push, lo[1:].tolist(), hi[1:].tolist())):
        theta.append(min(max(a * theta[k] + d, l), h))
    th = np.array(theta)
    return scn.step_demand(th[:-1], th[1:])


def _plan_inf(scn: Scenario, r: np.ndarray, target: np.ndarray, reach: tuple) -> _Solved:
    """Bisection on e, stopped when the midpoint rounds onto an end."""
    p_rated = scn.params.p_rated

    def box(e: float) -> tuple[np.ndarray, np.ndarray]:
        return np.maximum(r - e, 0.0), np.minimum(r + e, p_rated)

    # below e_lo some box is empty; at e_hi every box is [0, p_rated], bit for
    # bit the rated box of reach, the pass each feasible probe then replaces
    e_lo = max(0.0, float(np.max(r - p_rated)), float(np.max(-r)))
    e_hi = p_rated + float(np.max(np.abs(r)))
    halvings = 0
    if (probe := _forward_reach(scn, *box(e_lo)))[2] < 0:
        e_hi, reach = e_lo, probe[:2]
    while e_lo < (mid := 0.5 * (e_lo + e_hi)) < e_hi:
        halvings += 1
        if (probe := _forward_reach(scn, *box(mid)))[2] < 0:
            e_hi, reach = mid, probe[:2]
        else:
            e_lo = mid
    return _ride(scn, target, *_viable(scn, *reach, *box(e_hi))), halvings, e_lo


def plan(scn: Scenario, ref: Trajectory, norm: str = "two") -> PlanResult:
    """Feasible demand closest to the reference in the chosen norm.

    Raises InfeasibleError when no demand trajectory can keep the comfort
    contract over the window, and SolverError if the two-norm solver gives
    up on a window that reachability analysis proved feasible or any
    plan's re-simulated temperature leaves the band by more than 1e-6 C.
    """
    _check_norm(norm)
    _check_reference(scn, ref)
    r = ref.values
    # the rated demand nearest r, which every inf-norm box at e >= e_lo holds
    target = np.clip(r, 0.0, scn.params.p_rated)
    run, reach = _reachable(scn)
    if norm == "one":
        solved = _ride(run, target, *_viable(run, *reach, *_rated_box(run))), 0, None
    else:
        solved = _plan_inf(run, r, target, reach) if norm == "inf" else _plan_two(run, r)
    p, iterations, bound = solved
    p = Trajectory(scn.dt, np.clip(p, 0.0, scn.params.p_rated), unit="kW")
    theta = require_member(p, scn, _AUDIT_ATOL, "planned temperature")
    err = tracking_error(p.values, r, scn.dt, norm)
    if bound is not None:  # a bound above the plan's own error is rounding
        bound = min(bound, err)
    return PlanResult(norm, p, theta, err, bound, iterations, solves=1)


# the rolling two-norm continuation: slack, in degC and kW, of its bound and
# sign tests, and the active sets it tries before a window falls back to plan
_ACTIVE_TOL, _TRIES = 1e-9, 4


def _hold(
    scn: Scenario, r: list, lo: list, hi: list, t_side: list, p_side: list
) -> np.ndarray:
    """Demand minimizing sum((p - r)^2) with an active set held as equalities.

    t_side[j] holds theta_j (j = 1..N) on lo[j] (-1) or hi[j] (+1),
    p_side[k] holds p_k at 0 (-1) or p_rated (+1), and 0 frees it; no step
    holds both p_k and theta_{k+1}.  Every state is al*y + beta in the last
    free state y, and a free step's residual couples one free state to the
    next, or loads one alone where it lands on a held theta: the normal
    equations are one _riccati chain.
    """
    a, gain, forcing = scn.dynamics()
    f = forcing.tolist()
    p_held = [scn.params.p_rated if side > 0 else 0.0 for side in p_side]
    edge = [up if side > 0 else down for down, up, side in zip(lo, hi, t_side)]
    decay, load, rhs = [], [], []  # per free state
    al, beta = 0.0, scn.theta0  # theta_k = al * y + beta, y the last free state
    for k, rk in enumerate(r):
        c = a * beta + f[k]
        if p_side[k]:
            al, beta = a * al, c - gain * p_held[k]
            continue
        c -= gain * rk
        if t_side[k + 1]:
            if al:
                load[-1] += a * al * a * al
                rhs[-1] -= a * al * (c - edge[k + 1])
            al, beta = 0.0, edge[k + 1]
            continue
        if al:
            rhs[-1] -= a * al * c
        decay.append(a * al)
        load.append(0.0)
        rhs.append(c)
        al, beta = 1.0, 0.0
    solve = _riccati(np.array(decay), np.ones(len(decay)), np.array(load))
    y = iter(solve(np.array(rhs)).tolist())
    theta = [scn.theta0]
    for k in range(len(r)):
        if p_side[k]:
            theta.append(a * theta[k] + f[k] - gain * p_held[k])
        else:
            theta.append(edge[k + 1] if t_side[k + 1] else next(y))
    p = scn.step_demand(np.array(theta[:-1]), np.array(theta[1:]))
    return np.where(np.array(p_side) != 0, p_held, p)


def _continue(
    scn: Scenario, r: np.ndarray, p_tail: np.ndarray, theta_tail: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """The window's two-norm optimum from the last plan's active set, or None.

    p_tail and theta_tail are the last plan's unexecuted demand and its
    temperature from the window's start on.  Returns the demand and its
    re-simulated temperature once an active set passes the KKT check of
    the module docstring, or None after _TRIES sets.
    """
    a, gain, forcing = scn.dynamics()
    lo_t, hi_t = scn.theta_limits()
    lo, hi = lo_t.tolist(), hi_t.tolist()
    p_rated, n, tol = scn.params.p_rated, scn.n_steps, _ACTIVE_TOL
    r = r.tolist()
    t_side, p_side = [0] * (n + 1), [0] * n
    for k, (pk, tk) in enumerate(zip(p_tail.tolist(), theta_tail[1:].tolist())):
        if tk <= lo[k + 1] + tol or tk >= hi[k + 1] - tol:
            t_side[k + 1] = 1 if tk >= hi[k + 1] - tol else -1
        elif pk <= tol or pk >= p_rated - tol:
            p_side[k] = 1 if pk >= p_rated - tol else -1
    x, f = float(theta_tail[-1]), forcing.tolist()
    for k in range(p_tail.size, n):  # ride clip(r), holding the edges it leaves by
        u = min(max(r[k], 0.0), p_rated)
        x = a * x + f[k] - gain * u
        if not lo[k + 1] <= x <= hi[k + 1]:
            t_side[k + 1] = 1 if x > hi[k + 1] else -1
            x = min(max(x, lo[k + 1]), hi[k + 1])
        elif u != r[k]:
            p_side[k] = 1 if u > 0.0 else -1
    for _ in range(_TRIES):
        p = _hold(scn, r, lo, hi, t_side, p_side)
        p_in = np.clip(p, 0.0, p_rated)
        theta = simulate(scn.params, scn.dist, Trajectory(scn.dt, p_in), scn.theta0).values
        # primal excess in degC: a demand's scaled by the gain of one step
        excess = np.concatenate(
            [np.maximum(theta[1:] - hi_t[1:], lo_t[1:] - theta[1:]),
             gain * np.maximum(p - p_rated, -p)]
        )
        j = int(np.argmax(excess))
        if excess[j] > tol:  # hold the worst violation, freeing its partner
            if j < n:
                t_side[j + 1], p_side[j] = 1 if theta[j + 1] > hi[j + 1] else -1, 0
            else:
                p_side[j - n], t_side[j - n + 1] = 1 if p[j - n] > p_rated else -1, 0
            continue
        # costate mu = gain * lambda, backward: every multiplier in kW
        mu, worst, drop = 0.0, tol, None
        for k in range(n - 1, -1, -1):
            if p_side[k]:
                mu *= a
                wrong, sides, i = -p_side[k] * (2.0 * (r[k] - p[k]) - mu), p_side, k
            else:
                mu, nxt = 2.0 * (r[k] - p[k]), a * mu
                wrong, sides, i = -t_side[k + 1] * (nxt - mu), t_side, k + 1
            if wrong > worst:
                worst, drop = wrong, (sides, i)
        if drop is None:
            return p_in, theta
        sides, i = drop
        sides[i] = 0
    return None


def receding_horizon(
    scn: Scenario,
    ref: Trajectory,
    window_steps: int,
    norm: str = "two",
    apply_steps: int = 1,
) -> PlanResult:
    """Re-plan over a sliding window, executing apply_steps samples per window.

    Each window is scn.window(t, w, theta_t) at the current temperature,
    so model and plan cannot drift apart.  The window shrinks near the end
    of the horizon rather than padding the disturbance record.  With
    apply_steps == window_steps == scn.n_steps this is exactly one plan.
    In the two-norm every window after the first is continued from the
    previous plan's active set, shifted by the executed samples, and kept
    when the KKT check in the module docstring certifies it as the window's
    unique optimum.  Every other window calls plan, the interior point in
    the two-norm; solves counts those calls and iterations sums theirs, and
    bound is None.  The stitched temperature is re-simulated on the full
    horizon and audited like a plan's.
    """
    _check_reference(scn, ref)
    require_count("window_steps", window_steps, 1)
    require_count("apply_steps", apply_steps, 1)
    if apply_steps > window_steps:
        raise InputError("apply_steps must be in [1, window_steps]")
    n = scn.n_steps
    lo_t, hi_t = (b.tolist() for b in scn.theta_limits())
    executed = np.empty(n)
    th, tail, solves, iterations = scn.theta0, None, 0, 0
    for t in range(0, n, apply_steps):
        w = min(window_steps, n - t)
        k = min(apply_steps, w)
        # snap a rounding graze back inside sample t's band, where the window
        # starts, within the one start tolerance _reachable grants
        start = min(max(th, lo_t[t]), hi_t[t])
        if abs(start - th) > _SNAP_TOL:
            raise SolverError(f"window plan leaves the comfort band at sample {t}: "
                              f"{th:.9g} degC against limit {start:.9g}")
        win = scn.window(t, w, start)
        r = ref.values[t : t + w]
        found = _continue(win, r, *tail) if norm == "two" and tail else None
        if found is None:
            step_plan = plan(win, Trajectory(scn.dt, r, unit=ref.unit), norm=norm)
            found = step_plan.p.values, step_plan.theta.values
            solves, iterations = solves + 1, iterations + step_plan.iterations
        p, theta = found
        executed[t : t + k] = p[:k]
        th, tail = float(theta[k]), (p[k:], theta[k:])
    p = Trajectory(scn.dt, executed, unit="kW")
    theta = require_member(p, scn, _AUDIT_ATOL, "planned temperature")
    err = tracking_error(p.values, ref.values, scn.dt, norm)
    return PlanResult(norm, p, theta, err, None, iterations, solves)
