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
below its window count by continuing each window from the last plan.

A continued plan is held by its active set: the samples it leaves on a
temperature bound and the steps it leaves at 0 or p_rated.  Held as
equalities, a held theta cuts the path and a held p ties theta_{k+1}
affinely to theta_k, so the free states form a chain and one _riccati
sweep solves the equality-constrained QP in O(w).  One backward costate
pass, mu = gain * lambda in kW, gives the multipliers:

    free p_k:      mu_{k+1} = 2 (r_k - p_k)
    held p_k:      mu_{k+1} = a mu_{k+2},  pi_k = 2 (r_k - p_k) - mu_{k+1}
    held theta_j:  eta_j = a mu_{j+1} - mu_j

with pi_k >= 0 at p_rated and <= 0 at 0, eta_j >= 0 on the upper bound
and <= 0 on the lower.  The objective is strictly convex in p, so a
candidate whose re-simulation (thermal.simulate's arithmetic, the one the
audits use) keeps every bound and whose multipliers all have their signs
meets the KKT conditions: it is the window's unique optimum, whatever set
produced it.

The held thetas cut the window into segments, and each segment's values
and multipliers read only its own samples, save the eta of the held theta
that starts it, which reads the mu of the step after it.  A window keeps
the last window's plan, active set and certificate from its start on; it
appends samples by riding clip(r) forward and holding the band edge
wherever that ride would leave the band.  Where it leaves the band
nowhere, the appended steps have zero costate, so nothing kept changes:
Bellman's case, the ride itself is the candidate and no _riccati runs.
Otherwise only the last segment, from the kept plan's last held theta
(the anchor) on, can change; it alone is solved, re-simulated from the
kept temperature at the anchor and checked, together with the anchor's
eta.  A window that appends nothing keeps its tail as it stands.  A
candidate that fails the check exchanges one constraint, holding the
worst violation or freeing the worst wrong-signed multiplier, and is
solved again; freeing the anchor joins its segment to the one before.  No
step holds both p_k and theta_{k+1}, which would over-determine theta_k:
holding one frees the other.  A degenerate window whose optimum needs
both therefore cycles, and after _TRIES sets falls back to plan, the
interior point, as does any window the exchanges do not settle.  The
window after a plan from the interior point, or after a start moved into
the band by rounding, reads its active set off the plan's values and is
solved whole.  One- and inf-norm windows are planned afresh: their argmin
is not unique, so a continued plan could differ from a fresh one.

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
    _SLACK, Scenario, _forward_reach, _rated_box, _reachable, _viable, require_member, require_path
)
from .thermal import Trajectory, _check_grid

NORMS = ("two", "one", "inf")

# Farthest a reference sample may lie outside [0, p_rated], in p_rated.  The
# two-norm interior point stops on a gap relative to its objective, which grows
# with the square of the reach, so its plan drifts from the optimum as the reach
# grows: on 60-step paper windows, by up to 5e-13 kW at 10 p_rated out and 5e-8 kW
# at 1000.  Near 1e306 kW the one- and inf-norm plans overflow.
REF_REACH = 10.0

# a solve's temperature path theta_0..N, its iterations and its certified lower bound on the error
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


@dataclass(frozen=True, eq=False)
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


def _riccati(a: list, rho: list, w: list):
    """Solver for diag(w) + sum_k rho_k v_k v_k^T, v_k = a_k e_{k-1} - e_k, over lists.

    The matrix is tridiagonal; a_k is step k's decay, and a_0 is unused.
    The two-norm Newton matrix diag(w) + D^T diag(rho gain^2) D has a_k = a
    throughout; a chain of free states (_hold) has varying decays, 0 where
    a fixed temperature cuts it.  A Thomas sweep run backward in scalar
    Riccati form: each pivot is a sum of positive terms, so none cancels to
    zero as barrier weights grow.
    """
    decay, inv, tail = [], [], 0.0
    for ak, rk, wk in zip(reversed(a), reversed(rho), reversed(w)):
        ik = 1.0 / (rk + wk + tail)
        dk = ak * rk * ik
        tail = ak * dk * (wk + tail)
        inv.append(ik)
        decay.append(dk)

    def solve(b: list) -> list:
        q, acc = [], 0.0
        for dk, bk in zip([0.0] + decay, reversed(b)):  # costs-to-go
            acc = bk + dk * acc
            q.append(acc)
        y, acc = [], 0.0
        for dk, ik, qk in zip(reversed(decay), reversed(inv), reversed(q)):  # states
            acc = dk * acc + ik * qk
            y.append(acc)
        return y

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
    decays = [a] * x.size
    s = np.maximum(h - gmul(x), 1.0)
    # the power rows start at the clip(r) plan's multipliers, floored at 1, so
    # the start grows with a reference's reach outside [0, p_rated]
    over = 2.0 * (r - np.clip(r, 0.0, scn.params.p_rated))
    z = np.ones_like(s)
    z[2], z[3] = np.maximum(over, 1.0), np.maximum(-over, 1.0)
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
        rho, wts = (2.0 + w[2] + w[3]) / gain**2, w[0] + w[1]
        solve = _riccati(decays, rho.tolist(), wts.tolist())

        def newton(rc, frac):  # the step, and frac of how far s and z each stay >= 0
            v = w * rp - rc / s
            dx = np.array(solve((v[1] - v[0] - dtmul(v[2] - v[3]) - rd).tolist()))
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
    return np.append(scn.theta0, x), it, math.sqrt(max(dual * scn.dt, 0.0))


def _ride(scn: Scenario, target: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Temperature path of the ride through the band [lo, hi] steering at target."""
    a, gain, forcing = scn.dynamics()
    push = (forcing - gain * target).tolist()
    theta = [scn.theta0]
    for k, (d, l, h) in enumerate(zip(push, lo[1:].tolist(), hi[1:].tolist())):
        theta.append(min(max(a * theta[k] + d, l), h))
    return np.array(theta)


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
    plan's re-simulated temperature leaves the band by more than 1e-9 C.
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
    path, iterations, bound = solved
    p, theta = require_path(path, scn, "planned temperature")
    err = tracking_error(p.values, r, scn.dt, norm)
    if bound is not None:  # a bound above the plan's own error is rounding
        bound = min(bound, err)
    return PlanResult(norm, p, theta, err, bound, iterations, solves=1)


_TRIES = 4  # active sets a rolling two-norm window tries before it falls back to plan


class _Chain:
    """A rolling two-norm plan on the horizon's grid, and what its windows read.

    The scenario's coefficients, limit grid, disturbance and the reference,
    as lists indexed by the horizon's own samples, so a continued window
    slices nothing.  Up to step end, p[k] is the last window's demand (as
    its chain solve left it, before the clip into [0, p_rated]), theta[j]
    its re-simulated temperature and t_side[j], p_side[k] its active set
    (the sides _hold reads).  certified says a chain solve's KKT check
    covers that plan; a plan from the interior point has no active set.
    """

    def __init__(self, scn: Scenario, ref: Trajectory) -> None:
        self.a, self.gain, forcing = scn.dynamics()
        self.f, self.r = forcing.tolist(), ref.values.tolist()
        self.lo, self.hi = (b.tolist() for b in scn.theta_limits())
        self.params, self.p_rated = scn.params, scn.params.p_rated
        self.theta_a, self.q_d = scn.dist.theta_a.tolist(), scn.dist.q_d.tolist()
        n = scn.n_steps
        self.p, self.theta = [0.0] * n, [0.0] * (n + 1)
        self.t_side, self.p_side = [0] * (n + 1), [0] * n
        self.end, self.certified = 0, False


def _hold(chain: _Chain, j0: int, end: int, theta0: float) -> list:
    """Demand minimizing sum((p - r)^2) over steps j0..end-1 from theta_j0 = theta0,
    with the chain's active set held as equalities.

    t_side[j] holds theta_j on lo[j] (-1) or hi[j] (+1), p_side[k] holds
    p_k at 0 (-1) or p_rated (+1), and 0 frees it; no step holds both p_k
    and theta_{k+1}.  Every state is al*y + beta in the last free state y,
    and a free step's residual couples one free state to the next, or loads
    one alone where it lands on a held theta: the normal equations are one
    _riccati chain.  Returns p_j0..p_{end-1}.
    """
    a, gain, f, r, lo, hi = chain.a, chain.gain, chain.f, chain.r, chain.lo, chain.hi
    t_side, p_side, p_rated = chain.t_side, chain.p_side, chain.p_rated
    decay, load, rhs = [], [], []  # per free state
    al, beta = 0.0, theta0  # theta_k = al * y + beta, y the last free state
    for k in range(j0, end):
        c = a * beta + f[k]
        if side := p_side[k]:
            al, beta = a * al, c - gain * (p_rated if side > 0 else 0.0)
            continue
        c -= gain * r[k]
        if side := t_side[k + 1]:
            edge = hi[k + 1] if side > 0 else lo[k + 1]
            if al:
                load[-1] += a * al * a * al
                rhs[-1] -= a * al * (c - edge)
            al, beta = 0.0, edge
            continue
        if al:
            rhs[-1] -= a * al * c
        decay.append(a * al)
        load.append(0.0)
        rhs.append(c)
        al, beta = 1.0, 0.0
    y = iter(_riccati(decay, [1.0] * len(decay), load)(rhs))
    p, th = [], theta0
    for k in range(j0, end):
        if side := p_side[k]:
            p.append(p_rated if side > 0 else 0.0)
            th = a * th + f[k] - gain * p[-1]
        else:
            side = t_side[k + 1]
            nxt = (hi[k + 1] if side > 0 else lo[k + 1]) if side else next(y)
            p.append((a * th + f[k] - nxt) / gain)
            th = nxt
    return p


def _continue(chain: _Chain, t: int, end: int) -> bool:
    """Continue the chain's plan over the window of steps t..end-1; True once certified.

    chain.theta[t] is the window's start.  On True the chain holds the
    window's two-norm optimum, which the KKT check of the module docstring
    certifies; on False no active set passed it in _TRIES tries.
    """
    a, gain, f, r, lo, hi = chain.a, chain.gain, chain.f, chain.r, chain.lo, chain.hi
    t_side, p_side, p_rated, tol = chain.t_side, chain.p_side, chain.p_rated, _SLACK
    ta, qd, r_th, eta = chain.theta_a, chain.q_d, chain.params.r_thermal, chain.params.eta_cop
    last, kept = chain.end, chain.certified
    # only the chain after the tail's last held theta, its anchor, can change
    anchor = last if kept else t
    if not kept:  # an interior-point plan: read its active set off its values
        for k in range(t, last):
            pk, tk = chain.p[k], chain.theta[k + 1]
            t_side[k + 1] = p_side[k] = 0
            if tk <= lo[k + 1] + tol or tk >= hi[k + 1] - tol:
                t_side[k + 1] = 1 if tk >= hi[k + 1] - tol else -1
            elif pk <= tol or pk >= p_rated - tol:
                p_side[k] = 1 if pk >= p_rated - tol else -1
    x = chain.theta[last]
    for k in range(last, end):  # ride clip(r), holding the edges it leaves by
        u = min(max(r[k], 0.0), p_rated)
        x = a * x + f[k] - gain * u
        t_side[k + 1] = p_side[k] = 0
        if not lo[k + 1] <= x <= hi[k + 1]:
            t_side[k + 1], kept = 1 if x > hi[k + 1] else -1, False
            x = min(max(x, lo[k + 1]), hi[k + 1])
        elif u != r[k]:
            p_side[k] = 1 if u > 0.0 else -1
    for _ in range(_TRIES):
        if kept:  # Bellman's case: the ride stays in the band, so the tail stays optimal
            j0, p, kept = last, [min(max(rk, 0.0), p_rated) for rk in r[last:end]], False
        else:
            while anchor > t and not t_side[anchor]:  # a freed anchor joins the segment before
                anchor -= 1
            j0, side = anchor, t_side[anchor] if anchor > t else 0
            start = (hi[j0] if side > 0 else lo[j0]) if side else chain.theta[j0]
            p = _hold(chain, j0, end, start)
        # re-simulated from the temperature the plan so far reaches at j0 in
        # thermal.simulate's arithmetic, so the audit meets the same bits; the
        # primal excess in degC, a demand's scaled by the gain of one step
        th = chain.theta[j0]
        theta, t_worst, t_at, p_worst, p_at = [th], tol, 0, tol, 0
        for k, pk in enumerate(p, j0):
            u = pk if 0.0 <= pk <= p_rated else 0.0 if pk < 0.0 else p_rated
            qs = ta[k] + r_th * (qd[k] - eta * u)
            th = qs + (th - qs) * a
            theta.append(th)
            if th - hi[k + 1] > t_worst or lo[k + 1] - th > t_worst:
                t_worst, t_at = max(th - hi[k + 1], lo[k + 1] - th), k + 1
            if u != pk and (excess := gain * max(pk - p_rated, -pk)) > p_worst:
                p_worst, p_at = excess, k
        # hold the worst violation, a sample's before a step's on a tie, freeing its partner
        if t_at and t_worst >= p_worst:
            t_side[t_at], p_side[t_at - 1] = 1 if theta[t_at - j0] > hi[t_at] else -1, 0
            continue
        if p_worst > tol:
            p_side[p_at], t_side[p_at + 1] = 1 if p[p_at - j0] > p_rated else -1, 0
            continue
        # costate mu = gain * lambda, backward: every multiplier in kW
        mu, worst, drop = 0.0, tol, None
        for k in range(end - 1, j0 - 1, -1):
            pk = p[k - j0]
            if side := p_side[k]:
                mu *= a
                if (wrong := -side * (2.0 * (r[k] - pk) - mu)) > worst:
                    worst, drop = wrong, (p_side, k)
            else:
                mu, nxt = 2.0 * (r[k] - pk), a * mu
                if (side := t_side[k + 1]) and (wrong := -side * (nxt - mu)) > worst:
                    worst, drop = wrong, (t_side, k + 1)
        if j0 > t and (side := t_side[j0]):  # eta of the held theta at j0, mu_j0 kept
            if -side * (a * mu - 2.0 * (r[j0 - 1] - chain.p[j0 - 1])) > worst:
                drop = t_side, j0
        if drop is None:
            chain.p[j0:end], chain.theta[j0 : end + 1] = p, theta
            chain.end, chain.certified = end, True
            return True
        sides, i = drop
        sides[i] = 0
    return False


def receding_horizon(
    scn: Scenario,
    ref: Trajectory,
    window_steps: int,
    norm: str = "two",
    apply_steps: int = 1,
) -> PlanResult:
    """Re-plan over a sliding window, executing apply_steps samples per window.

    Each window starts at the temperature the executed plan reaches, so
    model and plan cannot drift apart.  The window shrinks near the end
    of the horizon rather than padding the disturbance record.  With
    apply_steps == window_steps == scn.n_steps this is exactly one plan.
    In the two-norm every window after the first continues the last plan
    (module docstring), reading the scenario's coefficients, limits and
    disturbance at the window's offset, and is kept once the KKT check
    certifies it as the window's unique optimum.  Every other window calls
    plan on scn.window(t, w, theta_t), the interior point in the two-norm;
    solves counts those calls and iterations sums theirs, and bound is
    None.  A window's start snaps into the band only within the audit's
    slack, and the stitched plan is re-simulated and audited.
    """
    _check_reference(scn, ref)
    require_count("window_steps", window_steps, 1)
    require_count("apply_steps", apply_steps, 1)
    if apply_steps > window_steps:
        raise InputError("apply_steps must be in [1, window_steps]")
    n = scn.n_steps
    lo_t, hi_t = (b.tolist() for b in scn.theta_limits())
    p_rated = scn.params.p_rated
    executed = np.empty(n)
    chain = _Chain(scn, ref) if norm == "two" else None
    th, solves, iterations = scn.theta0, 0, 0
    for t in range(0, n, apply_steps):
        w = min(window_steps, n - t)
        k = min(apply_steps, w)
        # snap a rounding graze into sample t's band, where the window starts
        start = min(max(th, lo_t[t]), hi_t[t])
        if abs(start - th) > _SLACK:
            raise SolverError(f"window plan leaves the comfort band at sample {t}: "
                              f"{th:.9g} degC against limit {start:.9g}")
        if chain is not None and t:
            if start != th:  # the kept plan starts elsewhere: solve the window whole
                chain.theta[t], chain.certified = start, False
            if _continue(chain, t, t + w):
                executed[t : t + k] = [min(max(pk, 0.0), p_rated) for pk in chain.p[t : t + k]]
                th = chain.theta[t + k]
                continue
        step_plan = plan(scn.window(t, w, start), Trajectory(scn.dt, ref.values[t : t + w]), norm)
        solves, iterations = solves + 1, iterations + step_plan.iterations
        p, theta = step_plan.p.values, step_plan.theta.values
        executed[t : t + k] = p[:k]
        th = float(theta[k])
        if chain is not None:
            chain.p[t : t + w], chain.theta[t : t + w + 1] = p.tolist(), theta.tolist()
            chain.end, chain.certified = t + w, False
    p = Trajectory(scn.dt, executed)
    theta = require_member(p, scn, "planned temperature")
    err = tracking_error(p.values, ref.values, scn.dt, norm)
    return PlanResult(norm, p, theta, err, None, iterations, solves)
