"""Deterministic dense LP and box-QP solvers, kept as oracles.

No analysis calls them.  Capacity and the one- and inf-norm planners read
the O(n) feasible band, and the two-norm planner runs an O(n) interior
point on the temperature path; solve_lp and solve_box_qp are the dense
references the tests check those against.  This module implements two
classic algorithms whose every tie-break is fixed, so repeated solves of
the same problem return bit-identical reports:

* solve_lp: a bounded-variable primal simplex on dense arrays.  Two phases
  with artificial variables; Dantzig pricing (most negative reduced cost,
  lowest index on ties) switching permanently to Bland's smallest-index rule
  once the objective stalls, which rules out cycling on degenerate bases.
  The final basis also yields a dual bound, so optimality is certified by a
  duality gap at tolerance rather than trusted.

* solve_box_qp: minimize 0.5*sum(h_i x_i^2) + g.x over a box intersected
  with general inequality rows.  Solved as accelerated projected gradient
  ascent on the dual with a fixed step 1/L, where L is the Lipschitz bound
  ||M diag(1/sqrt(h))||_2^2 of the dual gradient.  The primal iterate
  x(lam) = clip((-g - M^T lam)/h, lo, hi) is recovered in closed form, so
  box bounds hold exactly and the reported residual is the inequality-row
  violation plus complementarity error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SolverError, _freeze, require_positive

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_ITERATION_LIMIT = "iteration-limit"

_BASIC, _AT_LO, _AT_HI = 0, 1, 2


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of one solve.  x is present exactly when status is optimal."""

    status: str
    objective: float | None
    x: np.ndarray | None
    iterations: int
    dual_bound: float | None = None
    max_residual: float | None = None

    def __post_init__(self) -> None:
        if self.x is not None:
            _freeze(self, "x", self.x)


def _hold_problem(p, vectors: tuple[str, ...], blocks: tuple[str, ...], box_inf: bool) -> None:
    """Hold what LinearProgram and BoxQP share: the vectors, finite (lo and hi
    may be +-inf when box_inf), of one length n with lo <= hi, and each row block
    a_x absent or (m, n) over an m-long b_x, both finite."""
    for name in vectors:
        _freeze(p, name, getattr(p, name), finite=not (box_inf and name in ("lo", "hi")))
    n = p.lo.size
    if any(getattr(p, name).size != n for name in vectors):
        raise InputError(f"{', '.join(vectors)} must be 1-D arrays of one length")
    if np.any(p.lo > p.hi):
        raise InputError("lo must not exceed hi")
    for a_name in blocks:
        b_name = "b" + a_name[1:]
        if (getattr(p, a_name) is None) != (getattr(p, b_name) is None):
            raise InputError(f"{a_name} and {b_name} must be given together")
        if getattr(p, a_name) is not None:
            a = _freeze(p, a_name, getattr(p, a_name), ndim=2)
            b = _freeze(p, b_name, getattr(p, b_name))
            if a.shape[1] != n or b.shape != (a.shape[0],):
                raise InputError(f"{a_name} must be (m, {n}) over {b_name} of length m")


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min c.x  s.t.  a_ub x <= b_ub,  a_eq x = b_eq,  lo <= x <= hi.

    Bounds may be +-inf but every variable needs at least one finite bound
    (the simplex parks nonbasic variables on a bound).  Matrices are dense
    row-major float arrays; pass None for an absent constraint block.
    """

    c: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self) -> None:
        _hold_problem(self, ("c", "lo", "hi"), ("a_ub", "a_eq"), box_inf=True)
        if np.any(np.isinf(self.lo) & np.isinf(self.hi)):
            raise InputError("lo or hi must be finite for every variable")

    @property
    def n_vars(self) -> int:
        return int(self.c.size)


def _refactorize(A, b, basis, x):
    """Fresh basis inverse and basic values; controls drift from eta updates."""
    B = A[:, basis]
    try:
        Binv = np.linalg.inv(B)
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular basis matrix") from exc
    x_nb = x.copy()
    x_nb[basis] = 0.0
    x[basis] = Binv @ (b - A @ x_nb)
    return Binv


def _iterate(A, b, c, lo, hi, basis, status, x, Binv, tol, iter_budget):
    """Run simplex pivots until optimal/unbounded/budget; returns (code, used).

    Mutates basis, status, x, Binv in place.  code is one of 'opt', 'unb',
    'iter'.
    """
    m = A.shape[0]
    pivots_since_refactor = 0
    stall = 0
    stall_limit = 3 * m + 50
    bland = False
    last_obj = math.inf
    used = 0
    while used < iter_budget:
        used += 1
        y = Binv.T @ c[basis]
        d = c - A.T @ y
        at_lo = status == _AT_LO
        at_hi = status == _AT_HI
        movable = hi - lo > 0.0
        elig = movable & ((at_lo & (d < -tol)) | (at_hi & (d > tol)))
        idx = np.flatnonzero(elig)
        if idx.size == 0:
            return "opt", used - 1
        if bland:
            j = int(idx[0])
        else:
            j = int(idx[np.argmax(np.abs(d[idx]))])
        direction = 1.0 if status[j] == _AT_LO else -1.0
        w = Binv @ A[:, j]
        # basic variable i moves by -direction*w[i] per unit of x_j
        delta = -direction * w
        t_rows = np.full(m, np.inf)
        up = delta > 1e-11
        dn = delta < -1e-11
        bi = np.asarray(basis)
        with np.errstate(invalid="ignore"):
            t_rows[up] = (hi[bi[up]] - x[bi[up]]) / delta[up]
            t_rows[dn] = (x[bi[dn]] - lo[bi[dn]]) / (-delta[dn])
        t_rows = np.maximum(t_rows, 0.0)
        t_own = hi[j] - lo[j]
        r = int(np.lexsort((bi, t_rows))[0])  # min t, ties to smallest var index
        t_row = t_rows[r]
        if t_own <= t_row:
            if not np.isfinite(t_own):
                return "unb", used
            # bound flip, basis unchanged
            x[bi] -= direction * t_own * w
            status[j] = _AT_HI if status[j] == _AT_LO else _AT_LO
            x[j] = hi[j] if status[j] == _AT_HI else lo[j]
        else:
            if not np.isfinite(t_row):
                return "unb", used
            x[bi] -= direction * t_row * w
            x[j] = (lo[j] if direction > 0 else hi[j]) + direction * t_row
            leaving = int(bi[r])
            status[leaving] = _AT_HI if delta[r] > 0 else _AT_LO
            x[leaving] = hi[leaving] if delta[r] > 0 else lo[leaving]
            status[j] = _BASIC
            basis[r] = j
            # eta update of the explicit inverse
            br = Binv[r] / w[r]
            Binv -= np.outer(w, br)
            Binv[r] = br
            pivots_since_refactor += 1
            if pivots_since_refactor >= 64:
                Binv[:, :] = _refactorize(A, b, basis, x)
                pivots_since_refactor = 0
        obj = float(c @ x)
        if obj < last_obj - 1e-12 * (1.0 + abs(last_obj)):
            stall = 0
        else:
            stall += 1
            if stall >= stall_limit:
                bland = True  # latched; guarantees termination
        last_obj = obj
    return "iter", used


def solve_lp(lp: LinearProgram, tol: float = 1e-9) -> SolveReport:
    """Two-phase bounded-variable primal simplex.

    Returns a SolveReport whose dual_bound is computed from the final basis
    (y = B^-T c_B plus reduced-cost terms at the active bounds); at optimal
    status the duality gap is within tolerance of zero.  Deterministic:
    identical inputs produce bit-identical reports.
    """
    require_positive("tol", tol)
    n = lp.n_vars
    m_ub = 0 if lp.a_ub is None else lp.a_ub.shape[0]
    m_eq = 0 if lp.a_eq is None else lp.a_eq.shape[0]
    m = m_ub + m_eq
    max_iter = 200 * (m + n + m_ub) + 2000

    # computational form: A x = b with slack columns for the <= rows
    n_tot = n + m_ub
    A = np.zeros((m, n_tot + m))  # artificials appended last
    b = np.zeros(m)
    if m_eq:
        A[:m_eq, :n] = lp.a_eq
        b[:m_eq] = lp.b_eq
    if m_ub:
        A[m_eq:, :n] = lp.a_ub
        A[m_eq:, n : n + m_ub] = np.eye(m_ub)
        b[m_eq:] = lp.b_ub

    lo = np.concatenate([lp.lo, np.zeros(m_ub), np.zeros(m)])
    hi = np.concatenate([lp.hi, np.full(m_ub, np.inf), np.full(m, np.inf)])

    # park structural and slack columns on a finite bound
    x = np.where(np.isfinite(lo), lo, hi)
    x[n_tot:] = 0.0
    status = np.where(np.isfinite(lo[:n_tot]), _AT_LO, _AT_HI).astype(np.int8)

    if m == 0:
        return _bound_minimum(lp, lp.c, lp.lo, lp.hi, x[:n], 0)

    # artificial columns match the sign of the initial residual
    resid = b - A[:, :n_tot] @ x[:n_tot]
    for i in range(m):
        A[i, n_tot + i] = 1.0 if resid[i] >= 0 else -1.0
    x[n_tot:] = np.abs(resid)
    basis = list(range(n_tot, n_tot + m))
    status = np.concatenate([status, np.full(m, _BASIC, dtype=np.int8)])

    Binv = np.linalg.inv(A[:, basis])

    c1 = np.zeros(n_tot + m)
    c1[n_tot:] = 1.0
    code, it1 = _iterate(A, b, c1, lo, hi, basis, status, x, Binv, tol, max_iter)
    if code == "iter":
        return SolveReport(STATUS_ITERATION_LIMIT, None, None, it1)
    if code == "unb":
        raise SolverError("phase-1 objective unbounded; numerical breakdown")
    feas_gap = float(x[n_tot:].sum())
    if feas_gap > 1e-7 * (1.0 + float(np.abs(b).max(initial=0.0))):
        return SolveReport(STATUS_INFEASIBLE, None, None, it1)

    # drive leftover basic artificials out, dropping redundant rows
    drop_rows: list[int] = []
    for r in range(m):
        if basis[r] < n_tot:
            continue
        row = Binv[r] @ A[:, :n_tot]
        cands = np.flatnonzero((np.abs(row) > 1e-8) & (status[:n_tot] != _BASIC))
        if cands.size:
            j = int(cands[0])
            w = Binv @ A[:, j]
            status[basis[r]] = _AT_LO
            status[j] = _BASIC
            basis[r] = j
            br = Binv[r] / w[r]
            Binv -= np.outer(w, br)
            Binv[r] = br
        else:
            drop_rows.append(r)

    keep = [r for r in range(m) if r not in drop_rows]
    A = A[np.ix_(keep, range(n_tot))]
    b = b[keep]
    basis = [basis[r] for r in keep]
    lo = lo[:n_tot]
    hi = hi[:n_tot]
    c2 = np.concatenate([lp.c, np.zeros(m_ub)])
    x = x[:n_tot]
    status = status[:n_tot]
    if not A.shape[0]:
        # every row was redundant
        return _bound_minimum(lp, c2, lo, hi, x, it1)
    Binv = _refactorize(A, b, basis, x)
    code, it2 = _iterate(A, b, c2, lo, hi, basis, status, x, Binv, tol, max_iter - it1)

    iters = it1 + it2
    if code == "iter":
        return SolveReport(STATUS_ITERATION_LIMIT, None, None, iters)
    if code == "unb":
        return SolveReport(STATUS_UNBOUNDED, None, None, iters)

    obj = float(c2 @ x)
    # dual bound from the final basis
    y = Binv.T @ c2[basis]
    d = c2 - A.T @ y
    dual = float(y @ b)
    sel_lo = (status == _AT_LO) & (np.abs(lo) > 0)
    sel_hi = status == _AT_HI
    dual += float(d[sel_lo] @ lo[sel_lo]) + float(d[sel_hi] @ hi[sel_hi])
    xs = x[:n]
    return SolveReport(STATUS_OPTIMAL, obj, xs, iters, dual, _residual(lp, xs))


def _residual(lp: LinearProgram, xs: np.ndarray) -> float:
    """Worst equality or inequality row violation of the structural x."""
    res = 0.0
    if lp.a_eq is not None:
        res = max(res, float(np.abs(lp.a_eq @ xs - lp.b_eq).max(initial=0.0)))
    if lp.a_ub is not None:
        res = max(res, float(np.maximum(lp.a_ub @ xs - lp.b_ub, 0.0).max(initial=0.0)))
    return res


def _bound_minimum(lp, c, lo, hi, x, iters) -> SolveReport:
    """min c.x over the box alone (no rows, or only redundant ones); x parks c == 0."""
    xx = np.where(c > 0, lo, np.where(c < 0, hi, x))
    if np.any(~np.isfinite(xx) & (c != 0)):
        return SolveReport(STATUS_UNBOUNDED, None, None, iters)
    xx = np.where(np.isfinite(xx), xx, 0.0)
    obj = float(c @ xx)
    xs = xx[: lp.n_vars]
    return SolveReport(STATUS_OPTIMAL, obj, xs, iters, obj, _residual(lp, xs))


@dataclass(frozen=True, eq=False)
class BoxQP:
    """min 0.5*sum(h_i x_i^2) + g.x  s.t.  a_ub x <= b_ub,  lo <= x <= hi.

    h must be strictly positive (strict convexity makes the dual smooth) and
    the box finite.  Linear dynamics enter through a_ub rows: trajectory
    problems eliminate the state recursion into a triangular input-to-state
    map, so state bounds become dense inequality rows over the inputs.
    """

    h: np.ndarray
    g: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None

    def __post_init__(self) -> None:
        _hold_problem(self, ("h", "g", "lo", "hi"), ("a_ub",), box_inf=False)
        if np.any(self.h <= 0):
            raise InputError("h must be strictly positive")


def _spectral_norm_sq(m_scaled: np.ndarray) -> float:
    """Deterministic power-iteration bound on ||M||_2^2 (5% safety margin)."""
    n = m_scaled.shape[1]
    v = 1.0 + 0.001 * np.arange(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(120):
        w = m_scaled.T @ (m_scaled @ v)
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0
        v = w / lam
    return 1.05 * lam


def solve_box_qp(qp: BoxQP, tol: float = 1e-6) -> SolveReport:
    """Accelerated dual projected gradient with a fixed Lipschitz step.

    Terminates when the worst inequality violation and the complementarity
    error both fall below tol.  With no inequality rows the clipped
    unconstrained minimizer is returned exactly in zero iterations.
    """
    require_positive("tol", tol)
    h, g, lo, hi = qp.h, qp.g, qp.lo, qp.hi

    def x_of(lam_vec):
        return np.clip((-g - qp.a_ub.T @ lam_vec) / h, lo, hi)

    def objective(xv):
        return float(0.5 * (h @ (xv * xv)) + g @ xv)

    if qp.a_ub is None or qp.a_ub.shape[0] == 0:
        x = np.clip(-g / h, lo, hi)
        obj = objective(x)
        return SolveReport(STATUS_OPTIMAL, obj, x, 0, obj, 0.0)

    M, bb = qp.a_ub, qp.b_ub
    lips = _spectral_norm_sq(M / np.sqrt(h))
    if lips == 0.0:
        x = np.clip(-g / h, lo, hi)
        res = float(np.maximum(M @ x - bb, 0.0).max(initial=0.0))
        st = STATUS_OPTIMAL if res <= tol else STATUS_INFEASIBLE
        return SolveReport(st, objective(x) if st == STATUS_OPTIMAL else None,
                           x if st == STATUS_OPTIMAL else None, 0, None, res)
    step = 1.0 / lips

    m_rows = M.shape[0]
    lam = np.zeros(m_rows)
    lam_prev = lam
    t_acc = 1.0
    max_iter = 200000
    x = x_of(lam)
    for k in range(1, max_iter + 1):
        beta = (t_acc - 1.0) / (0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc)))
        y = lam + beta * (lam - lam_prev)
        grad_y = M @ x_of(y) - bb
        lam_next = np.maximum(y + step * grad_y, 0.0)
        # gradient restart keeps the momentum deterministic and monotone-ish
        if float(grad_y @ (lam_next - lam)) < 0.0:
            t_acc = 1.0
            y = lam
            grad_y = M @ x_of(y) - bb
            lam_next = np.maximum(y + step * grad_y, 0.0)
        else:
            t_acc = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        lam_prev, lam = lam, lam_next
        if k % 5 == 0 or k == max_iter:
            x = x_of(lam)
            slack = bb - M @ x
            viol = float(np.maximum(-slack, 0.0).max(initial=0.0))
            comp = float(np.max(lam * np.maximum(slack, 0.0), initial=0.0))
            if viol <= tol and comp <= tol:
                obj = objective(x)
                dual = obj + float(lam @ (M @ x - bb))
                return SolveReport(STATUS_OPTIMAL, obj, x, k, dual, viol)
    return SolveReport(STATUS_ITERATION_LIMIT, None, None, max_iter)
