"""Deterministic LP/QP solvers checked against hand optima and sampling."""

import re

import numpy as np
import pytest

import vesflex as vf


def _lp(c, lo, hi, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    return vf.LinearProgram(
        c=np.asarray(c, dtype=float),
        lo=np.asarray(lo, dtype=float),
        hi=np.asarray(hi, dtype=float),
        a_ub=None if a_ub is None else np.asarray(a_ub, dtype=float),
        b_ub=None if b_ub is None else np.asarray(b_ub, dtype=float),
        a_eq=None if a_eq is None else np.asarray(a_eq, dtype=float),
        b_eq=None if b_eq is None else np.asarray(b_eq, dtype=float),
    )


def test_lp_unique_vertex():
    # min -x - 2y subject to x + y <= 1 inside the box [0, 0.75]^2
    rep = vf.solve_lp(_lp([-1.0, -2.0], [0, 0], [0.75, 0.75], [[1.0, 1.0]], [1.0]))
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(-1.75, abs=1e-10)
    assert rep.x == pytest.approx([0.25, 0.75], abs=1e-10)
    assert rep.dual_bound == pytest.approx(rep.objective, abs=1e-8)


def test_lp_equality_row():
    rep = vf.solve_lp(_lp([1.0, 0.0], [0, 0], [1, 1], a_eq=[[1.0, 1.0]], b_eq=[1.0]))
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(0.0, abs=1e-10)
    assert rep.x == pytest.approx([0.0, 1.0], abs=1e-10)


def test_lp_infeasible():
    rep = vf.solve_lp(_lp([1.0, 1.0], [0, 0], [1, 1], [[-1.0, -1.0]], [-3.0]))
    assert rep.status == "infeasible"
    assert rep.x is None
    assert rep.objective is None


def test_lp_unbounded():
    rep = vf.solve_lp(_lp([-1.0], [0.0], [np.inf]))
    assert rep.status == "unbounded"
    assert rep.x is None


def test_lp_unbounded_along_a_ray_its_rows_do_not_block():
    # min -x - y with x - y <= 1: the row holds all along the ray (1, 1),
    # so phase 2 finds no blocking row and no finite bound on the entering column
    rep = vf.solve_lp(_lp([-1.0, -1.0], [0, 0], [np.inf, np.inf], [[1.0, -1.0]], [1.0]))
    assert rep.status == "unbounded"
    assert rep.x is None
    assert rep.objective is None


def test_lp_fixed_variable_pivots_out_the_artificial_phase_one_leaves_basic():
    # x = 0.25 is fixed and parked on its value, so its equality row starts
    # met and phase 1 ends at once with that row's artificial basic at zero;
    # x must replace it before phase 2, which then raises y to the <= row
    rep = vf.solve_lp(_lp([1.0, -1.0], [0.25, 0.0], [0.25, 2.0], [[1.0, 1.0]], [1.0],
                          a_eq=[[1.0, 0.0]], b_eq=[0.25]))
    assert rep.status == "optimal"
    assert rep.x == pytest.approx([0.25, 0.75], abs=1e-12)
    assert rep.objective == pytest.approx(-0.5, abs=1e-12)
    assert rep.dual_bound == pytest.approx(rep.objective, abs=1e-12)
    assert rep.max_residual == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("c", [[1.0, -2.0], [1.0, 2.0]], ids=["optimal", "unbounded"])
def test_lp_only_redundant_rows_reports_like_no_rows(c):
    # 0.x = 0 leaves phase 1 with nothing to pivot on, so the row is dropped
    # and the box alone decides the answer, as it does with no rows at all
    lo, hi = [0.0, -np.inf], [1.0, 3.0]
    bare = vf.solve_lp(_lp(c, lo, hi))
    redundant = vf.solve_lp(_lp(c, lo, hi, a_eq=[[0.0, 0.0]], b_eq=[0.0]))
    assert bare.status == ("optimal" if c[1] < 0 else "unbounded")
    for field in ("status", "objective", "iterations", "dual_bound", "max_residual"):
        assert getattr(redundant, field) == getattr(bare, field)
    if bare.x is None:
        assert redundant.x is None
    else:
        assert np.array_equal(redundant.x, bare.x)
        assert bare.objective == -6.0


def test_lp_every_variable_needs_a_bound():
    with pytest.raises(vf.InputError):
        _lp([1.0], [-np.inf], [np.inf])


def test_lp_degenerate_cycling_instance():
    # classic 4-variable instance that cycles under naive pivoting; the
    # stall-triggered Bland fallback must still reach the optimum
    lp = _lp(
        c=[-0.75, 150.0, -0.02, 6.0],
        lo=[0, 0, 0, 0],
        hi=[np.inf, np.inf, 1.0, np.inf],
        a_ub=[[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0]],
        b_ub=[0.0, 0.0],
    )
    rep = vf.solve_lp(lp)
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(-0.05, abs=1e-9)
    assert rep.x == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-9)


def test_lp_negative_lower_bounds():
    # min x+y with y >= x - 0.5: park x on its bound, pull y to the row
    rep = vf.solve_lp(_lp([1.0, 1.0], [-1, -2], [5, 5], [[1.0, -1.0]], [0.5]))
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(-2.5, abs=1e-10)
    assert rep.x == pytest.approx([-1.0, -1.5], abs=1e-10)


def test_lp_deterministic_rerun():
    rng = np.random.default_rng(3)
    lp = _lp(
        rng.normal(size=5),
        np.full(5, -2.0),
        np.full(5, 3.0),
        rng.normal(size=(3, 5)),
        rng.normal(size=3) + 2.0,
    )
    r1 = vf.solve_lp(lp)
    r2 = vf.solve_lp(lp)
    assert r1.status == r2.status == "optimal"
    assert r1.objective == r2.objective
    assert np.array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations


def test_lp_random_instances_feasible_and_unbeaten_by_sampling():
    rng = np.random.default_rng(11)
    n_optimal = 0
    for _ in range(40):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(0, 5))
        lo = np.full(n, -2.0)
        hi = np.full(n, 3.0)
        c = rng.normal(size=n)
        a = rng.normal(size=(m, n)) if m else None
        b = rng.normal(size=m) + 1.0 if m else None
        rep = vf.solve_lp(_lp(c, lo, hi, a, b))
        if rep.status != "optimal":
            # box is compact, so the only alternative is infeasibility
            assert rep.status == "infeasible"
            if m:
                pts = rng.uniform(lo, hi, size=(4000, n))
                assert not np.all(pts @ a.T <= b + 1e-9, axis=1).any()
            continue
        n_optimal += 1
        x = rep.x
        assert np.all(x >= lo - 1e-8) and np.all(x <= hi + 1e-8)
        if m:
            assert np.all(a @ x <= b + 1e-7)
        assert rep.dual_bound is not None
        assert abs(rep.dual_bound - rep.objective) < 1e-6
        # sampled feasible points must not beat the reported optimum
        pts = rng.uniform(lo, hi, size=(4000, n))
        feas = np.all(pts @ a.T <= b + 1e-12, axis=1) if m else np.ones(4000, bool)
        if feas.any():
            assert (pts[feas] @ c).min() >= rep.objective - 1e-7
    assert n_optimal >= 25


def test_qp_unconstrained_closed_form():
    qp = vf.BoxQP(
        h=np.array([2.0, 4.0]),
        g=np.array([-2.0, 8.0]),
        lo=np.array([-10.0, -10.0]),
        hi=np.array([10.0, 10.0]),
    )
    rep = vf.solve_box_qp(qp)
    assert rep.status == "optimal"
    assert rep.iterations == 0
    assert rep.x == pytest.approx([1.0, -2.0], abs=1e-12)


def test_qp_box_clipping():
    qp = vf.BoxQP(
        h=np.array([2.0]),
        g=np.array([-10.0]),
        lo=np.array([0.0]),
        hi=np.array([1.0]),
    )
    rep = vf.solve_box_qp(qp)
    assert rep.x == pytest.approx([1.0], abs=1e-12)


def test_qp_constrained_matches_lattice():
    # min x1^2 + x2^2 - 2 x1 - 6 x2 subject to x1 + x2 <= 2 on [0, 2]^2
    qp = vf.BoxQP(
        h=np.array([2.0, 2.0]),
        g=np.array([-2.0, -6.0]),
        lo=np.zeros(2),
        hi=np.full(2, 2.0),
        a_ub=np.array([[1.0, 1.0]]),
        b_ub=np.array([2.0]),
    )
    rep = vf.solve_box_qp(qp, tol=1e-9)
    assert rep.status == "optimal"

    grid = np.linspace(0.0, 2.0, 401)
    xx, yy = np.meshgrid(grid, grid)
    mask = xx + yy <= 2.0 + 1e-12
    obj = xx**2 + yy**2 - 2 * xx - 6 * yy
    best = obj[mask].min()
    got = rep.x @ (0.5 * qp.h * rep.x) + qp.g @ rep.x
    assert got <= best + 1e-6
    # KKT: constraint active, gradient balanced along it
    assert rep.x.sum() == pytest.approx(2.0, abs=1e-6)
    assert rep.x == pytest.approx([0.0, 2.0], abs=1e-4)


def test_qp_deterministic_rerun():
    rng = np.random.default_rng(5)
    n = 6
    qp = vf.BoxQP(
        h=rng.uniform(1.0, 3.0, size=n),
        g=rng.normal(size=n),
        lo=np.full(n, -1.0),
        hi=np.full(n, 1.0),
        a_ub=rng.normal(size=(3, n)),
        b_ub=rng.normal(size=3) + 1.5,
    )
    r1 = vf.solve_box_qp(qp)
    r2 = vf.solve_box_qp(qp)
    assert r1.status == r2.status == "optimal"
    assert np.array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations


def test_qp_validation():
    with pytest.raises(vf.InputError):
        vf.BoxQP(
            h=np.array([0.0]), g=np.array([1.0]),
            lo=np.array([0.0]), hi=np.array([1.0]),
        )
    with pytest.raises(vf.InputError):
        vf.BoxQP(
            h=np.array([1.0]), g=np.array([1.0]),
            lo=np.array([0.0]), hi=np.array([np.inf]),
        )


def test_qp_rows_of_zeros_are_met_or_infeasible_without_iterating():
    # a zero row bounds nothing: its right-hand side alone decides feasibility
    def qp(b):
        return vf.BoxQP(np.full(2, 2.0), np.array([-2.0, -6.0]), np.zeros(2), np.full(2, 2.0),
                        np.zeros((1, 2)), np.array([b]))

    met = vf.solve_box_qp(qp(1.0))
    assert (met.status, met.iterations, met.max_residual) == ("optimal", 0, 0.0)
    assert np.array_equal(met.x, [1.0, 2.0]) and met.objective == -9.0
    short = vf.solve_box_qp(qp(-1.0))
    assert (short.status, short.x, short.objective, short.max_residual) == (
        "infeasible", None, None, 1.0
    )


_NAN, _INF = np.nan, np.inf
_ROW = np.ones((1, 2))


def _qp(h=(1.0, 1.0), g=(0.0, 0.0), lo=(0.0, 0.0), hi=(1.0, 1.0), a_ub=None, b_ub=None):
    return vf.BoxQP(np.array(h), np.array(g), np.array(lo), np.array(hi), a_ub, b_ub)


# every refusal of the problems' checks -> (the start of its message, the call)
PROBLEM_REFUSALS = {
    "lp-nan-cost": ("c must be finite", lambda: _lp([_NAN, 1.0], [0, 0], [1, 1])),
    "lp-inf-cost": ("c must be finite", lambda: _lp([_INF, 1.0], [0, 0], [1, 1])),
    "lp-nan-bound": ("lo must be free of NaN", lambda: _lp([1.0, 1.0], [_NAN, 0], [1, 1])),
    "lp-short-bound": ("c, lo, hi must be 1-D", lambda: _lp([1.0, 1.0], [0], [1, 1])),
    "lp-2d-cost": ("c must be a non-empty 1-D array", lambda: _lp([[1.0, 1.0]], [0, 0], [1, 1])),
    "lp-crossed-box": ("lo must not exceed hi", lambda: _lp([1.0, 1.0], [5, 0], [1, 1])),
    "lp-free-variable": (
        "lo or hi must be finite for every variable", lambda: _lp([1.0], [-_INF], [_INF])
    ),
    "lp-rows-without-rhs": (
        "a_ub and b_ub must be given together",
        lambda: vf.LinearProgram(np.ones(2), np.zeros(2), np.ones(2), a_ub=_ROW),
    ),
    "lp-rhs-without-rows": (
        "a_eq and b_eq must be given together",
        lambda: vf.LinearProgram(np.ones(2), np.zeros(2), np.ones(2), b_eq=np.ones(1)),
    ),
    "lp-nan-row": ("a_ub must be finite", lambda: _lp([1, 1], [0, 0], [1, 1], [[1, _NAN]], [1])),
    "lp-inf-rhs": (
        "b_eq must be finite", lambda: _lp([1, 1], [0, 0], [1, 1], a_eq=_ROW, b_eq=[_INF])
    ),
    "lp-row-width": (
        "a_eq must be (m, 2) over b_eq", lambda: _lp([1, 1], [0, 0], [1, 1], a_eq=[[1]], b_eq=[1])
    ),
    "lp-rhs-length": (
        "a_ub must be (m, 2) over b_ub", lambda: _lp([1, 1], [0, 0], [1, 1], _ROW, [1.0, 2.0])
    ),
    "qp-nan-linear": ("g must be finite", lambda: _qp(g=(_NAN, 0.0))),
    "qp-inf-diagonal": ("h must be finite", lambda: _qp(h=(_INF, 1.0))),
    "qp-open-box": ("hi must be finite", lambda: _qp(hi=(1.0, _INF))),
    "qp-short-linear": ("h, g, lo, hi must be 1-D", lambda: _qp(g=(0.0,))),
    "qp-crossed-box": ("lo must not exceed hi", lambda: _qp(lo=(2.0, 0.0))),
    "qp-zero-diagonal": ("h must be strictly positive", lambda: _qp(h=(0.0, 1.0))),
    "qp-rows-without-rhs": ("a_ub and b_ub must be given together", lambda: _qp(a_ub=_ROW)),
    "qp-nan-row": ("a_ub must be finite", lambda: _qp(a_ub=np.array([[_NAN, 0.0]]), b_ub=[1.0])),
    "qp-row-width": ("a_ub must be a 2-D array", lambda: _qp(a_ub=np.ones(2), b_ub=[1.0])),
    "report-nan-x": ("x must be finite", lambda: vf.SolveReport("optimal", 0.0, [_NAN, 0.0], 1)),
    "report-inf-x": ("x must be finite", lambda: vf.SolveReport("optimal", 0.0, [_INF, 0.0], 1)),
}


@pytest.mark.parametrize("case", PROBLEM_REFUSALS)
def test_every_refusal_of_the_problem_checks_names_its_field(case):
    message, build = PROBLEM_REFUSALS[case]
    with pytest.raises(vf.InputError, match="^" + re.escape(message)):
        build()

