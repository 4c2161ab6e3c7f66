"""Shared fixtures: the reference building and an independent energy oracle."""

import numpy as np
import pytest

import vesflex as vf

R_THERMAL = 2.707
C_THERMAL = 1.283
ETA_COP = 3.5
P_RATED = 2.2729431632276107
DT = 1.0 / 60.0


def make_params(p_rated: float = P_RATED) -> vf.ThermalParams:
    return vf.ThermalParams(
        r_thermal=R_THERMAL, c_thermal=C_THERMAL, eta_cop=ETA_COP, p_rated=p_rated
    )


def comfort_band() -> vf.QoSBounds:
    return vf.QoSBounds(theta_min=23.0, theta_max=25.0)


def hot_day_scenario(
    horizon_h: float = 10.0,
    dt: float = DT,
    theta_a: float = 32.0,
    q_d: float = 1.5,
    p_rated: float = P_RATED,
) -> vf.Scenario:
    n = int(round(horizon_h / dt))
    dist = vf.DisturbanceSeries.constant(dt, n, theta_a=theta_a, q_d=q_d)
    return vf.Scenario(
        params=make_params(p_rated),
        bounds=comfort_band(),
        dist=dist,
        theta_sp=24.0,
        theta0=24.0,
    )


def discrete_ride_energy(
    params: vf.ThermalParams,
    delta_theta: float,
    p_tilde_max: float,
    dt: float,
    n_steps: int,
) -> float:
    """Grid-exact ride-then-hold energy, stepped sample by sample.

    Rides the full deviation while the next step stays inside the band,
    lands exactly on the edge with one partial-power sample, then holds the
    steady deviation that pins the edge.  Independent of the LP machinery,
    so it cross-checks optimizer output at matching dt.
    """
    a = vf.decay_factor(params, dt)
    lvl = params.dc_gain * p_tilde_max
    drop = 0.0
    k1 = 0
    while k1 < n_steps:
        nxt = drop + (lvl - drop) * (1.0 - a)
        if nxt > delta_theta + 1e-15:
            break
        drop = nxt
        k1 += 1
    e = p_tilde_max * k1 * dt
    if k1 < n_steps:
        partial = (delta_theta - drop * a) / (params.dc_gain * (1.0 - a))
        e += partial * dt
        e += (delta_theta / params.dc_gain) * (n_steps - k1 - 1) * dt
    return e


def box_qp_plan(scn: vf.Scenario, ref: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """The two-norm plan by the dense box QP over p alone, the plan's oracle.

    The temperature rows come from the triangular input-to-state map, so
    nothing here shares the planner's temperature-path formulation.
    """
    from vesflex.planner import input_to_state_map

    n = scn.n_steps
    lmat, free = input_to_state_map(scn)
    lo_t, hi_t = scn.theta_limits()
    report = vf.solve_box_qp(vf.BoxQP(
        h=np.full(n, 2.0),
        g=-2.0 * ref,
        lo=np.zeros(n),
        hi=np.full(n, scn.params.p_rated),
        a_ub=np.vstack([lmat, -lmat]),
        b_ub=np.concatenate([free - lo_t[1:], hi_t[1:] - free]),
    ), tol=tol)
    assert report.status == "optimal"
    return report.x


def enumerate_row_words(n_slots: int) -> np.ndarray:
    """Every non-idle per-load action row: disjoint (+1, -1) or (-1, +1) pairs.

    Used by the brute-force fleet-size oracle; enumeration is independent of
    the library's own row validation.
    """
    words: list[tuple[int, ...]] = []

    def extend(prefix: list[int]) -> None:
        t = len(prefix)
        if t == n_slots:
            if any(prefix):
                words.append(tuple(prefix))
            return
        extend(prefix + [0])
        if t + 1 < n_slots:
            for v in (1, -1):
                extend(prefix + [v, -v])

    extend([])
    return np.array(words, dtype=np.int16)


def multiset_sum_tables(n_slots: int, k_max: int) -> list[set]:
    """tables[k-1] = set of aggregates reachable with exactly k active rows."""
    words = enumerate_row_words(n_slots)
    tables = []
    cur = np.unique(words, axis=0)
    tables.append(set(map(tuple, cur.tolist())))
    for _ in range(2, k_max + 1):
        cur = np.unique(
            (cur[:, None, :] + words[None, :, :]).reshape(-1, n_slots), axis=0
        )
        tables.append(set(map(tuple, cur.tolist())))
    return tables


def brute_min_loads(ref, k_max: int) -> int | None:
    """Exhaustive minimum fleet size, or None when it exceeds k_max."""
    target = tuple(int(v) for v in ref)
    for k, table in enumerate(multiset_sum_tables(len(target), k_max), start=1):
        if target in table:
            return k
    return None


@pytest.fixture
def params() -> vf.ThermalParams:
    return make_params()


@pytest.fixture
def bounds() -> vf.QoSBounds:
    return comfort_band()


@pytest.fixture
def hot_day() -> vf.Scenario:
    return hot_day_scenario()


@pytest.fixture
def hot_day_2h() -> vf.Scenario:
    return hot_day_scenario(horizon_h=2.0)
