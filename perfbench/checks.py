"""Output checks.  Each raises CheckFailed with a reason; a pass returns None.

Values are compared within tolerances, never byte-for-byte: a later solver
may return a different but equally optimal one-/inf-norm argmin, and exact
kernels differ from the dense solvers in the last bits.  The oracles here
(the zero-order-hold stepper, the ride-then-hold energy stepper and the
envelope formula) are written independently of the package.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from gen import THETA_MAX, THETA_MIN, THETA_SP, Building

# comfort-band slack for optimizer output: the box QP stops at a 1e-7
# constraint residual, and plan() re-simulates the clipped demand
BAND_TOL_C = 1e-6
POWER_TOL_KW = 1e-9
# simulate/envelope CSVs against the stepper and formulas (same arithmetic,
# possibly another summation order)
SERIES_RTOL = 1e-9
SERIES_ATOL = 1e-9
# capacities are optimal values, unique even where the argmin is not
CAP_ATOL = 1e-7
# tracking error may not exceed the seed-recorded optimum by more than this
ERR_RTOL = 1e-5
ERR_ATOL = 1e-7


class CheckFailed(Exception):
    pass


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"cannot read {path}: {exc}") from None
    if not rows:
        raise CheckFailed(f"{path} is empty")
    return rows[0], rows[1:]


def numeric_columns(path: str, header: list[str], n_rows: int) -> dict[str, np.ndarray]:
    got_header, body = read_csv(path)
    if got_header != header:
        raise CheckFailed(f"{path}: header {got_header} != {header}")
    if len(body) != n_rows:
        raise CheckFailed(f"{path}: {len(body)} rows, expected {n_rows}")
    try:
        arr = np.array([[float(v) for v in row] for row in body], dtype=float)
    except ValueError as exc:
        raise CheckFailed(f"{path}: non-numeric field ({exc})") from None
    if arr.shape != (n_rows, len(header)):
        raise CheckFailed(f"{path}: ragged rows")
    if not np.all(np.isfinite(arr)):
        raise CheckFailed(f"{path}: non-finite value")
    return {name: arr[:, j] for j, name in enumerate(header)}


def _close(name: str, got, want, rtol: float, atol: float) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape} != {want.shape}")
    err = np.abs(got - want)
    lim = atol + rtol * np.abs(want)
    if np.any(err > lim):
        k = int(np.argmax(err - lim))
        raise CheckFailed(
            f"{name}[{k}] = {float(got.flat[k])!r}, expected {float(want.flat[k])!r} "
            f"(tolerance {lim.flat[k]:.3g})"
        )


# ---------------------------------------------------------------- oracles --


def zoh_simulate(b: Building, p: np.ndarray, theta0: float = THETA_SP) -> np.ndarray:
    """theta_1..theta_N under demand p, exact zero-order hold."""
    a = math.exp(-b.dt / (b.r * b.c))
    qs = b.theta_a + b.r * (b.q_d - b.cop * p)
    out = np.empty(p.size)
    th = theta0
    for k in range(p.size):
        th = qs[k] + (th - qs[k]) * a
        out[k] = th
    return out


def ride_then_hold_energy(
    r: float, c: float, cop: float, delta_theta: float, p_tilde_max: float,
    dt: float, n_steps: int,
) -> float:
    """Grid-exact optimum of a constant-weather energy cap, kWh.

    Ride the full deviation while the next step stays inside the band, land
    on the edge with one partial-power sample, then hold the deviation that
    pins the edge.
    """
    a = math.exp(-dt / (r * c))
    dc_gain = r * cop
    lvl = dc_gain * p_tilde_max
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
        partial = (delta_theta - drop * a) / (dc_gain * (1.0 - a))
        e += partial * dt
        e += (delta_theta / dc_gain) * (n_steps - k1 - 1) * dt
    return e


# ------------------------------------------------------------------ checks --

CAPACITY_HEADER = ["p_c_kW", "p_dc_kW", "e_c_kWh", "e_dc_kWh", "horizon_h"]


def capacity_values(path: str) -> list[float]:
    return [float(v[0]) for v in numeric_columns(path, CAPACITY_HEADER, 1).values()]


def check_capacity_constant(
    path: str, r: float, c: float, cop: float, p_rated: float,
    theta_a: float, q_d: float, dt: float, n: int,
) -> None:
    """Constant weather: rate caps from the baseline, energy caps from the stepper."""
    base = (q_d + (theta_a - THETA_SP) / r) / cop
    want = [
        p_rated - base,
        base,
        ride_then_hold_energy(r, c, cop, THETA_SP - THETA_MIN, p_rated - base, dt, n),
        ride_then_hold_energy(r, c, cop, THETA_MAX - THETA_SP, base, dt, n),
        n * dt,
    ]
    _close("capacity", capacity_values(path), want, 0.0, CAP_ATOL)


def check_capacity_recorded(path: str, recorded: list[float]) -> None:
    _close("capacity", capacity_values(path), recorded, CAP_ATOL, CAP_ATOL)


def tracking_error(p: np.ndarray, ref: np.ndarray, dt: float, norm: str) -> float:
    res = ref - p
    if norm == "two":
        return math.sqrt(float(res @ res) * dt)
    if norm == "one":
        return float(np.abs(res).sum()) * dt
    return float(np.abs(res).max())


def check_plan(path: str, b: Building, norm: str, recorded_err: float) -> None:
    """Feasible, consistent with the model, and no worse than the recorded optimum."""
    cols = numeric_columns(path, ["t_hours", "ref_kw", "p_kw", "theta_C"], b.n)
    p = cols["p_kw"]
    _close("t_hours", cols["t_hours"], np.arange(b.n) * b.dt, 0.0, 1e-9)
    _close("ref_kw", cols["ref_kw"], b.ref, 1e-12, 1e-12)
    if np.any(p < -POWER_TOL_KW) or np.any(p > b.p_rated + POWER_TOL_KW):
        k = int(np.argmax((p < -POWER_TOL_KW) | (p > b.p_rated + POWER_TOL_KW)))
        raise CheckFailed(f"p[{k}] = {float(p[k])!r} outside [0, {b.p_rated}]")
    theta = zoh_simulate(b, p)
    _close("theta_C", cols["theta_C"], theta, SERIES_RTOL, SERIES_ATOL)
    out = (theta < THETA_MIN - BAND_TOL_C) | (theta > THETA_MAX + BAND_TOL_C)
    if np.any(out):
        k = int(np.argmax(out))
        raise CheckFailed(f"theta[{k + 1}] = {float(theta[k])!r} outside the comfort band")
    err = tracking_error(p, b.ref, b.dt, norm)
    if err > recorded_err * (1.0 + ERR_RTOL) + ERR_ATOL:
        raise CheckFailed(
            f"{norm}-norm tracking error {err!r} exceeds the recorded {recorded_err!r}"
        )


def check_simulate_baseline(path: str, b: Building) -> None:
    """The baseline run: p is the equilibrium demand and theta holds the setpoint."""
    cols = numeric_columns(path, ["t_hours", "p_kw", "theta_C"], b.n)
    base = b.baseline()
    _close("p_kw", cols["p_kw"], base, SERIES_RTOL, SERIES_ATOL)
    _close("theta_C", cols["theta_C"], zoh_simulate(b, base), SERIES_RTOL, SERIES_ATOL)
    _close("theta_C", cols["theta_C"], np.full(b.n, THETA_SP), 0.0, 1e-6)


def check_envelope(path: str, b: Building) -> None:
    cols = numeric_columns(path, ["t_hours", "p_lo_kw", "p_hi_kw", "empty"], b.n)
    p_hi = np.clip((b.q_d + (b.theta_a - THETA_MIN) / b.r) / b.cop, 0.0, b.p_rated)
    p_lo = np.clip((b.q_d + (b.theta_a - THETA_MAX) / b.r) / b.cop, 0.0, b.p_rated)
    _close("p_lo_kw", cols["p_lo_kw"], p_lo, SERIES_RTOL, SERIES_ATOL)
    _close("p_hi_kw", cols["p_hi_kw"], p_hi, SERIES_RTOL, SERIES_ATOL)
    _close("empty", cols["empty"], np.zeros(b.n), 0.0, 0.0)


def check_recorded_csv(path: str, recorded_path: str, exact: bool) -> None:
    """Numeric comparison with a CSV recorded at the seed commit."""
    want_header, want = read_csv(recorded_path)
    got_header, got = read_csv(path)
    if got_header != want_header:
        raise CheckFailed(f"{path}: header {got_header} != {want_header}")
    if len(got) != len(want):
        raise CheckFailed(f"{path}: {len(got)} rows, expected {len(want)}")
    for i, (grow, wrow) in enumerate(zip(got, want)):
        if len(grow) != len(wrow):
            raise CheckFailed(f"{path}: row {i + 1} has {len(grow)} fields")
        for g, w in zip(grow, wrow):
            if exact or g == w:
                if g != w:
                    raise CheckFailed(f"{path}: row {i + 1}: {g!r} != {w!r}")
                continue
            try:
                gv, wv = float(g), float(w)
            except ValueError:
                raise CheckFailed(f"{path}: row {i + 1}: {g!r} != {w!r}") from None
            if math.isnan(wv) and math.isnan(gv):
                continue
            if not abs(gv - wv) <= SERIES_ATOL + SERIES_RTOL * abs(wv):
                raise CheckFailed(f"{path}: row {i + 1}: {g!r}, expected {w!r}")


def check_stdout(path: str, needle: str) -> None:
    with open(path, encoding="utf-8") as fh:
        if needle not in fh.read():
            raise CheckFailed(f"stdout lacks {needle!r}")
