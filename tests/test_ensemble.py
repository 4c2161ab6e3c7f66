"""Pulse-pair fleets: row grammar, minimum fleet size, greedy scheduling."""

import numpy as np
import pytest

import vesflex as vf
from conftest import brute_min_loads


def _sched(rows):
    return vf.EnsembleSchedule(np.asarray(rows, dtype=np.int8))


def test_validate_schedule_accepts_pulse_pairs():
    vf.validate_schedule(_sched([[1, -1, 0, -1, 1]]))
    vf.validate_schedule(_sched([[0, 0, 0], [1, -1, 0], [-1, 1, 0]]))
    vf.validate_schedule(_sched([[1, -1, 1, -1]]))  # back-to-back pairs


def test_validate_schedule_rejects_bad_rows():
    with pytest.raises(vf.InputError):
        vf.validate_schedule(_sched([[1, 1, -1, -1]]))  # no immediate undo
    with pytest.raises(vf.InputError):
        vf.validate_schedule(_sched([[1, 0, -1]]))  # pause inside a pair
    with pytest.raises(vf.InputError):
        vf.validate_schedule(_sched([[2, -2]]))  # amplitude beyond one unit
    with pytest.raises(vf.InputError):
        vf.validate_schedule(_sched([[0, 0, 1]]))  # start in the final slot
    with pytest.raises(vf.InputError):
        vf.validate_schedule(_sched([[1, -1, -1, 0]]))  # dangling second pulse


def test_schedule_aggregates():
    s = _sched([[1, -1, 0, 0], [1, -1, 0, 0], [0, 0, -1, 1]])
    assert s.n_loads == 3
    assert s.n_slots == 4
    assert s.loads_used == 3
    assert np.array_equal(s.aggregate_units(), [2, -2, -1, 1])


def test_pair_counts_is_cumulative_sum():
    ref = [1, 1, -1, 0, -1]
    assert np.array_equal(vf.pair_counts(ref), np.cumsum(ref))


def test_min_loads_hand_cases():
    assert vf.min_loads([1, -1]) == 1
    assert vf.min_loads([1, -1, 1, -1]) == 1
    assert vf.min_loads([2, -2]) == 2
    # the dipoles forced across boundaries 1 and 2 overlap in slot 1, so two
    # loads cannot do it even though the peak is only 1
    assert vf.min_loads([1, 1, -1, -1]) == 3
    assert vf.min_loads([0, 0, 0]) == 0
    assert vf.min_loads([0]) == 0  # one slot: no boundary, so no pair


def test_min_loads_requires_integers_and_zero_sum():
    with pytest.raises(vf.InputError):
        vf.min_loads([0.5, -0.5])
    with pytest.raises(vf.InfeasibleError):
        vf.min_loads([1, 1])
    with pytest.raises(vf.InfeasibleError):
        vf.schedule_tracking([1, 1, -1])


_PAST_INT64 = {
    # 9e18 came back for 1.9e19 loads, and 2**62 for 2**64
    "pair-count": lambda: vf.square_reference(10**18, 10),
    "prefix-sum": lambda: [2**62, 2**62, -2**62, -2**62],
    "float-sample": lambda: [1e19, -1e19],
    "int-sample": lambda: [10**19, -10**19],
    "amplitude": lambda: vf.square_reference(10**21, 2),
}


@pytest.mark.parametrize("case", _PAST_INT64)
def test_a_reference_past_int64_is_refused_by_name(case):
    with pytest.raises(vf.InputError, match="^reference leaves int64: "):
        vf.min_loads(_PAST_INT64[case]())


def test_whole_units_stay_exact_up_to_int64():
    # rounding through float64 once took 2**62 + 1 to 2**62
    assert vf.min_loads([2**62 + 1, -(2**62 + 1)]) == 2**62 + 1
    top = np.iinfo(np.int64).max
    assert vf.min_loads([top, -top]) == top
    assert vf.min_loads(np.zeros(3, dtype=np.uint8)) == 0


@pytest.mark.parametrize("name, call", [
    ("n_loads", lambda: vf.schedule_tracking(vf.staircase_triangle(1), n_loads=10**15)),
    ("peak_units", lambda: vf.staircase_triangle(10**15)),
    ("tau_slots", lambda: vf.square_reference(1, 10**15)),
])
def test_a_table_past_the_cell_cap_is_refused_before_it_is_made(name, call):
    # numpy used to try, and fail with _ArrayMemoryError, to allocate petabytes
    with pytest.raises(vf.InputError, match=f"^{name} = {10**15} needs .* more than "
                                            f"{vf.ensemble.MAX_CELLS}$"):
        call()


def test_the_cell_cap_admits_a_table_at_the_cap(monkeypatch):
    monkeypatch.setattr(vf.ensemble, "MAX_CELLS", 12)
    assert vf.square_reference(1, 6).size == 12
    assert vf.staircase_triangle(2).size == 9  # 4 * peak + 1 slots
    assert vf.schedule_tracking([1, -1], n_loads=6).actions.size == 12
    for past in (lambda: vf.square_reference(1, 7), lambda: vf.staircase_triangle(3),
                 lambda: vf.schedule_tracking([1, -1], n_loads=7)):
        with pytest.raises(vf.InputError, match="more than 12$"):
            past()


def test_min_loads_matches_bruteforce_on_small_refs():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 25:
        n = int(rng.integers(2, 6))
        ref = rng.integers(-2, 3, size=n)
        ref[-1] -= ref.sum()
        if abs(ref[-1]) > 2 or not ref.any():
            continue
        claimed = vf.min_loads(ref)
        brute = brute_min_loads(ref, k_max=3)
        if claimed <= 3:
            assert brute == claimed
        else:
            assert brute is None
        checked += 1


def test_greedy_schedule_achieves_min_loads():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        ref = rng.integers(-3, 4, size=n)
        ref[-1] -= ref.sum()
        if abs(ref[-1]) > 3:
            continue
        need = vf.min_loads(ref)
        sched = vf.schedule_tracking(ref)
        vf.validate_schedule(sched)
        assert np.array_equal(sched.aggregate_units(), ref)
        assert sched.loads_used == need
        assert sched.n_loads == need


def _setdiff_schedule(ref, n_loads):
    # the first-fit pick as once written with np.setdiff1d: the lowest loads
    # outside the last boundary's pairs
    s = vf.pair_counts(ref)
    actions = np.zeros((n_loads, s.size), dtype=np.int8)
    busy = np.empty(0, dtype=np.int64)
    for t in range(s.size - 1):
        busy = np.setdiff1d(np.arange(n_loads), busy)[: abs(int(s[t]))]
        sign = 1 if s[t] > 0 else -1
        actions[busy, t] = sign
        actions[busy, t + 1] = -sign
    return actions


def test_schedule_tracking_picks_the_loads_the_setdiff_oracle_picks():
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 16))
        ref = rng.integers(-4, 5, size=n)
        ref[-1] -= ref.sum()
        if abs(ref[-1]) > 4:
            continue
        n_loads = vf.min_loads(ref) + int(rng.integers(0, 4))
        sched = vf.schedule_tracking(ref, n_loads=n_loads)
        assert np.array_equal(sched.actions, _setdiff_schedule(ref, n_loads)), ref
        checked += 1


def test_schedule_tracking_respects_fleet_cap():
    ref = [2, -2]
    sched = vf.schedule_tracking(ref, n_loads=5)
    assert sched.n_loads == 5
    assert sched.loads_used == 2
    with pytest.raises(vf.InfeasibleError):
        vf.schedule_tracking(ref, n_loads=1)


def test_amplitude_at_timescale():
    assert vf.amplitude_at_timescale(4, 1) == 4
    assert vf.amplitude_at_timescale(4, 2) == 1
    assert vf.amplitude_at_timescale(6, 2) == 2
    assert vf.amplitude_at_timescale(5, 3) == 1
    assert [vf.amplitude_at_timescale(6, tau) for tau in (1, 2, 3)] == [6, 2, 1]
    assert vf.amplitude_at_timescale(0, 1) == 0  # empty fleet tracks nothing
    with pytest.raises(vf.InputError):
        vf.amplitude_at_timescale(-1, 1)
    with pytest.raises(vf.InputError):
        vf.amplitude_at_timescale(4, 0)


def test_square_wave_amplitude_is_tight():
    for n in (1, 3, 5):
        ref = vf.square_reference(n, 1)
        assert vf.min_loads(ref) == n
        sched = vf.schedule_tracking(ref, n_loads=n)
        assert np.array_equal(sched.aggregate_units(), ref)
        with pytest.raises(vf.InfeasibleError):
            vf.schedule_tracking(vf.square_reference(n + 1, 1), n_loads=n)


def test_square_wave_slow_timescale_needs_more_loads():
    # holding an amplitude for tau slots costs 2*tau - 1 loads per unit
    ref = vf.square_reference(2, 3)
    assert np.array_equal(ref, [2, 2, 2, -2, -2, -2])
    assert vf.min_loads(ref) == 10
    assert vf.amplitude_at_timescale(10, 3) == 2


def test_staircase_triangle_shape():
    tri = vf.staircase_triangle(2)
    assert np.array_equal(tri, [0, 1, 2, 1, 0, -1, -2, -1, 0])
    assert tri.sum() == 0
    tri5 = vf.staircase_triangle(5)
    assert len(tri5) == 21
    assert tri5.max() == 5 and tri5.min() == -5
    assert np.array_equal(np.diff(tri5)[:5], np.ones(5))
    with pytest.raises(vf.InputError):
        vf.staircase_triangle(0)


def test_staircase_triangle_fleet_cost_grows_quadratically():
    # the running dipole count peaks at peak^2, and adjacent slots both sit
    # near the peak, so the fleet need is 2 * peak^2
    for peak in (2, 3, 5):
        tri = vf.staircase_triangle(peak)
        assert vf.pair_counts(tri).max() == peak**2
        assert vf.min_loads(tri) == 2 * peak**2
    sched = vf.schedule_tracking(vf.staircase_triangle(3))
    vf.validate_schedule(sched)
    assert np.array_equal(sched.aggregate_units(), vf.staircase_triangle(3))
    assert sched.loads_used == 18
