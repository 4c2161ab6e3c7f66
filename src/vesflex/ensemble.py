"""Tracking a slotted reference with an ensemble of pulse-pair loads.

Each load in the ensemble can contribute one primitive action at a time: a
demand pulse of +u kW for one slot immediately paid back with -u kW in the
next slot (or the mirrored -u then +u).  Slots never wrap; a pulse started
in the final slot has nowhere to pay back, so it is not allowed.  A load
may perform many pulse pairs over the horizon as long as they do not
overlap in time.

For an integer reference r (in units of u) the *signed* number of pulse
pairs on each slot boundary is forced, not chosen.  Let S_t = r_0 + ... +
r_t.  A pair spanning slots (t, t+1) adds +1 to r_t and -1 to r_{t+1} (or
the reverse), so the (+ then -) pairs minus the (- then +) pairs spanning
each boundary telescope to exactly S_t.  The pairs themselves are not
unique: a schedule may add opposite pairs on one boundary that cancel
(two loads doing [+1, -1] and [-1, +1]), and validate_schedule accepts
that.  Such extra pairs only add loads.  Consequences, each of which the
code below exploits:

* r is trackable only if S_{N-1} = 0: every pair nets zero energy, so a
  reference that does not is infeasible outright.
* slot t is worked by at least the |S_{t-1}| pairs ending there plus the
  |S_t| pairs starting there, and no load can do both at once, so every
  valid schedule needs max_t (|S_{t-1}| + |S_t|) loads, and a schedule
  with no cancelling pairs needs no more.
* assigning pairs to loads is interval coloring on intervals of length
  two slots, where greedy first-fit is optimal.

A square reference of amplitude A units held for tau slots each way costs
A * (2*tau - 1) loads, so a fleet of n supports amplitude floor(n/(2*tau-1))
at time scale tau: amplitude and time scale trade off inside one fleet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InputError, ShapeError, _freeze, require_count

# Most slots a reference, and most load-slot cells a schedule, may span: 80 MB per
# int64 slot array, 10 MB of int8 actions.  Past it the count that asked is refused
# before any array is made.
MAX_CELLS = 10_000_000

_INT64_MAX = int(np.iinfo(np.int64).max)
_TOO_WIDE = ("reference leaves int64: every sample and every slot's pair count "
             f"|S_(t-1)| + |S_t| must lie within +-{_INT64_MAX}")


def _as_units(ref_units) -> np.ndarray:
    """The reference in whole units as exact int64; InputError if it is not one."""
    r = np.asarray(ref_units)
    if r.ndim != 1 or r.size == 0:
        raise ShapeError("reference must be a non-empty 1-D sequence")
    # whole numbers stay exact: rounding through float64 would move them past 2**53;
    # numpy holds those past int64 as uint64 or Python objects
    if r.dtype.kind == "O" or (r.dtype.kind in "iu" and r.max() > _INT64_MAX):
        raise InputError(_TOO_WIDE)
    if r.dtype.kind in "iu":
        return r.astype(np.int64)
    ri = np.rint(r)
    if not np.allclose(r, ri, rtol=0.0, atol=1e-9):
        raise InputError("reference must be integer multiples of the unit pulse")
    if not np.all(np.abs(ri) < 2.0**63):
        raise InputError(_TOO_WIDE)
    return ri.astype(np.int64)


def _check_cells(name: str, value: int, cells: int) -> None:
    if cells > MAX_CELLS:
        raise InputError(f"{name} = {value} needs {cells} slots or schedule cells, "
                         f"more than {MAX_CELLS}")


@dataclass(frozen=True, eq=False)
class EnsembleSchedule:
    """Per-load slot actions, rows in {-1, 0, +1} units of the pulse height."""

    actions: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, "actions", self.actions, np.int8, ndim=2)

    @property
    def n_loads(self) -> int:
        return int(self.actions.shape[0])

    @property
    def n_slots(self) -> int:
        return int(self.actions.shape[1])

    @property
    def loads_used(self) -> int:
        return int(np.any(self.actions != 0, axis=1).sum())

    def aggregate_units(self) -> np.ndarray:
        return self.actions.sum(axis=0, dtype=np.int64)


def validate_schedule(schedule: EnsembleSchedule) -> None:
    """Raise InputError unless every row is a chain of legal pulse pairs.

    Legal row grammar: zero or more non-overlapping adjacent-slot pairs
    (+1, -1) or (-1, +1), everything else zero.  No pair may start in the
    final slot.
    """
    for i, row in enumerate(schedule.actions):
        t = 0
        n = row.size
        while t < n:
            v = int(row[t])
            if v == 0:
                t += 1
                continue
            if abs(v) != 1:
                raise InputError(f"load {i} slot {t}: action {v} exceeds one unit")
            if t + 1 >= n:
                raise InputError(f"load {i}: pulse at final slot {t} cannot pay back")
            if int(row[t + 1]) != -v:
                raise InputError(
                    f"load {i} slot {t}: pulse {v:+d} not paid back in slot {t + 1}"
                )
            t += 2


def pair_counts(ref_units) -> np.ndarray:
    """Signed pulse pairs spanning each slot boundary: the prefix sum of r.

    Entry t is positive for (+ then -) pairs on slots (t, t+1), negative
    for the mirrored orientation.  Only this signed count is forced: a
    schedule may also add opposite pairs on one boundary that cancel.  So
    it is the net pair count of every schedule that tracks the reference,
    not the pair list of any particular schedule.
    """
    r = _as_units(ref_units)
    s = np.cumsum(r)
    need = np.abs(s)  # int64's least value has no absolute value and stays negative
    # a prefix sum past int64 wraps round to the sign neither of its addends has
    wrapped = np.any((np.append(0, s[:-1]) ^ s) & (r ^ s) < 0)
    if wrapped or np.any(need < 0) or np.any(need[:-1] > _INT64_MAX - need[1:]):
        raise InputError(_TOO_WIDE)
    return s


def min_loads(ref_units) -> int:
    """Exact minimum fleet size that can track the reference.

    max_t(|S_{t-1}| + |S_t|): at least that many pairs end at or start in
    a slot, and they occupy distinct loads.  Cancelling pairs only add to
    both counts, so this is a lower bound for every valid schedule.  It is
    achieved by greedy interval coloring, see schedule_tracking.
    """
    return _min_loads(pair_counts(ref_units))


def _min_loads(s: np.ndarray) -> int:
    """min_loads from the pair counts s; InfeasibleError unless the reference sums to zero."""
    if s[-1] != 0:
        raise InfeasibleError(
            "reference sums to "
            f"{int(s[-1])} units: every pulse pair nets zero energy over its "
            "two slots, so only zero-sum references are trackable"
        )
    need = np.abs(s)
    if need.size == 1:
        return int(need[0])
    return int(np.max(need[:-1] + need[1:]))


def schedule_tracking(ref_units, n_loads: int | None = None) -> EnsembleSchedule:
    """Assign the forced pulse pairs to concrete loads, minimally.

    First-fit greedy over boundaries left to right: a pair spanning slots
    (t, t+1) goes to the lowest-numbered load idle since slot t-1 or
    earlier.  For intervals sorted by start this uses exactly the clique
    bound of loads, so loads_used == min_loads(ref).  Passing n_loads
    smaller than that is InfeasibleError; larger fleets simply leave the
    extra rows idle.
    """
    s = pair_counts(ref_units)
    need = _min_loads(s)  # refuses a reference that does not sum to zero
    n_loads = need if n_loads is None else n_loads
    require_count("n_loads", n_loads)
    if n_loads < need:
        raise InfeasibleError(f"reference needs {need} loads, fleet has only {n_loads}")
    _check_cells("n_loads", n_loads, n_loads * s.size)
    actions = np.zeros((n_loads, s.size), dtype=np.int8)
    free = np.ones(n_loads, dtype=bool)
    for t in range(s.size - 1):
        # every pair holds its load for two slots: all but boundary t-1's are free
        busy = np.flatnonzero(free)[: abs(int(s[t]))]
        free[:] = True
        free[busy] = False
        sign = 1 if s[t] > 0 else -1
        actions[busy, t] = sign
        actions[busy, t + 1] = -sign
    return EnsembleSchedule(actions)


def amplitude_at_timescale(n_loads: int, tau_slots: int) -> int:
    """Largest square-wave amplitude (units) a fleet sustains at width tau.

    The reference +A for tau slots then -A for tau slots costs A*(2*tau - 1)
    loads at the boundary where ramp-up pairs stack on ramp-down pairs.
    """
    require_count("n_loads", n_loads)
    require_count("tau_slots", tau_slots, 1)
    return n_loads // (2 * tau_slots - 1)


def square_reference(amplitude_units: int, tau_slots: int) -> np.ndarray:
    """One period of the +A/-A square wave used by the trade-off analysis."""
    require_count("amplitude_units", amplitude_units)
    require_count("tau_slots", tau_slots, 1)
    _check_cells("tau_slots", tau_slots, 2 * tau_slots)
    return np.repeat(_as_units([amplitude_units, -amplitude_units]), tau_slots)


def staircase_triangle(peak_units: int) -> np.ndarray:
    """Symmetric triangle reference: 0 up to +peak, down through -peak, back.

    Slope one unit per slot, 4*peak + 1 slots starting from zero, zero-sum
    by symmetry.  Its prefix sum peaks at peak^2, so the exact fleet cost
    is 2*peak^2: a useful stress case precisely because the reference
    looks mild and the cost is quadratic anyway.
    """
    require_count("peak_units", peak_units, 1)
    _check_cells("peak_units", peak_units, 4 * peak_units + 1)
    p = peak_units
    return np.concatenate(
        [
            np.arange(0, p + 1, dtype=np.int64),
            np.arange(p - 1, -p - 1, -1, dtype=np.int64),
            np.arange(-p + 1, 1, dtype=np.int64),
        ]
    )
