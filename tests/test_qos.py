"""Temperature-band verdicts and the bounds they are judged against."""

import numpy as np
import pytest

import vesflex as vf


def _theta(vals, dt=0.25):
    return vf.Trajectory(dt, np.asarray(vals, dtype=float), unit="C")


def test_inside_band_is_ok():
    v = vf.satisfies(_theta([24.0, 23.0, 25.0]), vf.QoSBounds(23.0, 25.0))
    assert v.ok
    assert bool(v)
    assert v.first_violation_index is None


def test_first_violation_reported():
    v = vf.satisfies(_theta([24.0, 22.5, 22.0]), vf.QoSBounds(23.0, 25.0))
    assert not v
    assert v.first_violation_index == 1
    assert v.channel == "theta"
    assert v.value == 22.5
    assert v.limit == 23.0


def test_closed_interval_and_atol():
    band = vf.QoSBounds(23.0, 25.0)
    graze = _theta([23.0, 25.0])
    assert vf.satisfies(graze, band).ok

    nudge = _theta([23.0 - 1e-10])
    assert not vf.satisfies(nudge, band).ok
    assert vf.satisfies(nudge, band, atol=1e-9).ok
    with pytest.raises(vf.InputError):
        vf.satisfies(nudge, band, atol=-1.0)


def test_time_varying_theta_bounds():
    band = vf.QoSBounds(
        23.0, 25.0,
        theta_min_t=np.array([23.0, 24.5, 23.0]),
        theta_max_t=np.array([25.0, 25.0, 25.0]),
    )
    v = vf.satisfies(_theta([24.0, 24.0, 24.0]), band)
    assert not v.ok
    assert v.first_violation_index == 1
    assert v.limit == 24.5


def test_per_sample_bounds_are_copied_then_frozen():
    lo, hi = np.array([23.0, 24.5, 23.0]), np.array([25.0, 25.0, 25.0])
    band = vf.QoSBounds(23.0, 25.0, theta_min_t=lo, theta_max_t=hi)
    lo[1] = 23.5
    assert band.theta_min_t[1] == 24.5
    assert lo.flags.writeable and hi.flags.writeable
    assert not band.theta_min_t.flags.writeable
    assert not band.theta_max_t.flags.writeable


def test_bounds_validation():
    with pytest.raises(vf.InputError):
        vf.QoSBounds(25.0, 23.0)
