"""Comfort-channel verdicts and the compressor lockout counter."""

import numpy as np
import pytest

import vesflex as vf


def _theta(vals, dt=0.25):
    return vf.Trajectory(dt, np.asarray(vals, dtype=float), unit="C")


def test_inside_band_is_ok():
    v = vf.satisfies(vf.QoSSignal(theta=_theta([24.0, 23.0, 25.0])), vf.QoSBounds(23.0, 25.0))
    assert v.ok
    assert bool(v)
    assert v.first_violation_index is None


def test_first_violation_reported():
    sig = vf.QoSSignal(theta=_theta([24.0, 22.5, 22.0]))
    v = vf.satisfies(sig, vf.QoSBounds(23.0, 25.0))
    assert not v
    assert v.first_violation_index == 1
    assert v.channel == "theta"
    assert v.value == 22.5
    assert v.limit == 23.0


def test_closed_interval_and_atol():
    band = vf.QoSBounds(23.0, 25.0)
    graze = vf.QoSSignal(theta=_theta([23.0, 25.0]))
    assert vf.satisfies(graze, band).ok

    nudge = vf.QoSSignal(theta=_theta([23.0 - 1e-10]))
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
    v = vf.satisfies(vf.QoSSignal(theta=_theta([24.0, 24.0, 24.0])), band)
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


def test_channel_tie_order():
    # theta and humidity both break at index 0; theta wins the report
    band = vf.QoSBounds(23.0, 25.0, w_min=0.004, w_max=0.01)
    sig = vf.QoSSignal(theta=_theta([26.0]), w=vf.Trajectory(0.25, np.array([0.02])))
    v = vf.satisfies(sig, band)
    assert not v.ok
    assert v.channel == "theta"


def test_humidity_channel():
    band = vf.QoSBounds(23.0, 25.0, w_min=0.004, w_max=0.01)
    sig = vf.QoSSignal(
        theta=_theta([24.0, 24.0]),
        w=vf.Trajectory(0.25, np.array([0.008, 0.012])),
    )
    v = vf.satisfies(sig, band)
    assert v.channel == "humidity"
    assert v.first_violation_index == 1
    assert v.limit == 0.01


def test_missing_channels_raise():
    sig = vf.QoSSignal(theta=_theta([24.0]))
    with pytest.raises(vf.ChannelMissingError):
        vf.satisfies(sig, vf.QoSBounds(23.0, 25.0, w_min=0.004, w_max=0.01))
    with pytest.raises(vf.ChannelMissingError):
        vf.satisfies(sig, vf.QoSBounds(23.0, 25.0, tau_lock=0.5))


def test_lockout_channel_verdict():
    band = vf.QoSBounds(23.0, 25.0, tau_lock=0.5)
    sig = vf.QoSSignal(
        theta=_theta([24.0, 24.0, 24.0]),
        s=vf.Trajectory(0.25, np.array([0.0, 1.0, 2.0])),
    )
    v = vf.satisfies(sig, band)
    assert v.channel == "lockout"
    assert v.first_violation_index == 2
    assert v.limit == 1.0


def test_bounds_validation():
    with pytest.raises(vf.InputError):
        vf.QoSBounds(25.0, 23.0)
    with pytest.raises(vf.InputError):
        vf.QoSBounds(23.0, 25.0, w_min=0.004)
    with pytest.raises(vf.InputError):
        vf.QoSBounds(23.0, 25.0, w_min=0.01, w_max=0.004)
    with pytest.raises(vf.InputError):
        vf.QoSBounds(23.0, 25.0, tau_lock=0.0)


def test_signal_grid_mismatch():
    with pytest.raises(vf.ShapeError):
        vf.QoSSignal(theta=_theta([24.0, 24.0]), w=vf.Trajectory(0.25, np.zeros(3)))
    with pytest.raises(vf.ShapeError):
        vf.QoSSignal(theta=_theta([24.0, 24.0]), s=vf.Trajectory(0.5, np.zeros(2)))


def test_lockout_count_dense_switching():
    # dt 0.05 h, lockout window 0.1 h: two switch events fit in one window
    # when the unit toggles every sample
    on = vf.Trajectory(0.05, np.array([1.0, 0.0, 1.0, 0.0, 1.0]))
    s = vf.lockout_count(on, tau_lock=0.1, u_init=0.0)
    assert s.values[0] == 1  # u_init mismatch counts as an event at t = 0
    assert s.values.max() == 2


def test_lockout_count_exact_spacing_never_overlaps():
    on = vf.Trajectory(0.05, np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0]))
    s = vf.lockout_count(on, tau_lock=0.1)
    assert s.values.max() == 1


def test_lockout_count_fractional_window():
    # tau/dt = 1.8 rounds the window up: consecutive-sample switches overlap,
    # switches two samples apart do not
    on = vf.Trajectory(0.05, np.array([1.0, 0.0, 0.0, 1.0, 1.0]))
    s = vf.lockout_count(on, tau_lock=0.09)
    assert s.values.max() == 1
    dense = vf.Trajectory(0.05, np.array([1.0, 0.0, 1.0, 1.0]))
    assert vf.lockout_count(dense, tau_lock=0.09).values.max() == 2


def test_lockout_count_rejects_bad_window():
    on = vf.Trajectory(0.05, np.array([1.0, 0.0]))
    with pytest.raises(vf.InputError):
        vf.lockout_count(on, tau_lock=0.0)
