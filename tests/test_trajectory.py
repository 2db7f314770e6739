"""Trajectory interpolation and exact time averaging."""

import numpy as np
import pytest

from vslab.spectral import random_divfree_field
from vslab.trajectory import Trajectory


@pytest.fixture()
def ramp(grid8):
    # field grows linearly in time: w(t) = (1 + t) w0
    w0 = random_divfree_field(grid8, seed=21)
    times = np.array([0.0, 0.25, 0.5, 1.0])
    fields = [(1.0 + t) * w0 for t in times]
    return w0, Trajectory(grid=grid8, nu=1.0, times=times, fields=fields)


def test_field_at_samples_exact(ramp):
    w0, traj = ramp
    for t in traj.times:
        assert np.array_equal(traj.field_at(float(t)), (1.0 + t) * w0)


def test_field_at_interpolates_linearly(ramp):
    w0, traj = ramp
    got = traj.field_at(0.375)
    assert np.max(np.abs(got - 1.375 * w0)) < 1e-15


def test_field_at_outside_span(ramp):
    _, traj = ramp
    with pytest.raises(ValueError):
        traj.field_at(1.5)


def test_average_over_is_exact_for_linear_data(ramp):
    w0, traj = ramp
    # average of (1 + t) over [0.1, 0.9] is 1.5
    got = traj.average_field_over(0.1, 0.9)
    assert np.max(np.abs(got - 1.5 * w0)) < 1e-14


def test_velocity_average_commutes_with_inversion(ramp, grid8):
    _, traj = ramp
    direct = grid8.biot_savart(traj.average_field_over(0.0, 1.0))
    assert np.max(np.abs(direct - traj.velocity_average_over(0.0, 1.0))) == 0.0


def test_times_must_increase(grid8):
    w0 = random_divfree_field(grid8, seed=2)
    with pytest.raises(ValueError):
        Trajectory(grid=grid8, nu=1.0, times=np.array([0.0, 0.0]), fields=[w0, w0])


def test_append_collects_in_time_order_and_rejects_a_repeated_or_earlier_time(grid8):
    w0 = random_divfree_field(grid8, seed=2)
    traj = Trajectory(grid8, 1.0)
    traj.append(0.0, w0)
    traj.append(0.5, 2.0 * w0)
    assert traj.times.tolist() == [0.0, 0.5]
    for t in (0.5, 0.25):
        with pytest.raises(ValueError, match="not after"):
            traj.append(t, w0)
    assert traj.times.tolist() == [0.0, 0.5] and len(traj.fields) == 2
    assert np.array_equal(traj.field_at(0.25), 1.5 * w0)
