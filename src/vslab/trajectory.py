"""Sampled vorticity trajectories shared by the solvers and the monitors.

A trajectory keeps the spectral vorticity snapshots at the field cadence as
kept blocks (see ``vslab.spectral``), as the runners' sinks and
``snapshots.load_trajectory`` give them.  The norm series at the (denser)
scalar cadence is a separate ``ScalarSeries``, which the runners return and
the ledger keeps.  Field values between
snapshots are defined by linear interpolation in time, which makes time
averages over arbitrary windows exactly computable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from vslab.spectral import Grid


@dataclass
class ScalarSeries:
    """Per-sample norm record: energy |u|^2, enstrophy sum|w_i|^2, and the
    two dissipation rates sum|grad u_i|^2 and sum|grad w_i|^2."""

    times: np.ndarray
    energy: np.ndarray
    enstrophy: np.ndarray
    dissipation: np.ndarray
    enstrophy_dissipation: np.ndarray

    def __len__(self):
        return len(self.times)


@dataclass
class Trajectory:
    grid: Grid
    nu: float
    times: np.ndarray = field(default_factory=lambda: np.empty(0))  # strictly increasing
    fields: list = field(default_factory=list)  # vorticity amplitudes per time

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        if len(self.times) != len(self.fields):
            raise ValueError("one field snapshot per sample time required")
        if len(self.times) and np.any(np.diff(self.times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")

    def append(self, t, w):
        """Add the snapshot ``w`` at time ``t``, after the last one; a runner's sink."""
        if len(self.times) and not t > self.times[-1]:
            raise ValueError(f"snapshot time {t} is not after the last one, {self.times[-1]}")
        self.times = np.append(self.times, t)
        self.fields.append(w)

    def _bracket(self, t):
        times = self.times
        if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
            raise ValueError(f"time {t} outside trajectory span [{times[0]}, {times[-1]}]")
        t = min(max(t, times[0]), times[-1])
        j = int(np.searchsorted(times, t, side="right")) - 1
        j = min(max(j, 0), len(times) - 2) if len(times) > 1 else 0
        return j, t

    def field_at(self, t):
        """Vorticity at time t, linear interpolation between snapshots."""
        if len(self.times) == 1:
            return self.fields[0]
        j, t = self._bracket(t)
        t0, t1 = self.times[j], self.times[j + 1]
        if t == t0:
            return self.fields[j]
        lam = (t - t0) / (t1 - t0)
        return (1.0 - lam) * self.fields[j] + lam * self.fields[j + 1]

    def velocity_at(self, t):
        return self.grid.biot_savart(self.field_at(t))

    def average_field_over(self, t_lo, t_hi):
        """Exact time average of the interpolant over [t_lo, t_hi]."""
        if t_hi <= t_lo:
            raise ValueError("empty averaging window")
        j_lo, t_lo = self._bracket(t_lo)
        j_hi, t_hi = self._bracket(t_hi)
        total = np.zeros_like(self.fields[0])
        # trapezoid is exact on each linear piece; split at snapshot times
        cuts = [t_lo] + [float(t) for t in self.times[j_lo + 1 : j_hi + 1]] + [t_hi]
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b <= a:
                continue
            total += 0.5 * (b - a) * (self.field_at(a) + self.field_at(b))
        return total / (t_hi - t_lo)

    def velocity_average_over(self, t_lo, t_hi):
        # biot_savart is linear, so it commutes with the time average
        return self.grid.biot_savart(self.average_field_over(t_lo, t_hi))


def scalar_record(grid: Grid, w, u=None):
    """Norm tuple (energy, enstrophy, dissipation, enstrophy_dissipation) of one state.

    ``u`` is the velocity of ``w``, inverted here unless the caller has it.
    """
    if u is None:
        u = grid.biot_savart(w)
    energy, dissipation = grid.l2sq_h1sq(u)
    enstrophy, enstrophy_dissipation = grid.l2sq_h1sq(w)
    return energy, enstrophy, dissipation, enstrophy_dissipation


def series_from_samples(grid: Grid, times, fields):
    return series_from_records(times, [scalar_record(grid, w) for w in fields])


def series_from_records(times, records):
    """ScalarSeries from one scalar_record tuple per sample time."""
    arr = np.array(records, dtype=np.float64).reshape(len(records), 4)
    return ScalarSeries(
        times=np.asarray(times, dtype=np.float64),
        energy=arr[:, 0],
        enstrophy=arr[:, 1],
        dissipation=arr[:, 2],
        enstrophy_dissipation=arr[:, 3],
    )
