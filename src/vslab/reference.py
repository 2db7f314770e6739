"""Direct pseudo-spectral integration of the vorticity transport equation.

The evolved unknown is the spectral vorticity w with velocity recovered by
Biot-Savart inversion each evaluation.  The nonlinear right-hand side is the
transport and stretching term in rotational form

    N(w) = (w . grad) u - (u . grad) w = curl(u x w),

an identity for solenoidal u and w.  The product u x w is formed on the
physical grid a few x_1 planes at a time (``Grid.cross_block``), since it is
pointwise in x and the last transform runs line by line along x_3; it is
dealiased by the 2/3 rule and curled, which leaves it divergence-free with
zero mean.  ``slab_forcing`` uses the same kernel.  States are kept blocks
of the 2/3 cut (see ``vslab.spectral``), the only layout the kernel takes.
Diffusion is handled exactly per mode by the integrating factor
exp(-nu |k|^2 t) inside a classical four-stage Runge-Kutta step, so a
pure-diffusion problem is advanced exactly.  The state invariants are checked
on the initial field only; every step keeps them by construction (each stage
is the curl of a cut product, the integrating factor is real and even in k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vslab.spectral import Grid
from vslab.trajectory import ScalarSeries, scalar_record, series_from_records


@dataclass
class StepperConfig:
    dt: float
    nu: float = 1.0
    enstrophy_ceiling: float = 1e8

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.nu <= 0:
            raise ValueError("nu must be positive")


class BlowUpError(RuntimeError):
    """Integration aborted: NaN/Inf coefficients or enstrophy past the ceiling."""

    def __init__(self, time, enstrophy):
        self.time = time
        self.enstrophy = enstrophy
        super().__init__(f"blow-up at t={time:.6g}: enstrophy={enstrophy:.6g}")


def nonlinear_term(grid: Grid, u, w):
    """curl(u x w), dealiased, of two kept blocks: divergence-free, with a zero k=0 amplitude.

    For solenoidal u and w this is the transport and stretching term
    (w . grad) u - (u . grad) w.  The 2/3 cut comes before the curl, and on
    the kept modes kd == k, so the curl needs no projection.  The cut
    product comes from ``Grid.cross_block``, which samples it a few x_1
    planes at a time, each transform on the lines the cut keeps only.  A
    half spectrum raises ``FieldShapeError``.
    """
    return grid.curl(grid.cross_block(u, w))


def vorticity_rhs(grid: Grid, w):
    """Dealiased nonlinear term of the vorticity equation (``nonlinear_term``).

    Diffusion is excluded; the stepper applies it through the integrating
    factor.  The term has no k=0 amplitude, so the mean vorticity is
    conserved exactly.
    """
    return nonlinear_term(grid, grid.biot_savart(w), w)


def rk4_step(grid: Grid, w, cfg: StepperConfig, rhs=vorticity_rhs, t=0.0):
    """One integrating-factor RK4 step; NaN or enstrophy past the ceiling raises.

    ``w`` and the output of ``rhs`` are kept blocks, which hold only the kept
    modes, so the step needs no cut.
    """
    dt, nu = cfg.dt, cfg.nu
    e_half = np.exp(-0.5 * nu * dt * grid.block_ksq)
    e_full = e_half * e_half
    k1 = rhs(grid, w)
    k2 = rhs(grid, e_half * (w + 0.5 * dt * k1))
    k3 = rhs(grid, e_half * w + 0.5 * dt * k2)
    k4 = rhs(grid, e_full * w + dt * e_half * k3)
    out = e_full * w + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
    enstrophy = grid.l2sq(out)
    if not enstrophy <= cfg.enstrophy_ceiling:
        raise BlowUpError(t + dt, enstrophy)
    return out


def run_reference(
    grid: Grid,
    w0,
    T: float,
    cfg: StepperConfig,
    sink,
    scalar_every: int = 1,
    field_every: int = 10,
) -> ScalarSeries:
    """Integrate to time T, hand field snapshots to ``sink`` and return the norm series.

    The step count is round(T/dt) with the step size nudged so the run lands
    on T exactly.  Snapshots are taken every ``field_every`` steps; t=0 and
    t=T are always included.

    ``w0`` is a kept block, checked (``Grid.require_solenoidal``) before
    the sink sees anything; it is the state the run carries and the first
    snapshot.  Each snapshot is handed to ``sink(t, w)`` as it is taken, as
    a kept block, in time order from t=0; the sink must not modify ``w``.
    The run keeps no state past the step that made it, so a run that raises
    has already handed over every snapshot before the failing step.  A
    caller that wants the snapshots together collects them with
    ``Trajectory.append``.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    n_steps = max(1, int(round(T / cfg.dt)))
    dt = T / n_steps
    cfg = StepperConfig(dt=dt, nu=cfg.nu, enstrophy_ceiling=cfg.enstrophy_ceiling)

    w = grid.require_solenoidal(w0)

    sink(0.0, w)
    s_times = [0.0]
    s_rows = [scalar_record(grid, w)]
    for step in range(1, n_steps + 1):
        w = rk4_step(grid, w, cfg, t=(step - 1) * dt)
        t = step * dt if step < n_steps else T
        if step % scalar_every == 0 or step == n_steps:
            s_times.append(t)
            s_rows.append(scalar_record(grid, w))
        if step % field_every == 0 or step == n_steps:
            sink(t, w)
    return series_from_records(s_times, s_rows)
