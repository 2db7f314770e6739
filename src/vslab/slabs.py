"""Time-slab auxiliary scheme with slab-averaged coefficients.

The run interval (0, T) is split into slabs.  On each slab the vorticity
obeys a linear constant-coefficient problem: the transport/stretching
coefficients are the time averages of velocity and vorticity over that very
slab, which makes every Fourier mode an independent scalar ODE

    what'(t) = -nu |k|^2 what(t) + Fhat,      Fhat constant over the slab,

solvable in closed form.  The averages depend on the trajectory they
generate, and the loop is closed by successive substitution: solve with the
current averages, re-average the resulting trajectory, repeat until the
average stops moving in L2.  The measured contraction ratios of that
iteration are recorded per slab.  The paper's row-sum contraction bound of
the underlying coefficient ODE system, the factor delta* and the slab-width
rule delta, is a separate function of a solved slab:
``contraction_diagnostic(grid, sol.averages, nu)`` evaluates it in closed
form on grids up to 8^3.  No command computes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from vslab.reference import nonlinear_term
from vslab.spectral import FieldShapeError, Grid, _mirror
from vslab.trajectory import ScalarSeries, Trajectory, scalar_record, series_from_records


class PartitionError(ValueError):
    pass


class PicardError(RuntimeError):
    """Successive substitution failed to converge on a slab, or its change overflowed."""

    def __init__(self, slab_index, diagnostics):
        self.slab_index = slab_index
        self.diagnostics = diagnostics
        last, count = diagnostics.changes[-1], diagnostics.iterations
        detail = f"last change {last:.3g}"
        if diagnostics.ratios:
            ratios = ", ".join(f"{r:.3g}" for r in diagnostics.ratios[-3:])
            detail += f", last ratios {ratios}"
        if np.isfinite(last):
            what = f"no convergence in {count} iterations"
        else:
            what = f"non-finite change at iteration {count}"
        super().__init__(
            f"slab {slab_index}: {what} ({detail}); the slab is too wide for contraction"
        )


@dataclass(frozen=True)
class TimePartition:
    """Breakpoints 0 = t_0 < t_1 < ... < t_N = T."""

    breakpoints: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.breakpoints, dtype=np.float64)
        if pts.ndim != 1 or len(pts) < 2:
            raise PartitionError("need at least two breakpoints")
        if abs(pts[0]) > 0.0:
            raise PartitionError("partition must start at t=0")
        if np.any(np.diff(pts) <= 0):
            raise PartitionError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", pts)

    @property
    def n_slabs(self):
        return len(self.breakpoints) - 1

    @property
    def T(self):
        return float(self.breakpoints[-1])

    @property
    def widths(self):
        return np.diff(self.breakpoints)

    def slab(self, k):
        return float(self.breakpoints[k]), float(self.breakpoints[k + 1])

    def __iter__(self):
        for k in range(self.n_slabs):
            yield k, *self.slab(k)


def uniform_partition(T: float, n_slabs: int) -> TimePartition:
    if T <= 0 or n_slabs < 1:
        raise PartitionError("T must be positive and n_slabs >= 1")
    return TimePartition(np.linspace(0.0, T, n_slabs + 1))


def slab_window(times, t_lo, t_hi, *arrays):
    """Clip sampled series to [t_lo, t_hi] with interpolated endpoint values.

    Returns (ts, clipped arrays); every quantity the ledger derives per slab
    (sup, trapezoid integrals) is computed on exactly this window so that an
    external recomputation from the emitted series reproduces it.
    """
    times = np.asarray(times, dtype=np.float64)
    if len(times) == 0:
        raise ValueError("empty sample set")
    if t_hi <= t_lo:
        raise ValueError("slab must have positive width")
    span_tol = 1e-9 * max(1.0, abs(t_hi))
    if times[0] > t_lo + span_tol or times[-1] < t_hi - span_tol:
        raise ValueError(
            f"series [{times[0]}, {times[-1]}] does not span the slab [{t_lo}, {t_hi}]"
        )
    inside = (times > t_lo) & (times < t_hi)
    ts = np.concatenate(([t_lo], times[inside], [t_hi]))
    clipped = []
    for arr in arrays:
        arr = np.asarray(arr, dtype=np.float64)
        clipped.append(
            np.concatenate(
                ([np.interp(t_lo, times, arr)], arr[inside], [np.interp(t_hi, times, arr)])
            )
        )
    return (ts, *clipped)


def trapezoid(y, x):
    """Trapezoid rule for samples ``y`` at the points ``x``.

    The operation order is ``scipy.integrate.trapezoid``'s, so the sums
    match it bit for bit.
    """
    y = np.asarray(y, dtype=np.float64)
    return np.sum(np.diff(np.asarray(x, dtype=np.float64)) * (y[1:] + y[:-1]) / 2.0)


def compute_kstar(times, energy, dissipation, t_lo, t_hi):
    """Slab load: dt * sup |u|^2 + integral of sum |grad u_i|^2 over the slab.

    The sup runs over the samples inside the slab (endpoints included by
    linear interpolation); the integral is the trapezoid rule on the same
    points.
    """
    ts, es, ds = slab_window(times, t_lo, t_hi, energy, dissipation)
    return float((t_hi - t_lo) * np.max(es) + trapezoid(ds, ts))


def adaptive_partition(
    T: float,
    eps0: float,
    C: float,
    series: ScalarSeries,
    dt_floor: float = 1e-4,
) -> TimePartition:
    """Greedy partition keeping 4*C*kstar <= 1 - eps0 on every slab.

    Breakpoints are chosen among the sample times of ``series``; if the rule
    cannot be satisfied even on a single sample interval (or would need a
    slab narrower than ``dt_floor``) the construction fails loudly.
    """
    if not 0.0 < eps0 < 1.0:
        raise PartitionError("eps0 must lie in (0,1)")
    if C <= 0:
        raise PartitionError("C must be positive")
    budget = (1.0 - eps0) / (4.0 * C)
    times = np.asarray(series.times, dtype=np.float64)
    if times[0] > 0.0 or times[-1] < T - 1e-12:
        raise PartitionError("series must span (0,T)")
    candidates = np.unique(np.concatenate((times[(times > 0) & (times < T)], [T])))
    points = [0.0]
    while points[-1] < T - 1e-12:
        t_lo = points[-1]
        ahead = candidates[candidates > t_lo + 1e-15]
        chosen = None
        for t_hi in ahead:
            if compute_kstar(times, series.energy, series.dissipation, t_lo, t_hi) <= budget:
                chosen = float(t_hi)
            else:
                break
        if chosen is None:
            width = float(ahead[0] - t_lo)
            raise PartitionError(
                f"slab rule needs a slab narrower than the sampling ({width:.3e}) at t={t_lo:.6g}"
                + ("" if width > dt_floor else f", below the floor {dt_floor:.3e}")
            )
        if chosen - t_lo < dt_floor:
            raise PartitionError(
                f"slab rule forces width {chosen - t_lo:.3e} < floor {dt_floor:.3e} at t={t_lo:.6g}"
            )
        points.append(chosen)
    return TimePartition(np.array(points))


# -- closed-form slab solutions ----------------------------------------------


def _phi(x):
    """(1 - exp(-x))/x, the average of the decay factor; stable near zero."""
    x = np.asarray(x, dtype=np.float64)
    out = 1.0 - 0.5 * x
    np.divide(-np.expm1(-x), x, out=out, where=x > 1e-12)
    return out


def _psi(x):
    """(x - 1 + exp(-x))/x^2, the Duhamel average weight; stable near zero and for huge x.

    Past x = 1e150, where x^2 nears overflow, the weight is 1/x to rounding.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    small = ~(x > 1e-3)  # NaN too
    huge = x > 1e150
    big = ~(small | huge)
    xb = x[big]
    out[big] = (xb + np.expm1(-xb)) / xb**2
    out[huge] = 1.0 / x[huge]
    xs = x[small]
    out[small] = 0.5 - xs / 6.0 + xs**2 / 24.0 - xs**3 / 120.0
    return out


@dataclass
class SlabAverages:
    omega_bar: np.ndarray
    u_bar: np.ndarray


@dataclass
class PicardDiagnostics:
    iterations: int
    changes: list = field(default_factory=list)  # d_j = |avg_j - avg_{j-1}|_L2
    ratios: list = field(default_factory=list)  # rho_j = d_j / d_{j-1}
    converged: bool = False

    @property
    def max_ratio(self):
        return max(self.ratios) if self.ratios else 0.0


@dataclass
class SlabSolution:
    """Closed-form trajectory over one slab: decay of the initial state plus
    the Duhamel response to the constant forcing."""

    grid: Grid
    index: int
    t_lo: float
    t_hi: float
    nu: float
    omega_init: np.ndarray
    forcing: np.ndarray
    averages: SlabAverages | None = None
    diagnostics: PicardDiagnostics | None = None

    def __post_init__(self):
        # per-mode decay rate a = nu |k|^2 on the kept block
        self._rate = self.nu * self.grid.block_ksq

    @property
    def width(self):
        return self.t_hi - self.t_lo

    def at(self, t):
        tau = t - self.t_lo
        if tau < -1e-12 or tau > self.width + 1e-12:
            raise ValueError(f"time {t} outside slab [{self.t_lo}, {self.t_hi}]")
        tau = min(max(tau, 0.0), self.width)
        x = self._rate * tau
        out = np.exp(-x) * self.omega_init
        # tau * _phi(x) = (1 - exp(-a tau))/a, finite at k=0
        out += tau * _phi(x) * self.forcing
        return out

    def endpoint(self):
        return self.at(self.t_hi)

    def average(self):
        """Exact time average over the slab, per mode."""
        x = self._rate * self.width
        avg_decay = _phi(x)
        avg_duhamel = self.width * _psi(x)  # (dt - (1-exp(-x))/a)/x, finite at k=0
        return avg_decay * self.omega_init + avg_duhamel * self.forcing


def slab_forcing(grid: Grid, averages: SlabAverages):
    """Constant forcing curl(ubar x wbar), dealiased (``nonlinear_term``).

    This is the transport and stretching term (wbar.grad) ubar - (ubar.grad)
    wbar only when both averages are solenoidal, which the scheme guarantees:
    ubar is a Biot-Savart velocity and wbar a combination of divergence-free
    fields.
    """
    return nonlinear_term(grid, averages.u_bar, averages.omega_bar)


def linear_slab_solve(grid, omega_init, averages, t_lo, t_hi, nu, index=0):
    """Solve the frozen-coefficient slab problem in closed form."""
    if t_hi <= t_lo:
        raise ValueError("slab must have positive width")
    return SlabSolution(
        grid=grid,
        index=index,
        t_lo=t_lo,
        t_hi=t_hi,
        nu=nu,
        omega_init=omega_init,
        forcing=slab_forcing(grid, averages),
        averages=averages,
    )


# -- Picard loop ----------------------------------------------------------------


def picard_solve_slab(
    grid: Grid,
    omega_init,
    t_lo,
    t_hi,
    nu=1.0,
    tol=1e-10,
    max_iter=64,
    index=0,
    reference: Trajectory | None = None,
):
    """Fixed point of averages -> linear solve -> re-average on one slab.

    Iterate zero freezes the slab-start state: wbar <- omega_init and ubar
    the Biot-Savart velocity of omega_init, or of the reference vorticity at
    t_lo when a ``reference`` trajectory is given.  Each iteration then sets
    ubar to the Biot-Savart velocity of the new wbar, or, with a reference,
    to the reference's velocity average over the slab, which does not depend
    on the iterate.  Convergence is declared when the L2 change of wbar drops
    below ``tol``; the change norms and their ratios are recorded verbatim.
    An overflowed, non-finite change raises ``PicardError`` at once.
    """
    if tol <= 0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter at least 1")
    diag = PicardDiagnostics(iterations=0)
    omega_bar = np.array(omega_init, dtype=np.complex128)
    if reference is None:
        u_bar = grid.biot_savart(omega_init)
    else:
        u_bar = grid.biot_savart(reference.field_at(t_lo))
        u_ref = reference.velocity_average_over(t_lo, t_hi)
    for _ in range(max_iter):
        diag.iterations += 1
        solution = linear_slab_solve(
            grid, omega_init, SlabAverages(omega_bar, u_bar), t_lo, t_hi, nu, index
        )
        new_bar = solution.average()
        with np.errstate(over="ignore", invalid="ignore"):
            d = float(np.sqrt(grid.l2sq(new_bar - omega_bar)))
        if diag.changes:  # each past change is finite and above tol, so positive
            diag.ratios.append(d / diag.changes[-1])
        diag.changes.append(d)
        if not np.isfinite(d):
            raise PicardError(index, diag)
        omega_bar = new_bar
        u_bar = grid.biot_savart(omega_bar) if reference is None else u_ref
        if d <= tol:
            diag.converged = True
            break
    if not diag.converged:
        raise PicardError(index, diag)
    averages = SlabAverages(omega_bar, u_bar)
    final = linear_slab_solve(grid, omega_init, averages, t_lo, t_hi, nu, index)
    final.diagnostics = diag
    return final


# -- whole-run driver -------------------------------------------------------------


@dataclass
class SlabRecord:
    index: int
    t_lo: float
    t_hi: float
    width: float
    iterations: int
    max_ratio: float
    kstar: float


@dataclass
class SlabRunResult:
    """What a slab run returns: one record per slab and one norm row per sample time."""

    records: list
    series: ScalarSeries


def run_slab_scheme(
    grid: Grid,
    omega0,
    partition: TimePartition,
    sink,
    nu=1.0,
    tol=1e-10,
    max_iter=64,
    slab_samples=16,
    reference: Trajectory | None = None,
):
    """Chain the slabs over (0,T), sampling the closed-form trajectory.

    Each slab starts from the exact endpoint array of the previous one and
    is closed by ``picard_solve_slab`` with the same ``reference``.  Per slab
    the record carries the Picard iteration count, the worst measured
    contraction ratio, and the slab load kstar from the velocity on the
    sample points: the sampled solution's own, or the reference's when one
    is given.  Each sample is inverted once: its scalar_record feeds both the
    norm series and, without a reference, kstar.

    ``omega0`` is a kept block, checked by ``Grid.require_solenoidal``; the
    run carries it and every state after it as kept blocks.  Every sample is
    handed to ``sink(t, w)`` as it is made, in time order from t=0; the sink
    must not modify ``w``.  Nothing state-sized outlives the slab that made it, and a
    run that raises has already handed over every sample of the slabs before
    the failing one.
    """
    if slab_samples < 2:
        raise ValueError("need at least two samples per slab")
    w = grid.require_solenoidal(omega0)
    times = [0.0]
    sink(0.0, w)
    norm_rows = [scalar_record(grid, w)]
    records = []
    for k, t_lo, t_hi in partition:
        sol = picard_solve_slab(
            grid,
            w,
            t_lo,
            t_hi,
            nu=nu,
            tol=tol,
            max_iter=max_iter,
            index=k,
            reference=reference,
        )
        sample_ts = np.linspace(t_lo, t_hi, slab_samples + 1)
        # the first sample is the slab's start state w, already recorded
        for t in sample_ts[1:]:
            w = sol.at(t)  # the last sample, t_hi, is the next slab's start
            times.append(float(t))
            sink(float(t), w)
            norm_rows.append(scalar_record(grid, w))
        if reference is None:
            loads = [(e, d) for e, _, d, _ in norm_rows[-len(sample_ts) :]]
        else:
            loads = [(grid.l2sq(u), grid.h1sq(u)) for u in map(reference.velocity_at, sample_ts)]
        kstar = compute_kstar(sample_ts, *zip(*loads), t_lo, t_hi)
        records.append(
            SlabRecord(
                index=k,
                t_lo=t_lo,
                t_hi=t_hi,
                width=t_hi - t_lo,
                iterations=sol.diagnostics.iterations,
                max_ratio=sol.diagnostics.max_ratio,
                kstar=kstar,
            )
        )
        del sol  # free this slab's states before the next slab's Picard loop
    return SlabRunResult(records=records, series=series_from_records(times, norm_rows))


# -- contraction diagnostic ---------------------------------------------------


def _coupling_block(grid: Grid, u_bar):
    """The averaged transport/stretching operator at frozen ubar, in closed form.

    The basis is e_p(k) exp(i k.x) over the retained nonzero modes k, with
    two unit polarizations orthogonal to k: e1 = k x h and e2 = k x e1,
    normalised, h the unit axis of the first smallest |k_i|.  Restricted to
    retained modes the pseudo-spectral product is the circular convolution,
    and e_p(k) is orthogonal to k, so the Leray projection drops out: the
    entry (k,p),(q,r) is

        i [(e_p(k).ubar(k-q)) (k.e_r(q)) - (e_p(k).e_r(q)) (k.ubar(k-q))]

    with k-q taken mod n.  The modes are the rows of the kept block on every
    axis of the full cube, k = 0 left out, and k-q reaches the whole cube,
    so ubar is placed there, in the layout of ``np.fft.fftn``: its kept
    block on k_3 = 0 .. kmax and the conjugate mirrors of k_3 = kmax .. 1
    on k_3 = -kmax .. -1.  The block is
    quadratic in the mode count, so grids are limited to 8^3.  A ``u_bar``
    that is not a kept vector block raises ``FieldShapeError``.  Returns the
    full-cube mode indices (a tuple of three index arrays), the
    polarizations (m, 2, 3) and the (2m, 2m) block, whose row and column
    (p, k) is p*m + k.
    """
    n = grid.n
    if n > 8:
        raise ValueError("row-sum diagnostic is restricted to grids up to 8^3")
    shape = (3, *grid._block_shape)
    if u_bar.shape != shape:
        raise FieldShapeError(f"expected a kept vector block {shape}, got {u_bar.shape}")
    kk = grid._block_shape[-1]
    rows = np.r_[0:kk, n - kk + 1 : n]  # the kept rows of an axis, in index order
    idx = np.stack(np.meshgrid(rows, rows, rows, indexing="ij"), axis=-1).reshape(-1, 3)[1:]
    pick = tuple(idx.T)  # C order, with k = 0 first and dropped
    kv = np.fft.fftfreq(n, d=1.0 / n)[idx.T].T  # (m, 3)
    helper = np.eye(3)[np.argmin(np.abs(kv), axis=1)]
    e1 = np.cross(kv, helper)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(kv, e1)
    e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
    pol = np.stack((e1, e2), axis=1)
    diff = tuple((idx[:, None, d] - idx[None, :, d]) % n for d in range(3))
    u_full = np.zeros((3, n, n, n), dtype=np.complex128)
    u_full[:, rows[:, None], rows[None, :], :kk] = u_bar
    _mirror(u_full[..., kk - 1 : 0 : -1], out=u_full[..., n - kk + 1 :])
    ub = np.moveaxis(u_full[(slice(None),) + diff], 0, -1)  # (m, m, 3): ubar(k-q)
    pu = np.einsum("kpc,kqc->pkq", pol, ub)
    ke = np.einsum("kc,qrc->kqr", kv, pol)
    pe = np.einsum("kpc,qrc->pkqr", pol, pol)
    ku = np.einsum("kc,kqc->kq", kv, ub)
    block = 1j * (pu[:, :, :, None] * ke[None] - pe * ku[None, :, :, None])
    m = len(kv)
    return pick, pol, block.transpose(0, 1, 3, 2).reshape(2 * m, 2 * m)


def contraction_diagnostic(grid: Grid, averages: SlabAverages, nu: float):
    """(delta_star, delta): the printed contraction factor and slab-width rule.

    The coefficient ODE system in the divergence-free mode basis has the
    diagonal diffusion alpha = nu |k|^2 and the coupling block of
    ``_coupling_block`` at the averaged velocity; beta are its absolute row
    sums.  delta_star = max_row(alpha+beta) / max_row(alpha+2 beta) and
    delta = 1 / max_row(alpha+beta).  When the coupling block vanishes the
    ratio degenerates to 1; callers should treat that case separately.  The
    block is quadratic in the mode count, so grids are limited to 8^3.
    """
    pick, _, block = _coupling_block(grid, averages.u_bar)
    k1 = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    alpha_rows = np.tile(nu * sum(k1[i] ** 2 for i in pick), 2)
    beta_rows = np.sum(np.abs(block), axis=1)
    num = float(np.max(alpha_rows + beta_rows))
    den = float(np.max(alpha_rows + 2.0 * beta_rows))
    if den == 0.0:
        return 1.0, float("inf")
    return num / den, 1.0 / num if num > 0 else float("inf")
