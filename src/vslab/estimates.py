"""Runtime monitors for the energy/enstrophy inequalities and rate studies.

Everything here is a pure function of sampled series or spectral snapshots.
Monitors never abort a run: a violated inequality is data, recorded with its
signed margin, so a run can exhibit counter-evidence as readily as
confirmation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vslab import _fft
from vslab.slabs import TimePartition, SlabSolution, compute_kstar, slab_window, trapezoid
from vslab.spectral import BOX_VOLUME, DIV_TOL, FieldShapeError, Grid
from vslab.trajectory import ScalarSeries, Trajectory


# -- pointwise field identities ------------------------------------------------


def grad_vorticity_check(grid: Grid, u, h1sq=None):
    """Relative gap between sum|grad u_i|^2 and sum|w_i|^2 for w = curl u.

    A modewise algebraic identity for divergence-free fields: |k|^2 |uhat|^2
    = |k x uhat|^2 whenever k.uhat = 0.  The mean mode contributes to neither
    side, so constants pass with both sides zero.  ``h1sq`` is
    ``grid.h1sq(u)``, computed here unless the caller has it.
    """
    rel = grid.divergence_rel(u)
    if rel > DIV_TOL:
        raise ValueError(f"field must be divergence-free, residual {rel:.3e}")
    lhs = grid.h1sq(u) if h1sq is None else h1sq
    rhs = grid.l2sq(grid.curl(u))
    denom = max(lhs, rhs)
    if denom == 0.0:
        return 0.0
    return abs(lhs - rhs) / denom


def ladyzhenskaya_ratio(grid: Grid, v, norms=None):
    """|v|_{L4}^2 / (|v|_{L2}^{1/2} |grad v|_{L2}^{3/2}).

    Undefined for constants (zero gradient) and for the zero field; on the
    torus the interpolation inequality needs zero mean, which is why the
    ratio is reported against a configurable constant instead of asserting
    the whole-space one.  ``norms`` is ``grid.l2sq_h1sq(v)``, computed here
    unless the caller has it.
    """
    l2sq, h1sq = grid.l2sq_h1sq(v) if norms is None else norms
    l2 = math.sqrt(l2sq)
    h1 = math.sqrt(h1sq)
    if l2 == 0.0 or h1 == 0.0:
        raise ValueError("ratio undefined for zero or constant fields")
    return grid.l4(v) ** 2 / (math.sqrt(l2) * h1**1.5)


# -- quadrature ------------------------------------------------------------------


def _guarded_ratio(num, den):
    """num / den where den != 0, and 0 where den == 0."""
    return np.true_divide(num, den, out=np.zeros_like(den), where=den != 0)


def simpson(y, x):
    """Composite Simpson's rule for samples ``y`` at the points ``x``.

    Repeats the arithmetic of ``scipy.integrate.simpson`` (SciPy >= 1.11)
    on 1-D data, so the two agree bit for bit up to the sign of a zero
    result: Simpson's rule for irregular spacing over consecutive pairs of
    intervals; for an even sample count, Cartwright's correction for the
    last interval; for two samples, the trapezoid.  Exact for cubics on odd
    uniform grids and for quadratics on any grid of three or more samples.
    """
    y = np.asarray(y)
    h = np.diff(np.asarray(x, dtype=np.float64))
    n = len(y)
    if n == 2:
        return 0.5 * h[-1] * (y[-1] + y[-2])
    # the pairs of intervals the basic rule covers: all of them for odd n,
    # all but the last interval for even n
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = _guarded_ratio(h0, h1)
    tmp = hsum / 6.0 * (
        y[0:stop:2] * (2.0 - _guarded_ratio(1.0, h0divh1))
        + y[1 : stop + 1 : 2] * (hsum * _guarded_ratio(hsum, hprod))
        + y[2 : stop + 2 : 2] * (2.0 - h0divh1)
    )
    result = np.sum(tmp)
    if n % 2 == 0:
        # Cartwright's correction: the last interval from the last three samples
        hm2, hm1 = h[-2], h[-1]
        alpha = _guarded_ratio(2 * hm1**2 + 3 * hm2 * hm1, 6 * (hm1 + hm2))
        beta = _guarded_ratio(hm1**2 + 3.0 * hm2 * hm1, 6 * hm2)
        eta = _guarded_ratio(hm1**3, 6 * hm2 * (hm2 + hm1))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


# -- energy identity -----------------------------------------------------------


def energy_identity_residual(times, energy, dissipation, nu=1.0):
    """Relative defect of |u(T)|^2 + 2 nu int |grad u|^2 dt = |u(0)|^2.

    The dissipation integral uses composite Simpson on the sample times; the
    zero trajectory returns 0 by convention.
    """
    times = np.asarray(times, dtype=np.float64)
    energy = np.asarray(energy, dtype=np.float64)
    dissipation = np.asarray(dissipation, dtype=np.float64)
    if len(times) < 2:
        raise ValueError("need at least two samples")
    if energy[0] == 0.0:
        return 0.0
    integral = float(simpson(dissipation, times))
    return abs(energy[-1] + 2.0 * nu * integral - energy[0]) / energy[0]


# -- enstrophy ledger ------------------------------------------------------------


@dataclass
class LedgerRow:
    index: int
    t_lo: float
    t_hi: float
    width: float
    kstar: float
    f_k: float
    M_k: float
    gronwall_bound: float  # M_{k-1} * exp((1-eps0) * width)
    margin: float  # gronwall_bound - M_k, negative means violation
    slab_rule_ok: bool  # 4 C kstar <= 1 - eps0
    recursion_ok: bool
    picard_iterations: int | None = None
    max_ratio: float | None = None


@dataclass
class EstimateLedger:
    rows: list
    K0: float
    eps0: float
    C: float
    T: float
    global_bound: float  # K0 * exp((1-eps0) * T)
    sup_enstrophy: float
    global_ok: bool
    series: ScalarSeries  # the norm series the ledger was built from

    @property
    def all_rows_ok(self):
        return all(r.recursion_ok for r in self.rows)

    @property
    def slab_rule_violations(self):
        return [r.index for r in self.rows if not r.slab_rule_ok]


def enstrophy_ledger(series: ScalarSeries, partition: TimePartition, eps0, C, records=None):
    """Per-slab bookkeeping of the enstrophy bound chain.

    Builds, from a run's norm series, the slab loads kstar, the running
    sup/dissipation functional f_k, the slab sup M_k, and checks the
    recursion M_k <= M_{k-1} exp((1-eps0) dt_k) with M_0 = K0 together with
    the global cap sup E <= K0 exp((1-eps0) T).  FAIL rows are annotated,
    never raised.
    """
    if not 0.0 < eps0 < 1.0:
        raise ValueError("eps0 must lie in (0,1)")
    if C <= 0:
        raise ValueError("C must be positive")
    s = series
    if len(s) < 2:
        raise ValueError("no usable norm series")
    times = s.times
    K0 = float(s.enstrophy[0])
    T = partition.T
    rows = []
    picard = {r.index: r for r in records} if records else {}
    prev_M = K0
    for k, t_lo, t_hi in partition:
        width = t_hi - t_lo
        ts, ens, ensdis = slab_window(times, t_lo, t_hi, s.enstrophy, s.enstrophy_dissipation)
        M_k = float(np.max(ens))
        f_k = M_k + eps0 * float(trapezoid(ensdis, ts))
        if k in picard:
            kstar = picard[k].kstar
        else:
            kstar = compute_kstar(times, s.energy, s.dissipation, t_lo, t_hi)
        bound = prev_M * math.exp((1.0 - eps0) * width)
        margin = bound - M_k
        rows.append(
            LedgerRow(
                index=k,
                t_lo=t_lo,
                t_hi=t_hi,
                width=width,
                kstar=kstar,
                f_k=f_k,
                M_k=M_k,
                gronwall_bound=bound,
                margin=margin,
                slab_rule_ok=4.0 * C * kstar <= 1.0 - eps0,
                recursion_ok=margin >= 0.0,
                picard_iterations=picard[k].iterations if k in picard else None,
                max_ratio=picard[k].max_ratio if k in picard else None,
            )
        )
        prev_M = M_k
    global_bound = K0 * math.exp((1.0 - eps0) * T)
    sup_e = float(np.max(s.enstrophy))
    return EstimateLedger(
        rows=rows,
        K0=K0,
        eps0=eps0,
        C=C,
        T=T,
        global_bound=global_bound,
        sup_enstrophy=sup_e,
        global_ok=sup_e <= global_bound,
        series=s,
    )


# -- slab average consistency -----------------------------------------------------


def average_cs_check(solution: SlabSolution, samples=257):
    """Margin of |wbar|^2 <= (1/dt) int |w(t)|^2 dt on a solved slab.

    The right side is Simpson quadrature of the closed-form trajectory, an
    independent route from the closed-form average under test.  Nonnegative
    up to quadrature noise by Cauchy-Schwarz.
    """
    grid = solution.grid
    ts = np.linspace(solution.t_lo, solution.t_hi, samples)
    values = np.array([grid.l2sq(solution.at(t)) for t in ts])
    mean_sq = float(simpson(values, ts)) / solution.width
    return mean_sq - grid.l2sq(solution.average())


# -- time-regularity diagnostic ----------------------------------------------------

_GRAM_ROWS = 64  # rows of one block of a chunk's Gram product in lag_sums
_FREQ_BATCH = 1 << 14  # complex entries of one batch of the frequency pass's short FFTs


@dataclass
class HGammaDiagnostic:
    gamma: float
    value: float
    sigma_max: float
    freq_points: int


def _weighted_linear_integral(sigma, values, power):
    """Integral of sigma^power * f(sigma) with f piecewise linear on the grid.

    The weight is integrated exactly per interval, so the quadrature has no
    trouble with the fractional power at sigma = 0.  On arrays of several
    rows, each row is a grid of its own, and the integrals are summed.
    """
    a = sigma[..., :-1]
    fa, fb = values[..., :-1], values[..., 1:]
    p1 = power + 1.0
    p2 = power + 2.0
    # fa * i0 + slope * (i1 - a * i0); b^p - a^p is the difference of
    # neighbours of one power pass over the grid
    i0 = np.diff(sigma**p1)
    i0 /= p1
    i1 = np.diff(sigma**p2)
    i1 /= p2
    slope = fb - fa
    slope /= np.diff(sigma)
    i1 -= a * i0
    slope *= i1
    i0 *= fa
    i0 += slope
    return float(np.sum(i0))


def uniform_step(times):
    """The common spacing h of uniformly spaced sample times (relative slack 1e-9)."""
    times = np.asarray(times, dtype=np.float64)
    if len(times) < 2:
        raise ValueError("need at least two samples")
    steps = np.diff(times)
    h = float(steps[0])
    if np.max(np.abs(steps - h)) > 1e-9 * max(h, 1.0):
        raise ValueError("samples must be uniformly spaced")
    return h


def lag_sums(grid: Grid, count, read_rows):
    """G_d, d = 0 .. count-1: the lag-d diagonal traces of ``BOX_VOLUME`` times the rows' Gram.

    Row m is the kept block of snapshot m, each plane weighted by the square
    root of its ``Grid.block_weight``, viewed as real numbers.  The rows
    are never held whole: the real Gram matrix is summed over chunks of
    whole (component, k_1) planes, 3 K in the block.
    ``read_rows(lo, hi, out)`` writes planes lo .. hi-1 of snapshot m to
    ``out[m]`` for every m < count, ``out`` being a C-ordered (count,
    hi - lo, K, kmax + 1) complex array that is reused from chunk to chunk.
    A chunk holds as many planes as keep that buffer within the kernel's
    (6, n, n, n/2+1) transform stack, and at least one, so the chunk
    bounds depend only on the grid and ``count``: every reader gets the
    same bounds and the same summation order, and so the same bits.

    No (count, count) array is formed.  Each chunk's Gram is taken in
    blocks of ``_GRAM_ROWS`` rows, from the diagonal rightwards only (the
    upper triangle), into one zero-padded buffer whose diagonals are
    summed through a view with one more element per row.
    """
    kb, _, kk = grid._block_shape
    planes = 3 * kb
    plane_bytes = kb * kk * 16
    budget = 6 * grid.n * grid.n * (grid.n // 2 + 1) * 16
    per_chunk = min(planes, max(1, budget // (max(count, 1) * plane_bytes)))
    buffer = np.empty(count * per_chunk * kb * kk, dtype=np.complex128)
    weight = np.sqrt(grid.block_weight)
    B = _GRAM_ROWS
    # rows of count + B: a row's diagonal entries are never cut off by the row's end
    product = np.empty(B * (count + B + 1))
    lags = np.zeros(count)
    for lo in range(0, planes, per_chunk):
        hi = min(lo + per_chunk, planes)
        width = (hi - lo) * kb * kk
        rows = buffer[: count * width].reshape(count, hi - lo, kb, kk)
        read_rows(lo, hi, rows)
        rows *= weight
        real = rows.reshape(count, width).view(np.float64)
        for a in range(0, count, B):
            k, c = min(B, count - a), count - a
            block = product[: k * (c + B)].reshape(k, c + B)
            block[:, c:] = 0.0
            np.matmul(real[a : a + k], real[a:].T, out=block[:, :c])
            # row stride c + B + 1: entry (i, d) is block[i, i + d], Gram entry (a + i, a + i + d)
            lags[:c] += product[: k * (c + B + 1)].reshape(k, c + B + 1)[:, :c].sum(axis=0)
    lags *= BOX_VOLUME
    return lags


def hgamma_diagnostic(times, fields, gamma, grid: Grid, freq_points=131073):
    """Weighted time-frequency mass of the zero-extended trajectory.

    Every field but the last must be a kept block of ``grid``; their
    ``lag_sums``, read from memory, go to ``hgamma_from_lag_sums``, which
    defines the value.
    """
    held = fields[: max(len(fields) - 1, 0)]
    shape = (3, *grid._block_shape)
    for w in held:
        if w.shape != shape:
            raise FieldShapeError(f"expected a kept block {shape}, got {w.shape}")

    def read_rows(lo, hi, out):
        for row, w in zip(out, held):
            row[...] = w.reshape(-1, *shape[2:])[lo:hi]

    return hgamma_from_lag_sums(times, lag_sums(grid, len(held), read_rows), gamma, freq_points)


def hgamma_from_lag_sums(times, lags, gamma, freq_points=131073):
    """H^gamma mass of the zero-extended trajectory from the lag sums of its snapshots.

    ``lags`` is ``lag_sums`` of the rows whose row m is the snapshot at
    ``times[m]``, for every sample but the last, which only closes the
    span.  The trajectory is extended by zero outside its span
    and held constant on each sampling interval, whose transform is known
    in closed form; the spatially-resolved spectrum S(sigma) = sum over
    components and modes of the squared L2 amplitude is then integrated
    against |sigma|^(2 gamma) over the resolvable band |sigma| <= pi/h
    (angular frequency).  Requires gamma in (0, 1/4); the value is finite
    and deterministic given samples.

    S(sigma) = sum_d G_d (2 cos(sigma d h) - [d = 0]) needs only the sums G_d
    of the lag-d diagonals of the snapshots' Gram matrix.  The snapshots are
    Hermitian, so that Gram matrix is real: it is formed from their kept
    blocks viewed as real numbers, each plane weighted by the square root of
    its ``Grid.block_weight`` (sqrt(2) except on k_3 = 0) to stand for its
    conjugate mirror.

    On the uniform frequency grid sigma_j = j pi / (h L), j = 0..L, the
    cosine sums are the real part of the length-2L DFT X of the lag sums
    folded mod 2L.  X is never formed whole (input pruning): the folded
    lags fill P = 2p points, p the smallest divisor of L at least half
    their count, and with R = 2L / P bin R q + r of X is bin q of the
    P-point FFT of the lags twiddled by e^(-2 pi i r d / 2L).  A batch of
    consecutive r, plus the next r, gives for each q < p a run of
    consecutive bins, on which the hold kernel and the integral are
    formed.  A batch holds about ``_FREQ_BATCH`` complex numbers (at least
    two columns of P), so the pass is small whatever L while L has a
    divisor just above half the sample count, as a power of two does.
    """
    if not 0.0 < gamma < 0.25:
        raise ValueError(f"gamma must lie in (0, 1/4), got {gamma}")
    if freq_points < 2:
        raise ValueError(f"need at least two frequency points, got {freq_points}")
    h = uniform_step(times)
    sigma_max = np.pi / h
    # hold values on [t_m, t_m + h): the last sample only closes the span
    M = len(times) - 1
    if len(lags) != M:
        raise ValueError(
            f"need one stack row per sample but the last, got {len(lags)} for {M + 1} samples"
        )
    # G_0 sums the rows' squared norms, so it is 0 only for the zero trajectory
    if not np.any(lags):
        return HGammaDiagnostic(gamma=gamma, value=0.0, sigma_max=sigma_max, freq_points=freq_points)
    L = freq_points - 1
    step = sigma_max / L  # sigma_j = j * step as linspace has it, and sigma_L = sigma_max
    # sigma_j d h = pi j d / L: cos is 2L-periodic in d, so fold the lags mod 2L
    folded_length = min(M, 2 * L)
    divisors = (q for i in range(1, math.isqrt(L) + 1) if L % i == 0 for q in (i, L // i))
    p = min(q for q in divisors if 2 * q >= folded_length)
    R = L // p
    d = np.arange(2 * p)
    folded = np.zeros(2 * p)
    np.add.at(folded, np.arange(M) % (2 * L), lags)
    rows = min(R, max(1, _FREQ_BATCH // (2 * p)))
    # twiddle e^(-i pi (r0 + s) d / L): a table over (d, s), times a vector per batch
    table = np.exp((-1j * np.pi / L) * np.outer(d, np.arange(rows + 1)))
    block = np.empty_like(table)
    run_starts = R * np.arange(p, dtype=np.float64)[:, None]
    power = 2.0 * gamma
    total = 0.0
    for r0 in range(0, R, rows):
        cols = min(rows, R - r0) + 1
        twiddle = np.exp((-1j * np.pi / L) * (r0 * d))
        twiddle *= folded
        bins = block[:, :cols]
        np.multiply(table[:, :cols], twiddle[:, None], out=bins)
        _fft.fft(bins, 0, True, 1, out=bins)
        # row q holds bins R q + r0 .. R q + r0 + cols - 1
        spectrum = bins[:p].real * 2.0
        spectrum -= lags[0]
        sigma = run_starts + np.arange(r0, r0 + cols)
        sigma *= step
        if r0 + cols - 1 == R:
            sigma[-1, -1] = sigma_max
        # hold-kernel factor |(1 - e^{-i sigma h}) / sigma|^2 = h^2 sinc^2(sigma h / 2);
        # sigma_0 = 0 is the only zero frequency
        weighted = 2.0 - 2.0 * np.cos(sigma * h)
        square = sigma**2
        if r0 == 0:
            weighted[0, 0], square[0, 0] = h**2, 1.0
        weighted /= square
        weighted *= spectrum
        total += _weighted_linear_integral(sigma, weighted, power)
    # trajectory is real, so the spectrum is even: integrate one side twice
    value = 2.0 * total
    return HGammaDiagnostic(gamma=gamma, value=value, sigma_max=sigma_max, freq_points=freq_points)


# -- time-derivative monitor ---------------------------------------------------------


@dataclass
class DtMonitor:
    times: np.ndarray  # interior sample times
    dtu_l2sq: np.ndarray
    dtu_h1sq: np.ndarray
    phi: np.ndarray  # 27 * enstrophy^2
    margins: np.ndarray
    min_margin: float


def dt_u_monitor(times, u_fields, enstrophy, grid: Grid):
    """Margins of the differential inequality for the velocity time derivative.

    dt u at each interior sample is the centered difference of the stored
    velocities; its squared L2 and H1 norms go to ``dt_u_margins``, which
    defines the margins.
    """
    dtu_l2, dtu_h1 = [], []
    if len(times) >= 3:
        h = uniform_step(times)
        for m in range(1, len(times) - 1):
            dtu = (u_fields[m + 1] - u_fields[m - 1]) / (2.0 * h)
            dtu_l2.append(grid.l2sq(dtu))
            dtu_h1.append(grid.h1sq(dtu))
    return dt_u_margins(times, dtu_l2, dtu_h1, enstrophy)


def dt_u_margins(times, dtu_l2sq, dtu_h1sq, enstrophy):
    """Margins of phi |dt u|^2 - d/dt |dt u|^2 - |grad dt u|^2 >= 0.

    ``dtu_l2sq`` and ``dtu_h1sq`` hold |dt u|^2 and |grad dt u|^2 at the
    interior samples ``times[1:-1]``, with dt u the centered difference of
    the neighbouring velocities; phi = 27 (sum |w_i|^2)^2 comes from the
    enstrophy series sampled at every time.  The outer time derivative uses
    centered differences where possible and one-sided ones at the ends of
    the interior range.
    """
    times = np.asarray(times, dtype=np.float64)
    if len(times) < 3:
        raise ValueError("need at least three uniformly spaced samples")
    enstrophy = np.asarray(enstrophy, dtype=np.float64)
    if len(enstrophy) != len(times):
        raise ValueError("need one enstrophy value per sample")
    h = uniform_step(times)
    dtu_l2 = np.asarray(dtu_l2sq, dtype=np.float64)
    dtu_h1 = np.asarray(dtu_h1sq, dtype=np.float64)
    if len(dtu_l2) != len(times) - 2 or len(dtu_h1) != len(times) - 2:
        raise ValueError("need one dt u norm per interior sample")
    phi = 27.0 * enstrophy[1:-1] ** 2
    ddt = np.zeros_like(dtu_l2)
    if len(dtu_l2) >= 2:
        ddt[0] = (dtu_l2[1] - dtu_l2[0]) / h
        ddt[-1] = (dtu_l2[-1] - dtu_l2[-2]) / h
    if len(dtu_l2) >= 3:
        ddt[1:-1] = (dtu_l2[2:] - dtu_l2[:-2]) / (2.0 * h)
    margins = phi * dtu_l2 - ddt - dtu_h1
    return DtMonitor(
        times=times[1:-1],
        dtu_l2sq=dtu_l2,
        dtu_h1sq=dtu_h1,
        phi=phi,
        margins=margins,
        min_margin=float(np.min(margins)) if len(margins) else 0.0,
    )


# -- convergence studies ----------------------------------------------------------


@dataclass
class RateFit:
    rate: float
    ratios: np.ndarray
    monotone: bool
    dts: np.ndarray
    errors: np.ndarray


def convergence_study(dts, errors):
    """Least-squares slope of log error against log dt.

    A non-monotone error sequence is flagged but still fitted.
    """
    dts = np.asarray(dts, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if len(dts) < 3 or len(dts) != len(errors):
        raise ValueError("need at least three matching refinement levels")
    if np.any(errors <= 0) or np.any(dts <= 0):
        raise ValueError("errors and step sizes must be positive")
    order = np.argsort(dts)[::-1]
    dts, errors = dts[order], errors[order]
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    ratios = errors[1:] / errors[:-1]
    return RateFit(
        rate=slope,
        ratios=ratios,
        monotone=bool(np.all(ratios < 1.0)),
        dts=dts,
        errors=errors,
    )


def sup_l2_distance(grid: Grid, traj_a: Trajectory, traj_b: Trajectory, times):
    """Sup over the given times of the L2 distance between the two trajectories."""
    worst = 0.0
    for t in times:
        d = math.sqrt(grid.l2sq(traj_a.field_at(t) - traj_b.field_at(t)))
        worst = max(worst, d)
    return worst


def piecewise_average_distance(grid: Grid, trajectory: Trajectory, partition: TimePartition):
    """L2(Q) distance between a velocity trajectory and its slab averages.

    For each slab the average of u is taken over the slab and the squared
    pointwise-in-time L2 gap is integrated with Simpson on 32 equal
    intervals of the slab; slab contributions add up over the partition.
    """
    total = 0.0
    for _, t_lo, t_hi in partition:
        u_bar = trajectory.velocity_average_over(t_lo, t_hi)
        ts = np.linspace(t_lo, t_hi, 33)
        gaps = np.array([grid.l2sq(trajectory.velocity_at(t) - u_bar) for t in ts])
        total += float(simpson(gaps, ts))
    return math.sqrt(total)
