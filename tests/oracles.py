"""Independent reference computations and file corruptions that only the tests use.

The computations work on the whole (n, n, n) cube with complex transforms,
apart from the kept-block layout the program keeps, so they check it rather
than share its code.  The half spectrum (n, n, n//2+1) of ``rfftn`` lives
here too: its wavevector tables (``half_tables``), the converters between it
and the kept block (``kept``, ``spread``) and the whole cube
(``full_spectrum``), and the physical grid (``physical_grid``), with the
whole-cube forward transform (``physical_to_block``) and nonlinear kernel
(``whole_cube_nonlinear_term``).
"""

import functools
import itertools
import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft

from vslab import estimates, slabs
from vslab.reference import StepperConfig, rk4_step, run_reference
from vslab.snapshots import load_trajectory
from vslab.spectral import BOX_VOLUME, FieldShapeError, splitmix64_uniform
from vslab.trajectory import Trajectory, scalar_record, series_from_records


def collect_reference(grid, w0, T, cfg, **kwargs):
    """``run_reference`` with its snapshots collected into a Trajectory through the sink."""
    traj = Trajectory(grid, cfg.nu)
    traj.series = run_reference(grid, w0, T, cfg, traj.append, **kwargs)
    return traj


def collect_slabs(grid, omega0, partition, **kwargs):
    """``run_slab_scheme`` with its samples collected through the sink.

    Returns (result, trajectory, solutions): the run's result, its samples as
    a Trajectory carrying the run's series, and the SlabSolution that
    ``picard_solve_slab`` returned to the run for each slab, in slab order.
    """
    traj = Trajectory(grid, kwargs.get("nu", 1.0))
    solutions = []
    solve = slabs.picard_solve_slab

    def recording(*args, **kw):
        solutions.append(solve(*args, **kw))
        return solutions[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slabs, "picard_solve_slab", recording)
        result = slabs.run_slab_scheme(grid, omega0, partition, traj.append, **kwargs)
    traj.series = result.series
    return result, traj, solutions


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


def plane_weights(n):
    """The weight of each k_3 plane of the whole cube (``fftfreq`` order) in a half-spectrum sum.

    A plane of the half spectrum k_3 >= 0 stands for itself and its conjugate
    mirror, weight 2, except the self-conjugate planes k_3 = 0 and k_3 = -n/2,
    weight 1; the planes k_3 < 0 are the mirrors, listed with the same rule.
    """
    k3 = np.fft.fftfreq(n, d=1.0 / n)
    return np.where((k3 == 0) | (k3 == -n // 2), 1.0, 2.0)


@functools.lru_cache(maxsize=8)
def half_tables(n):
    """The wavevector tables of the half spectrum (n, n, n//2+1), read-only.

    ``k`` and the derivative wavevectors ``kd`` (Nyquist zeroed) are
    (3, n, n, n//2+1); ``ksq`` is |k|^2, ``inv_ksq`` 1/|k|^2 with 0 at k = 0,
    ``keep`` the modes of the 2/3 cut, and ``plane_weight`` the weight of
    each k_3 plane in a sum over the full spectrum: 2, except 1 on the
    self-conjugate planes k_3 = 0 and k_3 = -n/2.
    """
    h = n // 2 + 1
    k, kd = full_tables(n)
    k, kd = k[..., :h].copy(), kd[..., :h].copy()
    ksq = np.sum(k**2, axis=0)
    with np.errstate(divide="ignore"):
        inv_ksq = 1.0 / ksq
    inv_ksq[0, 0, 0] = 0.0
    keep = np.all(np.abs(k) < n / 3.0, axis=0)
    plane_weight = plane_weights(n)[:h]
    _read_only(k, kd, ksq, inv_ksq, keep, plane_weight)
    return SimpleNamespace(
        k=k, kd=kd, ksq=ksq, inv_ksq=inv_ksq, keep=keep, plane_weight=plane_weight
    )


@functools.lru_cache(maxsize=8)
def physical_grid(grid):
    """The sample points (3, n, n, n) of the grid on [0, 2pi)^3, read-only."""
    x1 = 2.0 * np.pi * np.arange(grid.n) / grid.n
    x = np.array(np.meshgrid(x1, x1, x1, indexing="ij"))
    _read_only(x)
    return x


def _kept_index(n):
    """Index arrays that pick the kept block out of a half spectrum, by wavevector.

    Lists k_1, then k_2, over 0 .. kmax and then -kmax .. -1, and k_3 over
    0 .. kmax, where kmax is the largest integer below n/3.
    """
    k = np.fft.fftfreq(n, d=1.0 / n)
    rows = np.flatnonzero(np.abs(k) < n / 3.0)  # fftfreq order: 0 .. kmax, -kmax .. -1
    planes = rows[: (len(rows) + 1) // 2]
    return rows[:, None, None], rows[None, :, None], planes[None, None, :]


def kept_modes(half):
    """The kept modes of a half spectrum in the order of a snapshot payload.

    Picked by wavevector (``_kept_index``), apart from ``Grid``'s gather.
    """
    return half[(..., *_kept_index(half.shape[-2]))]


def kept(grid, field):
    """The kept block of a half-spectrum ``field``, or None.

    None when the field has content outside the 2/3 cut, which shows as
    fewer nonzero entries in the block than in the field.  A field of any
    other shape raises ``FieldShapeError``.
    """
    grid._check_shape(field)
    block = kept_modes(field)
    return block if np.count_nonzero(block) == np.count_nonzero(field) else None


def spread(grid, block):
    """The half spectrum of a kept block, zero outside the cut; other shapes raise."""
    grid._check_shape(block, grid._block_shape)
    out = np.zeros(block.shape[:-3] + grid._half_shape, dtype=block.dtype)
    out[(..., *_kept_index(grid.n))] = block
    return out


def physical_to_block(grid, values):
    """The kept block of physical samples' amplitudes: the whole-cube ``rfftn`` times 1/n^3."""
    block = kept_modes(scipy.fft.rfftn(values, axes=(-3, -2, -1)))
    block *= 1.0 / grid.n**3
    return block


def whole_cube_nonlinear_term(grid, u, w):
    """``reference.nonlinear_term`` on the whole cube: spread, ``irfftn``, cross, ``rfftn``, curl.

    The blocks are scaled by n^3 before the spread, as the program scales
    them, so the bits are comparable.
    """
    n = grid.n
    u_phys, w_phys = (
        scipy.fft.irfftn(spread(grid, v * float(n**3)), s=(n, n, n), axes=(-3, -2, -1))
        for v in (u, w)
    )
    return grid.curl(physical_to_block(grid, np.cross(u_phys, w_phys, axis=0)))


def full_spectrum(half):
    """Full (..., n, n, n) amplitudes of a real field from its k_3 >= 0 half."""
    n = half.shape[-2]
    h = n // 2 + 1
    out = np.empty(half.shape[:-1] + (n,), dtype=np.complex128)
    out[..., :h] = half
    # k_3 = -(n/2-1) .. -1 are the conjugates of k_3 = n/2-1 .. 1 at (-k_1, -k_2)
    mirror = np.roll(np.flip(half[..., h - 2 : 0 : -1], axis=(-3, -2)), 1, axis=(-3, -2))
    out[..., h:] = np.conj(mirror)
    return out


def gradient(grid, s):
    """Scalar half spectrum -> vector half spectrum, modewise i*kd*shat."""
    if s.shape != grid._half_shape:
        raise FieldShapeError(f"expected a scalar half spectrum, got {s.shape}")
    return 1j * half_tables(grid.n).kd * s[np.newaxis]


def coupling_block(grid, u_bar):
    """``slabs._coupling_block`` built from the whole cube of ``u_bar`` and of the cut.

    The kept modes are the nonzero ones of the cut's indicator on the cube,
    in C order, and ubar(k-q) is read from ``full_spectrum(spread(u_bar))``.
    """
    n = grid.n
    k, _ = full_tables(n)
    keep = full_spectrum(half_tables(n).keep.astype(np.complex128)).real > 0
    idx = np.argwhere(keep)[1:]  # C order puts k = 0 first
    pick = tuple(idx.T)
    kv = k[(slice(None),) + pick].T  # (m, 3)
    helper = np.eye(3)[np.argmin(np.abs(kv), axis=1)]
    e1 = np.cross(kv, helper)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(kv, e1)
    e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
    pol = np.stack((e1, e2), axis=1)
    diff = tuple((idx[:, None, d] - idx[None, :, d]) % n for d in range(3))
    u_full = full_spectrum(spread(grid, u_bar))
    ub = np.moveaxis(u_full[(slice(None),) + diff], 0, -1)  # (m, m, 3): ubar(k-q)
    pu = np.einsum("kpc,kqc->pkq", pol, ub)
    ke = np.einsum("kc,qrc->kqr", kv, pol)
    pe = np.einsum("kpc,qrc->pkqr", pol, pol)
    ku = np.einsum("kc,kqc->kq", kv, ub)
    block = 1j * (pu[:, :, :, None] * ke[None] - pe * ku[None, :, :, None])
    m = len(kv)
    return pick, pol, block.transpose(0, 1, 3, 2).reshape(2 * m, 2 * m)


def conjugate_reflection(coeffs):
    """Amplitudes of the conjugate-reflected field of a full cube, index k -> -k.

    Works on any cube size, including grids too small for ``Grid``.
    """
    rev = np.flip(coeffs, axis=(-3, -2, -1))
    return np.conj(np.roll(rev, 1, axis=(-3, -2, -1)))


def random_divfree_half(grid, seed):
    """``random_divfree_field`` built on the whole cube, as a half spectrum.

    The draws go mode by mode in lexicographic order of k over the box
    |k_i| <= min(n/3, n/2-1) of the n^3 cube, k = 0 left out; the cube is
    symmetrized by conjugate reflection, cut to its half, projected,
    dealiased and normalised.
    """
    n = grid.n
    kmax = min(int(n / 3.0), n // 2 - 1)
    axis = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    order = [i for i in np.argsort(axis) if abs(axis[i]) <= kmax]
    modes = [m for m in itertools.product(order, order, order) if any(axis[i] for i in m)]
    draws = splitmix64_uniform(seed, 6 * len(modes)).reshape(len(modes), 3, 2)
    amp = 2.0 * draws - 1.0
    full = np.zeros((3, n, n, n), dtype=np.complex128)
    for (i1, i2, i3), a in zip(modes, amp):
        damp = 1.0 / (1.0 + float(axis[i1] ** 2 + axis[i2] ** 2 + axis[i3] ** 2))
        full[:, i1, i2, i3] = damp * (a[:, 0] + 1j * a[:, 1])
    coeffs = 0.5 * (full + conjugate_reflection(full))[..., : n // 2 + 1]
    coeffs[:, 0, 0, 0] = 0.0
    coeffs = grid.dealias(grid.leray_project(coeffs))
    return coeffs / np.sqrt(grid.l2sq(kept(grid, coeffs)))


def hermitian_defect(coeffs):
    """Max |fhat[k] - conj(fhat[-k])| of a full cube, zero for a real field."""
    return float(np.max(np.abs(coeffs - conjugate_reflection(coeffs))))


def full_tables(n):
    """Wavevectors k and Nyquist-zeroed derivative wavevectors kd on the whole cube."""
    k1 = np.fft.fftfreq(n, d=1.0 / n)
    kd1 = k1.copy()
    kd1[n // 2] = 0.0
    k = np.array(np.meshgrid(k1, k1, k1, indexing="ij"))
    kd = np.array(np.meshgrid(kd1, kd1, kd1, indexing="ij"))
    return k, kd


def cut_block(grid, coeffs):
    """The kept block of ``coeffs`` after the 2/3 cut.

    Transformed samples of a formula carry rounding noise outside the cut,
    so ``kept`` alone would find content there.
    """
    return kept(grid, grid.dealias(coeffs))


def velocity_rhs(grid, u):
    """Projected, dealiased -(u . grad) u: the convective form of the velocity RHS.

    Curled, it must agree with the rotational-form vorticity RHS.  ``u`` and
    the result are kept blocks; the products are formed from complex
    transforms of the full cube.
    """
    n = grid.n
    _, kd = full_tables(n)
    full = full_spectrum(spread(grid, u))
    stack = np.empty((12, n, n, n), dtype=np.complex128)
    stack[0:3] = full
    for j in range(3):
        stack[3 + 3 * j : 6 + 3 * j] = 1j * kd[j] * full
    phys = scipy.fft.ifftn(stack * n**3, axes=(-3, -2, -1)).real
    up = phys[0:3]
    du = phys[3:12].reshape(3, 3, n, n, n)
    out = np.empty((3, n, n, n))
    for i in range(3):
        out[i] = -(up[0] * du[0, i] + up[1] * du[1, i] + up[2] * du[2, i])
    rhs = scipy.fft.fftn(out, axes=(-3, -2, -1))[..., : n // 2 + 1] / n**3
    rhs = kept(grid, grid.leray_project(grid.dealias(rhs)))
    rhs[:, 0, 0, 0] = 0.0
    return rhs


def run_reference_velocity(grid, u0, T, cfg, field_every=10):
    """Velocity-form integration to cross-check the vorticity solver.

    Returns (times, velocity snapshots), kept blocks; curl of a snapshot
    compares against the vorticity run.
    """
    n_steps = max(1, int(round(T / cfg.dt)))
    dt = T / n_steps
    cfg = StepperConfig(dt=dt, nu=cfg.nu, enstrophy_ceiling=cfg.enstrophy_ceiling)
    u = kept(grid, grid.symmetrize(grid.leray_project(np.array(u0, dtype=np.complex128))))
    u[:, 0, 0, 0] = 0.0
    times = [0.0]
    snaps = [u.copy()]
    for step in range(1, n_steps + 1):
        u = rk4_step(grid, u, cfg, rhs=velocity_rhs, t=(step - 1) * dt)
        if step % field_every == 0 or step == n_steps:
            times.append(step * dt if step < n_steps else T)
            snaps.append(u.copy())
    return np.array(times), snaps


def norm_suite(grid, coeffs):
    return {"l2_sq": grid.l2sq(coeffs), "h1_semi_sq": grid.h1sq(coeffs), "l4": grid.l4(coeffs)}


def physical_l2sq(grid, values):
    """Direct physical-space L2 quadrature, for Parseval cross-checks."""
    vals = np.asarray(values, dtype=np.float64)
    return float(np.sum(vals**2) * grid.cell_volume)


def stored_block(path):
    """The payload of a snapshot file as a (3, K, K, kmax + 1) array, K = 2 kmax + 1.

    The shape comes from the file's size alone: 16 bytes per amplitude.
    """
    blob = path.read_bytes()
    count = (len(blob) - 24) // 48  # K^2 (K + 1) / 2 amplitudes per component
    side = next(K for K in range(1, count + 2, 2) if K * K * (K + 1) // 2 == count)
    return np.frombuffer(blob, dtype="<c16", offset=24).reshape(3, side, side, (side + 1) // 2)


def corrupt_plane(path, delta=0.25):
    """Add ``delta`` to the real part of component 1 of a snapshot file at k = (1, -2, 0).

    The file also holds the mirror (-1, 2, 0) of that mode on the plane
    k_3 = 0, so the change is a Hermitian defect.
    """
    block = stored_block(path).copy()
    block[1, 1, -2, 0] += delta
    path.write_bytes(path.read_bytes()[:24] + block.tobytes())


def version_1_file(path, half, time):
    """Write a half spectrum as a format 1 snapshot: the whole fftshift-ed cube."""
    n = half.shape[-2]
    cube = np.fft.fftshift(full_spectrum(half), axes=(-3, -2, -1))
    header = struct.pack("<4sIIId", b"VSLB", 1, n, 3, time)
    path.write_bytes(header + cube.astype("<c16").tobytes())


def stacked_curl(grid, v):
    """i k x vhat of a kept block as three component expressions stacked into a new array."""
    kd = grid.block_kd
    return 1j * np.stack(
        [
            kd[1] * v[2] - kd[2] * v[1],
            kd[2] * v[0] - kd[0] * v[2],
            kd[0] * v[1] - kd[1] * v[0],
        ]
    )


def stack_lag_sums(grid, fields):
    """The H^gamma lag sums G_d of ``fields`` from one dense stack of every field but the last.

    The whole-stack construction the program replaced by chunked sums: row m
    is the kept block of ``fields[m]``, each plane weighted by the square
    root of its ``Grid.block_weight``, and G_d is the lag-d diagonal trace of
    ``BOX_VOLUME`` times the real Gram matrix of the rows.
    """
    weight = np.sqrt(grid.block_weight)
    rows = np.empty((max(len(fields) - 1, 0), 3 * math.prod(grid._block_shape)), dtype=complex)
    for row, w in zip(rows, fields):
        row[:] = np.ravel(w * weight)
    real = rows.view(np.float64)
    gram = BOX_VOLUME * (real @ real.T)
    return np.array([np.trace(gram, offset=d) for d in range(len(rows))])


def monitor_rows(snapdir, nu, gamma, ladyzhenskaya_c):
    """The (quantity, value) rows of ``vslab monitor`` from whole-trajectory lists.

    Holds every vorticity and velocity at once and calls the list-taking
    monitors, so the streamed command can be checked against it value for value.
    """
    traj = load_trajectory(snapdir, nu=nu)
    grid = traj.grid
    u_fields = [grid.biot_savart(w) for w in traj.fields]
    s = series_from_records(
        traj.times, [scalar_record(grid, w, u) for w, u in zip(traj.fields, u_fields)]
    )
    residual = estimates.energy_identity_residual(s.times, s.energy, s.dissipation, nu=nu)
    grad_gap = max(estimates.grad_vorticity_check(grid, u) for u in u_fields)
    rows = [("energy_identity_residual", residual), ("grad_vorticity_max_gap", grad_gap)]
    if len(traj.times) >= 3:
        monitor = estimates.dt_u_monitor(traj.times, u_fields, s.enstrophy, grid)
        band = 0.0  # below five samples times[::2] has fewer than three
        if len(traj.times) >= 5:
            half = estimates.dt_u_monitor(traj.times[::2], u_fields[::2], s.enstrophy[::2], grid)
            common = np.isin(monitor.times, half.times)
            band = float(np.max(np.abs(monitor.margins[common] - half.margins)))
        rows += [
            ("dt_u_min_margin", monitor.min_margin),
            ("dt_u_fd_band", band),
            ("dt_u_pass", int(monitor.min_margin >= -band)),
        ]
        h = traj.times[1] - traj.times[0]
        ratios = []
        for m in range(1, len(traj.times) - 1):
            dtu = (u_fields[m + 1] - u_fields[m - 1]) / (2.0 * h)
            try:
                ratios.append(estimates.ladyzhenskaya_ratio(grid, dtu))
            except ValueError:
                continue
        if ratios:
            worst = max(ratios)
            rows += [
                ("ladyzhenskaya_max_ratio", worst),
                ("ladyzhenskaya_constant", ladyzhenskaya_c),
                ("ladyzhenskaya_pass", int(worst <= ladyzhenskaya_c)),
            ]
    hg = estimates.hgamma_diagnostic(traj.times, traj.fields, gamma, grid)
    rows.append((f"hgamma_{gamma}", hg.value))
    return rows
